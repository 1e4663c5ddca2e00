"""NumPy-vectorized fast-path simulation kernels.

The interpreted engine (:mod:`repro.sim.engine`) replays a trace one
record at a time through predictor objects. For the paper's table-driven
schemes that loop is pure data movement — table lookups and two-bit
automaton steps — which this module evaluates in batch over the columnar
arrays exported by :meth:`repro.trace.events.Trace.as_arrays`. Results
are **bit-identical** to the interpreted engine: same accuracy, same
per-site counts, same context-switch count (the equivalence-pin suite in
``tests/test_sim_kernels.py`` enforces this for every supported scheme).

How a two-level scheme is vectorized
------------------------------------

1. **Context-switch segmentation.** With the engine's fixed
   absolute-boundary semantics, the records at which a flush fires are
   exactly ``trap | (instret // interval changed)`` — a pure function of
   the trace, computed once as a mask. First-level state never crosses a
   segment boundary.
2. **History patterns in closed form.** A history register's content
   before record ``i`` is the window of the last ``min(d, k)`` outcomes
   (``d`` = records since the register was (re)initialised) extended
   with the fill bit — computable for all records at once with ``k``
   shifted adds. Per-address registers need the records grouped by BHT
   residency first, which one stable sort provides.
3. **Pattern-table evolution as a composed automaton.** Grouping records
   by (table, pattern) key makes each pattern entry's life a sequence of
   outcomes driving one automaton. The per-outcome transition function
   packs into a byte (:func:`repro.core.automata.packed_transition_code`),
   function composition becomes a 256x256 table lookup, and a segmented
   doubling scan yields every entry's state *before* each update. Runs
   of identical outcomes collapse via ``f^m = f^3`` for ``m >= 3``
   (:func:`repro.core.automata.supports_vector_scan`), which both bounds
   the scan depth and allows closed-form scoring of whole runs when no
   per-record output is needed.

Set-associative BHTs (the paper's 4-way tables) are modelled exactly:
an event-compressed LRU stack-distance pass (:func:`_lru_metadata`)
derives every access's miss, eviction and way — first-invalid-way
allocation, true-LRU victim choice, flush invalidation that keeps stale
tags — memoized per (trace, geometry, context-switch model) by
:func:`_bht_residency`, and :func:`_assoc_layout` turns it into the
same (episode, slot, evict) layout the direct-mapped path derives in
closed form. Hybrid and per-set schemes compose the existing machinery:
gselect concatenates address bits into the global-history key, SAg/SAs
group per-set shift registers, and the tournament kernel runs both
component kernels per-record and arbitrates with a chooser-automaton
scan over the disagreement records. The remaining exclusions are
structural: automata beyond 4 states or without the ``f^4 == f^3``
fixed point, and history registers above ``_MAX_HISTORY_BITS``. Those
fall back to the interpreted loop — ``simulate(..., backend="auto")``
arranges this automatically via :func:`kernel_supports`.

One driver, :func:`simulate_vectorized`, runs every case. An
in-memory trace is a single chunk; a stream is its blocks in order.
Each scheme's kernel is a per-cell object whose ``process(run)``
scores one chunk and carries concrete state to the next: pattern
tables as a store of automaton states keyed by the same int64 key the
kernel sorts on (with a chunk-stable identity — pattern, set, pc or
BHT slot — in place of any chunk-local dense id), history registers
and BHT entries keyed by their home with the flush count of their last
update, and set-associative residents replayed into the next chunk's
LRU pass. A chunk with nothing carried — a whole trace — gathers and
commits nothing, so it runs exactly the single-pass code.

Kernels never mutate the predictor: they read its *configuration*
(history length, automaton, BHT geometry, preset/profiled bits) and
assume it is freshly constructed, exactly as the experiment runner
builds predictors.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.automata import (
    IDENTITY_CODE,
    AutomatonSpec,
    packed_transition_code,
    saturating_counter,
    supports_vector_scan,
)
from ..core.history import CacheBHT, IdealBHT
from ..core.perset import SAgPredictor, SAsPredictor
from ..core.static_training import GSgPredictor, PSgPredictor
from ..core.twolevel import (
    GAgPredictor,
    GApPredictor,
    GsharePredictor,
    PAgPredictor,
    PApPredictor,
)
from ..predictors.btb import BTBPredictor
from ..predictors.extensions import GselectPredictor, TournamentPredictor
from ..predictors.static import AlwaysNotTaken, AlwaysTaken, BTFN, ProfileGuided
from ..trace.events import Trace
from ..trace.stream import DEFAULT_BLOCK_SIZE as _DEFAULT_STREAM_BLOCK
from .engine import ContextSwitchConfig
from .results import SimulationResult

__all__ = [
    "CHOOSER_AUTOMATON",
    "KernelUnavailable",
    "automaton_ops",
    "kernel_supports",
    "simulate_vectorized",
]

#: Longest history register the kernels accept. Pattern keys stay well
#: inside int64 and the windowing loop stays short; the paper's longest
#: register is 18 bits.
_MAX_HISTORY_BITS = 24


class KernelUnavailable(RuntimeError):
    """No vectorized kernel covers this predictor (or this trace)."""


# ----------------------------------------------------------------------
# Automaton machinery: packed codes, composition LUT, run scans
# ----------------------------------------------------------------------

class _AutomatonOps:
    """Precomputed lookup tables for one automaton.

    Attributes:
        compose: ``compose[a, b]`` = packed code of "apply a, then b".
        apply: ``apply[code, state]`` = the mapped state.
        pred4: per-state predicted direction, padded to 4 states.
        compose_flat: the same table flattened (``a * 256 + b``) for
            single-gather lookups in the scan's hot loop.
        pow_codes: ``pow_codes[outcome, j]`` = code of ``f_outcome^j``
            for j in 0..3 (``f^m == f^3`` for m >= 3 by the
            :func:`supports_vector_scan` gate).
        is_const: whether a code maps every state to one state — a run
            carrying such a code makes everything after it independent
            of earlier history, which caps the scan depth.
        head_wrong: ``head_wrong[outcome, state, c]`` = mispredictions
            across the first ``c`` (<= 3) steps of an ``outcome`` run
            entered in ``state``.
        tail_mis: ``tail_mis[outcome, state]`` = whether the automaton
            mispredicts at the run's fixed point ``f^3(state)``.
        init: the automaton's initial state.
    """

    def __init__(self, spec: AutomatonSpec) -> None:
        codes = np.arange(256, dtype=np.uint16)
        decode = np.stack(
            [(codes >> (2 * s)) & 3 for s in range(4)], axis=1
        ).astype(np.uint8)
        # chained[b, a, s] = decode[b, decode[a, s]] -> code over s.
        chained = decode[:, decode]
        weights = np.array([1, 4, 16, 64], dtype=np.uint16)
        composed = (chained.astype(np.uint16) * weights).sum(axis=2)
        self.compose = np.ascontiguousarray(composed.T.astype(np.uint8))
        self.compose_flat = self.compose.ravel()
        self.apply = decode
        self.pred4 = np.array(
            [
                spec.predictions[s] if s < spec.num_states else False
                for s in range(4)
            ],
            dtype=np.bool_,
        )
        self.pow_codes = np.empty((2, 4), dtype=np.uint8)
        for outcome in (0, 1):
            f1 = packed_transition_code(spec, bool(outcome))
            self.pow_codes[outcome, 0] = IDENTITY_CODE
            self.pow_codes[outcome, 1] = f1
            self.pow_codes[outcome, 2] = self.compose[f1, f1]
            self.pow_codes[outcome, 3] = self.compose[self.pow_codes[outcome, 2], f1]
        self.is_const = (decode == decode[:, :1]).all(axis=1)
        self.head_wrong = np.zeros((2, 4, 4), dtype=np.int64)
        self.tail_mis = np.zeros((2, 4), dtype=np.int64)
        for outcome in (0, 1):
            for state in range(4):
                current = state
                for j in range(3):
                    self.head_wrong[outcome, state, j + 1] = (
                        self.head_wrong[outcome, state, j]
                        + (self.pred4[current] != bool(outcome))
                    )
                    current = self.apply[self.pow_codes[outcome, 1], current]
                fixed = self.apply[self.pow_codes[outcome, 3], state]
                self.tail_mis[outcome, state] = self.pred4[fixed] != bool(outcome)
        self.init = spec.initial_state


_OPS_CACHE: Dict[tuple, _AutomatonOps] = {}


def _ops_for(spec: AutomatonSpec) -> _AutomatonOps:
    key = (spec.transitions, spec.predictions, spec.initial_state)
    ops = _OPS_CACHE.get(key)
    if ops is None:
        ops = _OPS_CACHE[key] = _AutomatonOps(spec)
    return ops


def automaton_ops(spec: AutomatonSpec) -> _AutomatonOps:
    """The kernel table bundle (:class:`_AutomatonOps`) for ``spec``.

    This is the public verification hook used by the
    ``repro.check.kernels`` encoding prover: it returns exactly the
    packed-code / composition-LUT / run-scoring tables the vectorized
    scans gather from, so external checks prove the objects the kernels
    actually run on, not a reconstruction. The bundle is cached and
    shared with the simulation hot path — callers that want to mutate
    tables (mutation tests) must ``copy.deepcopy`` it first.
    """
    return _ops_for(spec)


class _Runs:
    """Maximal same-outcome runs within pattern groups, plus the
    automaton state entering each run (the output of the scan)."""

    __slots__ = ("first", "length", "lcap", "out", "state0", "starts")

    def __init__(self, first, length, lcap, out, state0, starts) -> None:
        self.first = first
        self.length = length
        self.lcap = lcap
        self.out = out
        self.state0 = state0
        self.starts = starts


def _find_runs(out_u8: np.ndarray, grp_new: np.ndarray, ops: _AutomatonOps,
               group_init: Optional[np.ndarray] = None) -> _Runs:
    """Collapse group-sorted outcomes into runs and scan their states.

    ``out_u8`` must be ordered group-major with time order inside each
    group; ``grp_new`` marks each group's first element. Every group's
    automaton starts from ``ops.init`` — unless ``group_init`` (a
    per-record uint8 state array, consulted at each group's first
    record) supplies carried-over states, which is how a chunk resumes
    a pattern entry where the previous chunk left it.
    """
    n = out_u8.shape[0]
    starts = grp_new.copy()
    starts[1:] |= out_u8[1:] != out_u8[:-1]
    first = np.flatnonzero(starts)
    nruns = first.shape[0]
    length = np.empty(nruns, dtype=np.int64)
    if nruns > 1:
        length[:-1] = np.diff(first)
    length[-1] = n - first[-1]
    out = out_u8[first]
    lcap = np.minimum(length, 3)
    code = ops.pow_codes[out, lcap]

    grp_first = grp_new[first]
    prev_code = np.empty(nruns, dtype=np.uint8)
    prev_code[0] = IDENTITY_CODE
    prev_code[1:] = code[:-1]
    # A constant predecessor code pins the state regardless of anything
    # earlier: start a fresh scan segment there with a known init.
    absorbed = ~grp_first & ops.is_const[prev_code]
    absorbed[0] = False
    seg_new = grp_first | absorbed
    seg_new[0] = True
    seg_start = _start_indices(seg_new)
    idx_in_seg = np.arange(nruns, dtype=np.int32) - seg_start
    if group_init is None:
        init_vals = np.full(nruns, ops.init, dtype=np.uint8)
    else:
        init_vals = group_init[first]
    init_run = np.where(absorbed, prev_code & 3, init_vals).astype(np.uint8)[seg_start]

    # Exclusive segmented composition scan (Hillis-Steele doubling):
    # after the loop, H[i] maps a segment's init state to the state
    # entering run i. Only positions >= step into their segment change
    # in an iteration, so each pass touches the (rapidly shrinking)
    # active set instead of the whole array; reading ``H[active-step]``
    # before any write keeps the gather on pre-iteration values, and
    # ``idx_in_seg >= step`` guarantees ``active - step`` stays inside
    # the same segment.
    H = np.empty(nruns, dtype=np.uint8)
    H[0] = IDENTITY_CODE
    H[1:] = code[:-1]
    H[seg_new] = IDENTITY_CODE
    compose_flat = ops.compose_flat
    step = 1
    while True:
        active = np.flatnonzero(idx_in_seg >= step)
        if active.size == 0:
            break
        prior = H[active - step].astype(np.uint16)
        H[active] = compose_flat[(prior << 8) | H[active]]
        step <<= 1
    state0 = ops.apply[H, init_run]
    return _Runs(first, length, lcap, out, state0, starts)


def _runs_wrong_total(runs: _Runs, ops: _AutomatonOps) -> int:
    """Total mispredictions, scored per run in closed form."""
    cell = (runs.out.astype(np.int64) * 4 + runs.state0) * 4
    head = ops.head_wrong.ravel()[cell + runs.lcap]
    tail = (runs.length - runs.lcap) * ops.tail_mis.ravel()[cell >> 2]
    return int(head.sum() + tail.sum())


def _expand_run_preds(n: int, runs: _Runs, ops: _AutomatonOps) -> np.ndarray:
    """Per-record predictions (group-sorted order) from run states."""
    nruns = runs.first.shape[0]
    preds = np.empty((nruns, 4), dtype=np.bool_)
    for j in range(4):
        preds[:, j] = ops.pred4[ops.apply[ops.pow_codes[runs.out, j], runs.state0]]
    run_id = np.cumsum(runs.starts) - 1
    offset = np.minimum(np.arange(n) - runs.first[run_id], 3)
    return preds[run_id, offset]


# ----------------------------------------------------------------------
# Sorting / grouping / history-window helpers
# ----------------------------------------------------------------------

def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort specialised for small non-negative keys.

    Radix sort on uint16 keys is ~8x faster than comparison sort on
    int64, and two chained stable uint16 passes (LSD radix) cover the
    32-bit range; wider keys fall back to the generic stable sort. On
    short arrays (small chunks) the radix set-up costs more than it
    saves, so they take the generic sort directly.
    """
    if keys.shape[0] < 64:
        return np.argsort(keys, kind="stable")
    top = int(keys.max())
    if top < (1 << 16):
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if top < (1 << 32):
        wide = keys.astype(np.uint32)
        low = (wide & np.uint32(0xFFFF)).astype(np.uint16)
        high = (wide >> np.uint32(16)).astype(np.uint16)
        by_low = np.argsort(low, kind="stable")
        by_high = np.argsort(high[by_low], kind="stable")
        return by_low[by_high]
    return np.argsort(keys, kind="stable")


def _group_sort(keys: np.ndarray):
    """``(order, grp_new)``: stable sort by key + group-start marks."""
    order = _stable_argsort(keys)
    return order, _head_marks(keys[order])


def _start_indices(new_mark: np.ndarray) -> np.ndarray:
    """For each position, the index of its group's first element.

    int32 keeps this (and its downstream arithmetic) at half the memory
    traffic; traces are nowhere near 2**31 records.
    """
    n = new_mark.shape[0]
    return np.maximum.accumulate(
        np.where(new_mark, np.arange(n, dtype=np.int32), np.int32(0))
    )


def _outcome_window(out_u8: np.ndarray, k: int) -> np.ndarray:
    """``W[i]`` = the previous ``k`` outcomes before position ``i``,
    newest in bit 0 (group boundaries handled by the callers' masks)."""
    n = out_u8.shape[0]
    window = np.zeros(n, dtype=np.int32)
    lifted = out_u8.astype(np.int32)
    for back in range(1, min(k, n - 1) + 1):
        window[back:] += lifted[:-back] << np.int32(back - 1)
    return window


def _fill_extended(window: np.ndarray, since: np.ndarray, fill: np.ndarray, k: int) -> np.ndarray:
    """History-register contents: ``min(since, k)`` window bits with the
    ``fill`` bit extended through the remaining upper positions."""
    mask = np.int32((1 << k) - 1)
    depth = np.minimum(since, np.int32(k))
    low_mask = (np.int32(1) << depth) - np.int32(1)
    return (window & low_mask) | (fill * (mask ^ low_mask))


# ----------------------------------------------------------------------
# The chunk container and carried state
# ----------------------------------------------------------------------

class _Run:
    """Prepared per-chunk inputs shared by every kernel.

    A whole in-memory trace is a single chunk and takes the defaults.
    The chunks of a stream additionally thread ``prev_epoch`` (the
    context-switch epoch of the previous chunk's last record, so a flush
    boundary falling exactly between two chunks still fires),
    ``fires_base`` (the global flush count entering this chunk, so
    ``seg_c`` values — and the residency stamps derived from them — stay
    comparable across chunks), ``cond_base`` (the conditional records
    before this chunk, so recency stamps are global) and ``final``
    (False while more chunks may follow: kernels then commit the state
    the next chunk resumes from).
    """

    __slots__ = ("arrays", "n_c", "out_bool", "out_u8", "seg_c", "switches",
                 "aggregate", "warmup", "track_per_site", "_pc_c",
                 "fires_base", "fires_end", "last_epoch", "cond_base", "final",
                 "segmentation_key")

    def __init__(self, trace: Trace, context_switches: Optional[ContextSwitchConfig],
                 track_per_site: bool, warmup_branches: int, *,
                 prev_epoch: Optional[int] = None, fires_base: int = 0,
                 cond_base: int = 0, final: bool = True) -> None:
        arrays = trace.as_arrays()
        self.arrays = arrays
        cond = arrays.cond_mask
        self.out_bool = arrays.taken[cond]
        self.out_u8 = self.out_bool.view(np.uint8)
        self.n_c = int(self.out_bool.shape[0])
        self.warmup = max(int(warmup_branches), 0)
        self.track_per_site = bool(track_per_site)
        self.aggregate = self.warmup == 0 and not self.track_per_site
        self._pc_c = None
        self.fires_base = int(fires_base)
        self.cond_base = int(cond_base)
        self.final = bool(final)
        # Everything ``seg_c`` depends on besides the trace itself: the
        # key under which segmentation-derived products are memoized.
        cs_part = None if context_switches is None else (
            context_switches.interval, context_switches.switch_on_traps)
        self.segmentation_key = (cs_part, prev_epoch, self.fires_base)
        if context_switches is None or len(arrays) == 0:
            self.switches = 0
            self.seg_c = np.full(self.n_c, self.fires_base, dtype=np.int64)
            self.fires_end = self.fires_base
            self.last_epoch = 0 if prev_epoch is None else int(prev_epoch)
            return
        instret = arrays.instret
        if np.any(instret[1:] < instret[:-1]):
            raise KernelUnavailable(
                "instret decreases within the trace; the vectorized "
                "context-switch model requires a non-decreasing clock"
            )
        boundary = np.empty(len(arrays), dtype=np.bool_)
        epoch = instret // context_switches.interval
        boundary[0] = epoch[0] > (0 if prev_epoch is None else prev_epoch)
        boundary[1:] = epoch[1:] > epoch[:-1]
        fires = boundary | arrays.trap if context_switches.switch_on_traps else boundary
        self.switches = int(np.count_nonzero(fires))
        fires_cum = np.cumsum(fires)
        self.seg_c = self.fires_base + fires_cum[cond]
        self.fires_end = self.fires_base + int(fires_cum[-1])
        self.last_epoch = int(epoch[-1])

    @property
    def pc_c(self) -> np.ndarray:
        if self._pc_c is None:
            self._pc_c = self.arrays.pc[self.arrays.cond_mask]
        return self._pc_c


class _Keyed:
    """State carried from one chunk to the next, keyed by a chunk-stable
    identity (a pattern-table key, a pc, a set or a BHT slot — never a
    chunk-local dense id): sorted unique int64 ``keys`` with parallel
    value ``cols``."""

    __slots__ = ("keys", "cols")

    def __init__(self, **dtypes) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self.cols = {name: np.empty(0, dtype=dtype) for name, dtype in dtypes.items()}

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def find(self, keys: np.ndarray):
        """``(found, pos)``: which ``keys`` are carried, and where."""
        pos = np.searchsorted(self.keys, keys)
        found = pos < self.keys.shape[0]
        found[found] = self.keys[pos[found]] == keys[found]
        return found, pos

    def commit(self, keys: np.ndarray, drop: Optional[np.ndarray] = None, **values) -> None:
        """Store ``values`` under the unique ``keys``, replacing carried
        entries; entries marked in ``drop`` are discarded first."""
        if drop is not None and drop.any():
            keep = ~drop
            self.keys = self.keys[keep]
            self.cols = {name: col[keep] for name, col in self.cols.items()}
        found, pos = self.find(keys)
        for name, col in self.cols.items():
            col[pos[found]] = values[name][found]
        if found.all():
            return
        new = ~found
        merged = np.concatenate([self.keys, keys[new]])
        order = np.argsort(merged, kind="stable")
        self.keys = merged[order]
        for name, col in self.cols.items():
            self.cols[name] = np.concatenate([col, values[name][new]])[order]


def _shifted_homes(homes: np.ndarray, k: int) -> np.ndarray:
    """``homes << k``: the table part of ``(home, pattern)`` store keys."""
    if homes.size and int(homes.max()) >> (62 - k):
        raise KernelUnavailable(
            f"site {int(homes.max()):#x} is too wide to key carried "
            f"{k}-bit pattern tables in int64"
        )
    return homes << k


def _member(values: np.ndarray, ascending: np.ndarray) -> np.ndarray:
    """``np.isin(values, ascending)`` for a sorted unique ``ascending``."""
    pos = np.minimum(np.searchsorted(ascending, values), ascending.shape[0] - 1)
    return ascending[pos] == values


def _pattern_store() -> _Keyed:
    """Carried pattern-table entries: an automaton state per key
    (absent keys are still in the automaton's initial state)."""
    return _Keyed(state=np.uint8)


def _carries(run: _Run, carried: _Keyed) -> bool:
    """Whether a chunk reads or writes carried state. A whole trace
    (one final chunk, nothing carried) does neither, so it runs exactly
    the single-pass code with no gather or scatter."""
    return len(carried) > 0 or not run.final


def _scan_runs(run: _Run, out_sorted: np.ndarray, grp_new: np.ndarray,
               ops: _AutomatonOps, store: Optional[_Keyed] = None, tables=None) -> _Runs:
    """The second-level pass: scan group-sorted outcomes, resuming every
    group from its carried pattern entry and committing the final
    states the next chunk resumes from.

    ``tables(starts)`` maps the group starts to ``(stable, inherit,
    keep, drop)``: each group's chunk-stable store key; which groups may
    resume a carried entry (None: all — False for a table reset inside
    the chunk); which groups' final states outlive the chunk (None:
    all); and a callable marking stored entries a reset discards (or
    None).
    """
    if store is None or not _carries(run, store):
        return _find_runs(out_sorted, grp_new, ops)
    starts = np.flatnonzero(grp_new)
    stable, inherit, keep, drop = tables(starts)
    group_init = None
    if len(store):
        found, pos = store.find(stable)
        if inherit is not None:
            found &= inherit
        group_init = np.full(out_sorted.shape[0], ops.init, dtype=np.uint8)
        group_init[starts[found]] = store.cols["state"][pos[found]]
    runs = _find_runs(out_sorted, grp_new, ops, group_init=group_init)
    if not run.final:
        finals = _group_final_states(runs, grp_new, ops)
        if keep is not None:
            stable, finals = stable[keep], finals[keep]
        store.commit(stable, drop=None if drop is None else drop(store), state=finals)
    return runs


def _shared_tables(stable_of):
    """``tables`` for pattern tables that are never reset: ``stable_of``
    maps group-start positions to their stable keys."""
    return lambda starts: (stable_of(starts), None, None, None)


def _group_final_states(runs: _Runs, grp_new: np.ndarray, ops: _AutomatonOps) -> np.ndarray:
    """Each group's automaton state after its last update, in group
    order (one value per True in ``grp_new``)."""
    grp_first_runs = grp_new[runs.first]
    nruns = runs.first.shape[0]
    last = np.empty(nruns, dtype=np.bool_)
    last[:-1] = grp_first_runs[1:]
    last[-1] = True
    idx = np.flatnonzero(last)
    codes = ops.pow_codes[runs.out[idx], runs.lcap[idx]]
    return ops.apply[codes, runs.state0[idx]]


def _scan_scheme(run: _Run, out_sorted: np.ndarray, grp_new: np.ndarray,
                 order: np.ndarray, ops: _AutomatonOps,
                 store: Optional[_Keyed] = None, tables=None):
    """Shared tail of every pattern-table scheme: scan, then either
    closed-form aggregate scoring or per-record expansion."""
    runs = _scan_runs(run, out_sorted, grp_new, ops, store, tables)
    if run.aggregate:
        return run.n_c - _runs_wrong_total(runs, ops)
    pred_sorted = _expand_run_preds(run.n_c, runs, ops)
    pred = np.empty(run.n_c, dtype=np.bool_)
    pred[order] = pred_sorted
    return pred


# ----------------------------------------------------------------------
# History registers
# ----------------------------------------------------------------------

class _Registers:
    """First-level history registers carried across chunks, keyed by a
    chunk-stable home: the set for SAg/SAs, the pc or BHT slot for the
    per-address schemes. Each entry keeps the
    occupant's ``pc``, its ``stamp`` (the global flush count at its last
    update: a later mismatch means a flush intervened), its ``last``
    update's global conditional index (LRU recency) and the register
    value after that update."""

    __slots__ = ("k", "mask", "keyed")

    def __init__(self, k: int) -> None:
        self.k = k
        self.mask = (1 << k) - 1
        self.keyed = _Keyed(pc=np.int64, stamp=np.int64, last=np.int64, reg=np.int64)

    def live(self, homes: np.ndarray, segs: np.ndarray):
        """``(live, pos)``: which ``homes`` hold a carried entry that no
        flush has invalidated by segment ``segs``."""
        found, pos = self.keyed.find(homes)
        found[found] = self.keyed.cols["stamp"][pos[found]] == segs[found]
        return found, pos

    def resumed(self, heads: np.ndarray, live: np.ndarray, pos: np.ndarray):
        """The ``(positions, registers)`` :func:`_register_patterns`
        splices in at the live heads."""
        return heads[live], self.keyed.cols["reg"][pos[live]]

    def save(self, run: _Run, order: Optional[np.ndarray], lasts: np.ndarray,
             homes: np.ndarray, pc_s: np.ndarray, seg_s: np.ndarray,
             patterns: np.ndarray, out_s: np.ndarray,
             fresh: Optional[np.ndarray] = None) -> None:
        """Commit each home's register after its last record ``lasts``
        (positions in a home-sorted order ``order`` over the chunk).

        The register after an update is the pre-update pattern shifted
        once — unless the update allocated a fresh per-address entry
        (``fresh``), which fills it with the outcome bit instead,
        mirroring ``history_fill`` in the sequential model.
        """
        out_last = out_s[lasts].astype(np.int64)
        reg = ((patterns[lasts].astype(np.int64) << 1) | out_last) & self.mask
        if fresh is not None:
            reg = np.where(fresh, -out_last & self.mask, reg)
        position = lasts if order is None else order[lasts]
        self.keyed.commit(
            homes, pc=pc_s[lasts], stamp=seg_s[lasts],
            last=run.cond_base + position.astype(np.int64), reg=reg,
        )


def _register_patterns(out_s: np.ndarray, bounds: np.ndarray, k: int,
                       fill: Optional[int], resumed=None) -> np.ndarray:
    """History-register contents before each home-sorted record.

    ``bounds`` marks where a register's record run starts: it was
    (re)initialised there, or resumes carried contents (``resumed``:
    those positions and their carried registers). A register holds the
    last ``min(d, k)`` outcomes of its run (``d`` = records since the
    run began) extended with ``fill`` — or, for per-address entries
    (``fill=None``), with the run's first outcome, the value a miss
    allocates, with the all-ones pattern read before the first update.
    A resumed run's first ``min(d, k)`` records see the carried bits
    above the window bits instead.
    """
    n = out_s.shape[0]
    mask = (1 << k) - 1
    ep_start = _start_indices(bounds)
    m = np.arange(n, dtype=np.int32) - ep_start
    fill_bits = np.int32(fill) if fill is not None else out_s[ep_start].astype(np.int32)
    carried = None
    if resumed is not None and resumed[0].size:
        reg_at = np.full(n, -1, dtype=np.int64)
        reg_at[resumed[0]] = resumed[1]
        carried = reg_at[ep_start]
    del ep_start  # not held through the window pass
    window = _outcome_window(out_s, k)
    patterns = _fill_extended(window, m, fill_bits, k)
    if fill is None:
        patterns[m == 0] = mask
    if carried is not None:
        sel = np.flatnonzero((carried >= 0) & (m < k))
        j = m[sel].astype(np.int64)
        low = window[sel].astype(np.int64) & ((np.int64(1) << j) - 1)
        patterns[sel] = ((carried[sel] << j) | low) & mask
    return patterns


def _head_marks(keys_s: np.ndarray) -> np.ndarray:
    """Marks of each key's first position in a key-sorted array."""
    new = np.empty(keys_s.shape[0], dtype=np.bool_)
    new[0] = True
    new[1:] = keys_s[1:] != keys_s[:-1]
    return new


def _last_positions(head_new: np.ndarray) -> np.ndarray:
    """Each key's last position, given its first-position marks."""
    last = np.empty(head_new.shape[0], dtype=np.bool_)
    last[:-1] = head_new[1:]
    last[-1] = True
    return np.flatnonzero(last)


# ----------------------------------------------------------------------
# Global-history schemes: GAg, GSg, gshare, GAp, gselect
# ----------------------------------------------------------------------

class _GlobalHistory:
    """The global history register, carried across chunks with the
    flush stamp of its last update (cf. :class:`_Registers`)."""

    __slots__ = ("k", "fill", "stamp", "reg")

    _HEAD = np.zeros(1, dtype=np.int64)

    def __init__(self, k: int, fill_taken: bool) -> None:
        self.k = k
        self.fill = 1 if fill_taken else 0
        self.stamp = None
        self.reg = 0

    def patterns(self, run: _Run) -> np.ndarray:
        """The GHR value before each conditional record of the chunk."""
        seg = run.seg_c
        resumed = None
        if self.stamp == int(seg[0]):
            resumed = (self._HEAD, np.array([self.reg], dtype=np.int64))
        ghr = _register_patterns(run.out_u8, _head_marks(seg), self.k, self.fill, resumed)
        if not run.final:
            self.stamp = int(seg[-1])
            self.reg = ((int(ghr[-1]) << 1) | int(run.out_u8[-1])) & ((1 << self.k) - 1)
        return ghr


class _GlobalScan:
    """GAg (keys: GHR), gshare (GHR xor pc), GAp (pc, GHR) and gselect
    (address bits, GHR): a carried GHR keying one carried pattern store.

    GAp sorts on dense site ids, which order exactly like the pcs they
    stand for, and stores under the pc."""

    __slots__ = ("ops", "k", "kind", "addr_mask", "hist", "store")

    def __init__(self, automaton: AutomatonSpec, k: int, kind: str,
                 addr_mask: int = 0) -> None:
        self.ops = _ops_for(automaton)
        self.k = k
        self.kind = kind
        self.addr_mask = addr_mask
        self.hist = _GlobalHistory(k, fill_taken=kind != "gshare")
        self.store = _pattern_store()

    def process(self, run: _Run):
        k = self.k
        ghr = self.hist.patterns(run)
        if self.kind == "gag":
            keys = ghr
            stable = ghr
        elif self.kind == "gshare":
            keys = stable = (ghr ^ run.pc_c) & ((1 << k) - 1)
        elif self.kind == "gselect":
            keys = stable = ((run.pc_c & self.addr_mask) << k) | ghr
        else:
            sites, ids = run.arrays.conditional_site_ids()
            keys = (ids << k) | ghr
            stable = None
        order, grp_new = _group_sort(keys)

        def stable_of(starts):
            at = order[starts]
            if stable is None:
                return _shifted_homes(sites[ids[at]], k) | ghr[at]
            return stable[at].astype(np.int64)

        return _scan_scheme(run, run.out_u8[order], grp_new, order, self.ops,
                            self.store, _shared_tables(stable_of))


class _GSg:
    """GSg: preset bits read under the carried GHR."""

    __slots__ = ("bits", "hist")

    def __init__(self, predictor: GSgPredictor) -> None:
        self.bits = np.asarray(predictor.table.bits_snapshot(), dtype=np.bool_)
        self.hist = _GlobalHistory(predictor.history_bits, fill_taken=True)

    def process(self, run: _Run):
        return self.bits[self.hist.patterns(run)]


# ----------------------------------------------------------------------
# Per-address first level: PAg, PSg, PAp, BTB
# ----------------------------------------------------------------------

class _Layout:
    """Conditional records regrouped by BHT residency.

    ``order`` stable-sorts conditional records by *slot* — the dense pc
    id for the ideal BHT, the set index for direct-mapped tables, set x
    associativity + way for set-associative ones — which is exactly
    (slot, time) order; ``home_s`` is each sorted record's chunk-stable
    slot key (the pc for the ideal BHT). ``blk_new`` marks each slot's
    first record. An *episode* is one entry's tenure: ``ep_new`` marks
    the records that allocate a fresh entry (a flush, a BHT miss or,
    for direct-mapped tables, a different branch claiming the set), and
    ``evict`` the allocations that displace a still-valid occupant. A
    slot's first record in a chunk that allocates nothing resumes the
    entry carried from the previous chunk: ``bounds`` (= ``ep_new |
    blk_new``) starts a record run at every episode and every slot,
    and ``resumed`` names the resuming positions and carried registers.
    """

    __slots__ = ("order", "home_s", "pc_s", "seg_s", "out_s", "ep_new",
                 "blk_new", "evict", "bounds", "resumed")

    def __init__(self, order, home_s, pc_s, seg_s, out_s, ep_new, blk_new,
                 evict, bounds, resumed) -> None:
        self.order = order
        self.home_s = home_s
        self.pc_s = pc_s
        self.seg_s = seg_s
        self.out_s = out_s
        self.ep_new = ep_new
        self.blk_new = blk_new
        self.evict = evict
        self.bounds = bounds
        self.resumed = resumed


def _pa_layout(run: _Run, bht, regs: _Registers) -> _Layout:
    """The chunk's :class:`_Layout`, resuming the entries in ``regs``."""
    if isinstance(bht, CacheBHT) and bht.associativity > 1:
        return _assoc_layout(run, bht, regs)
    n = run.n_c
    carry = _carries(run, regs.keyed)
    if isinstance(bht, IdealBHT):
        # Dense site ids sort like the pcs they stand for; a carrying
        # chunk sorts the pcs themselves, which it needs as homes.
        keys = run.pc_c if carry else run.arrays.conditional_site_ids()[1]
        direct = False
    else:
        keys = run.pc_c % bht.num_sets
        direct = True
    order = _stable_argsort(keys)
    key_s = keys[order]
    seg_s = run.seg_c[order]
    out_s = run.out_u8[order]
    blk_new = _head_marks(key_s)
    seg_chg = _head_marks(seg_s) | blk_new
    pc_s = run.pc_c[order] if direct or carry else None
    if direct:
        pc_chg = _head_marks(pc_s)
        ep_new = seg_chg | pc_chg
        evict = pc_chg & ~seg_chg
    else:
        ep_new = seg_chg
        evict = np.zeros(n, dtype=np.bool_)
    bounds = ep_new
    home_s = resumed = None
    if carry:
        home_s = key_s if direct else pc_s
        if len(regs.keyed):
            heads = np.flatnonzero(blk_new)
            live, pos = regs.live(home_s[heads], seg_s[heads])
            if direct:
                same = regs.keyed.cols["pc"][pos[live]] == pc_s[heads[live]]
                evict[heads[live][~same]] = True
                live[live] = same
            resumed = regs.resumed(heads, live, pos)
            if resumed[0].size:
                ep_new = ep_new.copy()
                ep_new[resumed[0]] = False
    # Only a carrying chunk commits entries; a whole trace lets the
    # per-record pc and segment arrays go before the pattern pass.
    return _Layout(order, home_s, pc_s if carry else None, seg_s if carry else None,
                   out_s, ep_new, blk_new, evict, bounds, resumed)


def _pa_patterns(run: _Run, layout: _Layout, regs: _Registers, k: int) -> np.ndarray:
    """Per-address history-register contents before each record, in
    layout order, committing each slot's register for the next chunk.

    The register fills with the episode's first outcome on the first
    update and shifts afterwards, so before occurrence ``m >= 1`` it
    holds the last ``min(m, k)`` episode outcomes extended with the
    first outcome; before occurrence 0 the predictors read the all-ones
    pattern a miss would be allocated with.
    """
    patterns = _register_patterns(layout.out_s, layout.bounds, k, None, layout.resumed)
    if not run.final:
        _save_entries(run, layout, regs, patterns)
    return patterns


def _save_entries(run: _Run, layout: _Layout, regs: _Registers,
                  patterns: Optional[np.ndarray]) -> None:
    """Commit each slot's occupant, flush stamp, recency and register."""
    lasts = _last_positions(layout.blk_new)
    if patterns is None:
        patterns = np.zeros(layout.out_s.shape[0], dtype=np.int32)
    regs.save(run, layout.order, lasts, layout.home_s[lasts], layout.pc_s,
              layout.seg_s, patterns, layout.out_s, fresh=layout.ep_new[lasts])


def _lru_metadata(run: _Run, bht: CacheBHT, order1: np.ndarray, seed=None):
    """Replay every set's LRU way array over the (set, time)-sorted
    conditional records.

    Returns per-record arrays in ``order1`` order: ``miss`` (the access
    allocated its entry), ``evict`` (the allocation displaced a valid
    occupant), and ``way`` (the physical way the record's entry lives
    in). The model mirrors :meth:`repro.core.history.CacheBHT.access`
    exactly: hits refresh recency, misses claim the first invalid way by
    index (else the true-LRU victim), and a flush invalidates every way
    while keeping its tag and recency — only ``access`` ticks the clock,
    so recency order is conditional-record order.

    Consecutive records of one set with the same tag and segment
    collapse into a single *event* (everything after the first is a
    guaranteed hit on the way just touched, and only the last touch's
    recency survives). Events partition into *epochs* — one set's
    tenure between flushes — and epochs are independent: a flush
    invalidates every way, allocations claim invalid ways by index
    before consulting recency, and hits require validity, so neither
    the retained tags nor the pre-flush recency can ever influence a
    later epoch. Each epoch therefore behaves as a fully associative
    true-LRU stack of depth ``associativity`` that starts empty.

    Within an epoch that touches at most ``associativity`` distinct
    branches nothing is ever displaced: every first touch allocates the
    next invalid way (fill order), every later touch hits, and
    ``evict`` never fires. That is the common case for the paper's
    geometries with context switches (hundreds of sets, a handful of
    resident branches each) and is computed with pure array passes
    below. Epochs with more distinct branches than ways — *contended*
    epochs, where LRU replacement decides — are resolved all at once by
    :func:`_contended_lru`, an array form of Mattson et al.'s LRU stack
    distance (IBM Sys. J. 1970):

    * **Stack-distance rule.** A touch whose tag was last touched at
      event ``p`` of the same epoch hits iff fewer than
      ``associativity`` distinct tags were touched strictly between
      ``p`` and it; a first touch in the epoch always misses.
    * **Victim rule.** A miss evicts iff the epoch has already seen at
      least ``associativity`` distinct tags (every way is then valid).
      The victim is the least recent resident: the tag whose last touch
      is the ``associativity``-th most recent among the distinct tags
      touched before the miss.
    * **Ways.** The ``d``-th distinct tag of an epoch fills way ``d``
      while ``d < associativity``; a hit stays in its previous touch's
      way, and an evicting miss takes over its victim's way.

    The result is a pure function of the trace, the geometry and the
    run's flush segmentation; :func:`_bht_residency` memoizes it on the
    trace's arrays so every consumer of one key shares a single pass.

    A chunk of a stream enters with residents carried from the previous
    chunk: ``seed`` = ``(set, tag, seg, way)`` of each resident still
    valid at its set's first record, in (set, recency) order. They
    replay as leading pseudo-records of their sets, least recent first,
    so the stack distances see them exactly as the sequential table
    would. Valid ways are always a prefix ``0..r-1`` of a set's ways
    (allocation claims the lowest invalid way, and a flush invalidates
    every way at once), so the pseudo-records fill ways ``0..r-1`` in
    recency order and a permutation of those fills relabels the
    resumed epoch to the carried ways.
    """
    assoc = bht.associativity
    set_s = (run.pc_c % bht.num_sets)[order1]
    tag_s = (run.pc_c // bht.num_sets)[order1]
    seg_s = run.seg_c[order1]
    if seed is not None:
        n_seed = seed[0].shape[0]
        merged = _stable_argsort(np.concatenate([seed[0], set_s]))
        set_s, tag_s, seg_s = (
            np.concatenate([carried, real])[merged]
            for carried, real in zip(seed[:3], (set_s, tag_s, seg_s))
        )
        pseudo = merged < n_seed
    ev_new, ev_tag, ep_new = _lru_events(set_s, tag_s, seg_s)
    n = set_s.shape[0]
    del set_s, tag_s, seg_s  # 24 bytes per record: not held through the pass
    n_ev = ev_tag.shape[0]
    ep_id = np.cumsum(ep_new, dtype=np.int64) - 1
    n_ep = int(ep_id[-1]) + 1

    # First touch of each (epoch, tag) group: a stable sort by tag then
    # by (already monotone) epoch puts each group's events in time
    # order with the first touch leading. Epochs never span sets, so
    # tag alone identifies the branch within a group.
    by_tag = _stable_argsort(ev_tag)
    gorder = by_tag[_stable_argsort(ep_id[by_tag])]
    g_ep = ep_id[gorder]
    g_tag = ev_tag[gorder]
    gnew = np.empty(n_ev, dtype=np.bool_)
    gnew[0] = True
    gnew[1:] = (g_ep[1:] != g_ep[:-1]) | (g_tag[1:] != g_tag[:-1])
    is_first = np.zeros(n_ev, dtype=np.bool_)
    is_first[gorder[gnew]] = True

    ev_miss = is_first.copy()
    ev_evict = np.zeros(n_ev, dtype=np.bool_)
    # Fill order: the d-th distinct branch of an epoch lands in way d,
    # and every later touch of the group stays there.
    touched = np.cumsum(is_first)  # inclusive count of first touches
    fill = touched - touched[_start_indices(ep_new)]  # epoch starts are first touches
    g_fill = fill[gorder]
    ev_way = np.empty(n_ev, dtype=np.int64)
    ev_way[gorder] = g_fill[_start_indices(gnew)]

    distinct = np.bincount(ep_id[is_first], minlength=n_ep)
    contended = distinct > assoc
    if np.any(contended):
        in_c = contended[ep_id]
        ep_len = np.diff(np.append(np.flatnonzero(ep_new), n_ev))[contended]
        ev_miss[in_c], ev_evict[in_c], ev_way[in_c] = _contended_epochs(
            in_c, contended[g_ep], gorder, gnew, fill[in_c], ep_len, assoc
        )

    # Expand events back to records: miss/evict fire only on an event's
    # first record; every record inherits its event's way.
    ev_first = np.flatnonzero(ev_new)
    miss_r = np.zeros(n, dtype=np.bool_)
    evict_r = np.zeros(n, dtype=np.bool_)
    miss_r[ev_first] = ev_miss
    evict_r[ev_first] = ev_evict
    ev_of = np.cumsum(ev_new) - 1
    way_r = ev_way[ev_of]
    if seed is None:
        return miss_r, evict_r, way_r
    real = ~pseudo
    if n_seed:
        # Relabel each resumed epoch's fills 0..r-1 to the carried ways
        # (pseudo-records run in epoch order).
        rec_ep = ep_id[ev_of]
        seed_ep = rec_ep[pseudo]
        seeded = seed_ep[_head_marks(seed_ep)]
        perm = np.tile(np.arange(assoc, dtype=np.int64), (seeded.shape[0], 1))
        perm[np.searchsorted(seeded, seed_ep), way_r[pseudo]] = seed[3][merged[pseudo]]
        row = np.minimum(np.searchsorted(seeded, rec_ep), seeded.shape[0] - 1)
        resumed = np.flatnonzero(seeded[row] == rec_ep)
        way_r[resumed] = perm[row[resumed], way_r[resumed]]
    return miss_r[real], evict_r[real], way_r[real]


def _lru_events(set_s: np.ndarray, tag_s: np.ndarray, seg_s: np.ndarray):
    """Collapse the (set, time)-sorted records into LRU events.

    Returns ``ev_new`` (per sorted record: it opens an event), and per
    event its tag and ``ep_new`` (it opens an epoch: a new set, or a
    segment change within the set).
    """
    set_chg = _head_marks(set_s)
    ev_new = set_chg.copy()
    ev_new[1:] |= (tag_s[1:] != tag_s[:-1]) | (seg_s[1:] != seg_s[:-1])
    ev_first = np.flatnonzero(ev_new)
    ev_seg = seg_s[ev_first]
    ep_new = set_chg[ev_first]
    ep_new[1:] |= ev_seg[1:] != ev_seg[:-1]
    return ev_new, tag_s[ev_first], ep_new


#: Contended events per :func:`_contended_lru` call. Its range tables
#: take 4 bytes per event per level, so batching whole epochs keeps the
#: transient memory at a few MiB however long the trace is.
_LRU_BATCH_EVENTS = 1 << 16


def _contended_epochs(in_c, keep, gorder, gnew, fill, ep_len, assoc: int):
    """``(miss, evict, way)`` for the events of the contended epochs.

    ``in_c`` marks those events, ``keep`` the same events in the
    (epoch, tag, time) group order ``gorder`` / ``gnew``; ``fill`` and
    ``ep_len`` are their fill counts and their epochs' event counts.
    Contended epochs are whole runs of events, so compacting them keeps
    every epoch contiguous and in time order, and the group order
    restricted to them links each touch to the previous and next touch
    of its tag within the epoch.
    """
    n_c_ev = int(ep_len.sum())
    cpos = np.cumsum(in_c, dtype=np.int32) - np.int32(1)
    linked = cpos[gorder[keep]]
    link = ~gnew[keep][1:]
    prev = np.full(n_c_ev, -1, dtype=np.int32)
    prev[linked[1:][link]] = linked[:-1][link]
    nxt = np.full(n_c_ev, n_c_ev, dtype=np.int32)
    nxt[linked[:-1][link]] = linked[1:][link]
    miss = np.empty(n_c_ev, dtype=np.bool_)
    evict = np.empty(n_c_ev, dtype=np.bool_)
    way = np.empty(n_c_ev, dtype=np.int64)
    for lo, hi, longest in _epoch_batches(ep_len, _LRU_BATCH_EVENTS):
        # Links never leave their epoch, so a batch of whole epochs
        # rebases them by its offset; "no previous touch" stays
        # negative and "no next touch" stays past the batch's end.
        base = np.int32(lo)
        miss[lo:hi], evict[lo:hi], way[lo:hi] = _contended_lru(
            prev[lo:hi] - base, nxt[lo:hi] - base, fill[lo:hi], assoc, longest
        )
    return miss, evict, way


def _epoch_batches(lengths: np.ndarray, budget: int):
    """``(lo, hi, longest)`` runs of consecutive whole epochs (given
    their event counts) holding at most ``budget`` events each, or a
    single epoch when one alone exceeds it."""
    ends = np.cumsum(lengths)
    lo = first = 0
    while first < lengths.shape[0]:
        last = max(int(np.searchsorted(ends, lo + budget, side="right")), first + 1)
        hi = int(ends[last - 1])
        yield lo, hi, int(lengths[first:last].max())
        lo, first = hi, last


def _sparse_table(values: np.ndarray, levels: int, combine) -> list:
    """``table[j][i]`` = ``combine`` over ``values[i : i + 2**j]``
    (truncated at the end of the array), for ``j < levels``."""
    table = [values]
    for j in range(1, levels):
        below = table[-1]
        half = 1 << (j - 1)
        level = below.copy()
        combine(below[:-half], below[half:], out=level[:-half])
        table.append(level)
    return table


def _seek_forward(min_table: list, pos: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """For each lane, the first index ``>= pos`` whose value is
    ``<= bound``, by binary lifting over a range-min table. Exact when
    the answer lies within ``2**levels - 1`` of ``pos``."""
    size = min_table[0].shape[0]
    for j in range(len(min_table) - 1, -1, -1):
        skip = (pos < size) & (min_table[j][np.minimum(pos, size - 1)] > bound)
        pos = pos + (skip.astype(pos.dtype) << j)
    return pos


def _seek_backward(max_table: list, pos: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """For each lane, the last index ``<= pos`` whose value is
    ``>= bound``, by binary lifting over a range-max table. Exact when
    the answer exists within ``2**levels - 1`` below ``pos``."""
    for j in range(len(max_table) - 1, -1, -1):
        low = pos - (1 << j) + 1
        skip = (low >= 0) & (max_table[j][np.maximum(low, 0)] < bound)
        pos = pos - (skip.astype(pos.dtype) << j)
    return pos


def _contended_lru(prev: np.ndarray, nxt: np.ndarray, fill: np.ndarray,
                   assoc: int, longest: int):
    """``(miss, evict, way)`` per event of the contended epochs.

    ``prev`` / ``nxt`` hold, per event, the index of the previous / next
    touch of the same tag in its epoch (negative / at least
    ``len(prev)`` when there is none), ``fill`` the number of distinct tags other than its
    own the epoch touched before the event, and ``longest`` the longest
    epoch in events, which bounds every search below.

    Distinct tags strictly between a touch ``t`` and its previous touch
    ``p`` are the positions ``q`` in ``(p, t)`` with ``prev[q] <= p``
    (each tag's first touch in the window). ``t`` itself and ``p + 1``
    always qualify, so ``t`` hits iff the ``assoc``-th qualifying
    position after ``p`` is ``t`` — ``assoc - 1`` forward searches from
    ``p + 1``. Symmetrically, the tags resident just before an evicting
    miss ``t`` are the last touches ``q < t`` with ``nxt[q] >= t``;
    ``t - 1`` always qualifies, and the victim is the ``assoc``-th of
    them counting back — ``assoc - 1`` backward searches.
    """
    size = prev.shape[0]
    levels = max(int(longest - 1).bit_length(), 1)
    event = np.arange(size, dtype=np.int64)
    miss = prev < 0
    # Fewer than assoc events between two touches cannot hold assoc
    # distinct tags: only wider gaps need the search.
    has_prev = np.flatnonzero(~miss)
    gap = has_prev - prev[has_prev] - 1
    lane = has_prev[gap >= assoc]
    if lane.size:
        bound = prev[lane].astype(np.int64)
        pos = bound + 1
        min_table = _sparse_table(prev, levels, np.minimum)
        for _ in range(assoc - 1):
            pos = _seek_forward(min_table, pos + 1, bound)
            open_ = pos < lane
            lane, bound, pos = lane[open_], bound[open_], pos[open_]
            if not lane.size:
                break
        del min_table
        miss[lane] = True
    evict = miss & (fill >= assoc)

    source = event.copy()
    hit = ~miss
    source[hit] = prev[hit]
    victims = np.flatnonzero(evict)
    if victims.size:
        max_table = _sparse_table(nxt, levels, np.maximum)
        pos = victims - 1
        for _ in range(assoc - 1):
            pos = _seek_backward(max_table, pos - 1, victims)
        del max_table
        source[victims] = pos
    # Every chain of (hit -> previous touch, eviction -> victim touch)
    # ends at one of the epoch's first assoc fills; pointer jumping
    # finds it in a logarithmic number of passes.
    open_ = np.flatnonzero(source != event)
    while open_.size:
        source[open_] = source[source[open_]]
        open_ = open_[source[source[open_]] != source[open_]]
    return miss, evict, fill[source]


def _bht_residency(run: _Run, bht: CacheBHT, regs: Optional[_Registers] = None):
    """:func:`_lru_metadata` for ``run`` in conditional-record order,
    memoized on the trace.

    Residency is a pure function of the trace, the BHT geometry and the
    run's flush segmentation (context-switch model plus the streaming
    ``prev_epoch`` / ``fires_base`` offsets), so every PAg, PSg, PAp
    and BTB cell over one key shares a single LRU pass. The memo packs
    each conditional record into one byte (for up to 64 ways): the way
    in the low bits, then a miss bit and an evict bit. The (set, time)
    radix sort the pass runs on is cheap and is not kept.

    A chunk that enters with carried entries (non-empty ``regs``)
    depends on them too, so it neither reads nor writes the memo: only
    chunks with nothing carried — a whole trace, or a stream's first
    chunk — share it.

    Returns ``(packed, width)``: the packed array and the number of way
    bits below the miss bit.
    """
    assoc = bht.associativity
    width = (assoc - 1).bit_length()
    key = ("bht-residency", bht.num_sets, assoc) + run.segmentation_key
    seeded = regs is not None and len(regs.keyed) > 0

    def build() -> np.ndarray:
        order1 = _stable_argsort(run.pc_c % bht.num_sets)
        if seeded:
            seed = _lru_seed(run, bht, regs, order1)
            miss, evict, way = _lru_metadata(run, bht, order1, seed)
        else:
            miss, evict, way = _lru_metadata(run, bht, order1)
        dtype = np.min_scalar_type((1 << (width + 2)) - 1)
        packed_s = way.astype(dtype)
        packed_s |= miss.astype(dtype) << dtype.type(width)
        packed_s |= evict.astype(dtype) << dtype.type(width + 1)
        packed = np.empty_like(packed_s)
        packed[order1] = packed_s
        return packed

    if seeded:
        return build(), width
    return run.arrays.derived(key, build), width


def _lru_seed(run: _Run, bht: CacheBHT, regs: _Registers, order1: np.ndarray):
    """The carried residents of the chunk's sets that no flush has
    invalidated by the set's first record (``order1`` sorts the chunk
    by set), as :func:`_lru_metadata`'s ``(set, tag, seg, way)`` seed
    in (set, recency) order. Invalidated residents would replay in an
    epoch of their own and change nothing; leaving them out keeps the
    pass small."""
    assoc = bht.associativity
    keyed = regs.keyed
    set_s = (run.pc_c % bht.num_sets)[order1]
    first = _head_marks(set_s)
    sets = set_s[first]
    c_set = keyed.keys // assoc
    at = np.minimum(np.searchsorted(sets, c_set), sets.shape[0] - 1)
    valid = (sets[at] == c_set) & (keyed.cols["stamp"] == run.seg_c[order1[first]][at])
    sel = np.flatnonzero(valid)
    sel = sel[np.lexsort((keyed.cols["last"][sel], c_set[sel]))]
    return (c_set[sel], keyed.cols["pc"][sel] // bht.num_sets,
            keyed.cols["stamp"][sel], keyed.keys[sel] % assoc)


def _assoc_layout(run: _Run, bht: CacheBHT, regs: _Registers) -> _Layout:
    """The :class:`_Layout` for a set-associative :class:`CacheBHT`.

    Records regroup by *physical slot* (set x associativity + way) —
    the unit PAp hangs a pattern table off — with episodes opened by
    every BHT miss (an allocation reinitialises the entry, and every
    post-flush access misses, so miss marks subsume flush boundaries).
    A slot's first record in a chunk that hits resumes the carried
    resident of that slot.
    """
    carry = _carries(run, regs.keyed)
    packed, width = _bht_residency(run, bht, regs)
    dtype = np.min_scalar_type(bht.num_entries - 1)
    slot = (run.pc_c % bht.num_sets).astype(dtype)
    slot *= dtype.type(bht.associativity)
    slot += packed & ((1 << width) - 1)
    # A stable slot sort yields (slot, time) order.
    order = _stable_argsort(slot)
    packed_s = packed[order]
    out_s = run.out_u8[order]
    ep_new = ((packed_s >> width) & 1).astype(np.bool_)
    evict = (packed_s >> (width + 1)).astype(np.bool_)
    slot_s = slot[order]
    blk_new = _head_marks(slot_s)
    bounds = ep_new
    home_s = pc_s = seg_s = resumed = None
    if carry:
        bounds = ep_new | blk_new
        home_s = slot_s.astype(np.int64)
        pc_s = run.pc_c[order]
        seg_s = run.seg_c[order]
        if len(regs.keyed):
            heads = np.flatnonzero(blk_new & ~ep_new)
            _found, pos = regs.keyed.find(home_s[heads])
            resumed = (heads, regs.keyed.cols["reg"][pos])
    return _Layout(order, home_s, pc_s, seg_s, out_s, ep_new, blk_new, evict,
                   bounds, resumed)


class _PAg:
    """PAg: carried per-address registers keying one carried PHT."""

    __slots__ = ("ops", "k", "bht", "regs", "store")

    def __init__(self, predictor: PAgPredictor) -> None:
        self.ops = _ops_for(predictor.automaton)
        self.k = predictor.history_bits
        self.bht = predictor.bht
        self.regs = _Registers(self.k)
        self.store = _pattern_store()

    def process(self, run: _Run):
        layout = _pa_layout(run, self.bht, self.regs)
        patterns = np.empty(run.n_c, dtype=np.int32)
        patterns[layout.order] = _pa_patterns(run, layout, self.regs, self.k)
        order, grp_new = _group_sort(patterns)
        return _scan_scheme(
            run, run.out_u8[order], grp_new, order, self.ops, self.store,
            _shared_tables(lambda starts: patterns[order[starts]].astype(np.int64)),
        )


class _PSg:
    """PSg: carried per-address registers reading preset bits."""

    __slots__ = ("bits", "k", "bht", "regs")

    def __init__(self, predictor: PSgPredictor) -> None:
        self.bits = np.asarray(predictor.table.bits_snapshot(), dtype=np.bool_)
        self.k = predictor.history_bits
        self.bht = predictor.bht
        self.regs = _Registers(self.k)

    def process(self, run: _Run):
        layout = _pa_layout(run, self.bht, self.regs)
        pred = np.empty(run.n_c, dtype=np.bool_)
        pred[layout.order] = self.bits[_pa_patterns(run, layout, self.regs, self.k)]
        return pred


class _PAp:
    """PAp: carried per-address registers, each slot keying its own
    carried pattern table (stored under (slot, pattern))."""

    __slots__ = ("ops", "k", "bht", "reset_on_evict", "regs", "store")

    def __init__(self, predictor: PApPredictor) -> None:
        self.ops = _ops_for(predictor.automaton)
        self.k = predictor.history_bits
        self.bht = predictor.bht
        self.reset_on_evict = predictor.config.reset_pht_on_evict
        self.regs = _Registers(self.k)
        self.store = _pattern_store()

    def process(self, run: _Run):
        k = self.k
        layout = _pa_layout(run, self.bht, self.regs)
        patterns_s = _pa_patterns(run, layout, self.regs, k)
        if isinstance(self.bht, IdealBHT):
            # Every (segment, branch) episode opens a brand-new slot
            # whose pattern table materialises in the initial state.
            table_new = layout.bounds
            fresh = layout.ep_new
        elif self.reset_on_evict:
            # A slot's table is reinitialised when a valid occupant is
            # displaced; flushes invalidate without resetting tables.
            table_new = layout.blk_new | layout.evict
            fresh = layout.evict
        else:
            table_new = layout.blk_new
            fresh = None
        table_id = np.cumsum(table_new) - 1
        # Sorting by (table, pattern) from the site-sorted order keeps
        # time order inside each group (a table's records live within
        # one site block, where this order is already chronological).
        keys = (table_id << k) | patterns_s
        order2, grp_new = _group_sort(keys)

        def tables(starts):
            first = np.flatnonzero(table_new)
            home = layout.home_s[first]
            last = np.append(layout.blk_new[first[1:]], True)
            at = order2[starts]
            table = table_id[at]
            stable = _shifted_homes(home[table], k) | patterns_s[at]
            if fresh is None:
                return stable, None, last[table], None
            reset = fresh[first]
            dead = home[last & reset]  # ascending, like the slots
            drop = (lambda store: _member(store.keys >> k, dead)) if dead.size else None
            return stable, ~reset[table], last[table], drop

        return _scan_scheme(run, layout.out_s[order2], grp_new, layout.order[order2],
                            self.ops, self.store, tables)


class _BTB:
    """BTB: each entry's automaton, carried per slot."""

    __slots__ = ("ops", "bht", "regs", "store")

    def __init__(self, predictor: BTBPredictor) -> None:
        self.ops = _ops_for(predictor.automaton)
        self.bht = predictor.bht
        self.regs = _Registers(0)
        self.store = _pattern_store()

    def process(self, run: _Run):
        layout = _pa_layout(run, self.bht, self.regs)
        if not run.final:
            _save_entries(run, layout, self.regs, None)

        def tables(starts):
            last = np.append(layout.blk_new[starts[1:]], True)
            return layout.home_s[starts], ~layout.ep_new[starts], last, None

        return _scan_scheme(run, layout.out_s, layout.bounds, layout.order,
                            self.ops, self.store, tables)


# ----------------------------------------------------------------------
# Per-set first level: SAg, SAs
# ----------------------------------------------------------------------

class _PerSet:
    """SAg (one shared PHT) and SAs (one PHT per set).

    Registers are untagged — selected by an address field, never fresh —
    so their contents are simply the last ``min(d, k)`` outcomes of the
    (set, segment) episode extended with the all-ones initialisation the
    registers (re)start from (``d`` = records since the segment began in
    that set). No miss protocol: the first access after (re)init reads
    the all-ones pattern and shifts normally afterwards.
    """

    __slots__ = ("ops", "k", "num_sets", "per_set_tables", "regs", "store")

    def __init__(self, automaton: AutomatonSpec, k: int, num_sets: int,
                 per_set_tables: bool) -> None:
        self.ops = _ops_for(automaton)
        self.k = k
        self.num_sets = num_sets
        self.per_set_tables = per_set_tables
        self.regs = _Registers(k)
        self.store = _pattern_store()

    def _patterns(self, run: _Run):
        """``(order1, set_s, out_s, patterns_s)``: the set-sorted order,
        sets, outcomes and register contents, committing each set's
        register for the next chunk."""
        k = self.k
        regs = self.regs
        sets = (run.pc_c >> 2) % self.num_sets
        order1 = _stable_argsort(sets)
        set_s = sets[order1]
        seg_s = run.seg_c[order1]
        out_s = run.out_u8[order1]
        set_new = _head_marks(set_s)
        bounds = set_new.copy()
        bounds[1:] |= seg_s[1:] != seg_s[:-1]
        resumed = None
        if len(regs.keyed):
            heads = np.flatnonzero(set_new)
            live, pos = regs.live(set_s[heads].astype(np.int64), seg_s[heads])
            resumed = regs.resumed(heads, live, pos)
        patterns_s = _register_patterns(out_s, bounds, k, 1, resumed)
        if not run.final:
            lasts = _last_positions(set_new)
            regs.save(run, order1, lasts, set_s[lasts].astype(np.int64),
                      run.pc_c[order1], seg_s, patterns_s, out_s)
        return order1, set_s, out_s, patterns_s

    def process(self, run: _Run):
        k = self.k
        order1, set_s, out_s, patterns_s = self._patterns(run)
        if self.per_set_tables:
            # (set, pattern) keys from the set-sorted order keep time
            # order inside each per-set table group (cf. PAp).
            keys = (set_s.astype(np.int64) << k) | patterns_s
            order2, grp_new = _group_sort(keys)
            return _scan_scheme(run, out_s[order2], grp_new, order1[order2],
                                self.ops, self.store,
                                _shared_tables(lambda starts: keys[order2[starts]]))
        patterns = np.empty(run.n_c, dtype=np.int32)
        patterns[order1] = patterns_s
        order, grp_new = _group_sort(patterns)
        return _scan_scheme(
            run, run.out_u8[order], grp_new, order, self.ops, self.store,
            _shared_tables(lambda starts: patterns[order[starts]].astype(np.int64)),
        )


# ----------------------------------------------------------------------
# Hybrid schemes: tournament
# ----------------------------------------------------------------------

CHOOSER_AUTOMATON = saturating_counter(2, initial=1)
"""The tournament chooser as an automaton: a 2-bit saturating counter
started weakly favouring the first component, stepped toward whichever
component was correct (input = "second component was right"), predicting
"use the second component" in its upper half. Exported so the
``repro.check.kernels`` prover can verify its packed encoding alongside
the paper automata."""


def _per_record_preds(kernel, run: _Run) -> np.ndarray:
    """Run a component kernel forcing per-record predictions (the
    tournament needs both components' guesses even when the outer run
    could aggregate)."""
    saved = run.aggregate
    run.aggregate = False
    try:
        return kernel.process(run)
    finally:
        run.aggregate = saved


class _Tournament:
    """Both component kernels, arbitrated by choosers carried in a
    store keyed by ``pc & chooser_mask``."""

    __slots__ = ("first", "second", "ops", "cmask", "store")

    def __init__(self, predictor: TournamentPredictor, first, second) -> None:
        self.first = first
        self.second = second
        self.ops = _ops_for(CHOOSER_AUTOMATON)
        self.cmask = predictor.chooser_mask
        self.store = _pattern_store()

    def process(self, run: _Run):
        p1 = _per_record_preds(self.first, run)
        p2 = _per_record_preds(self.second, run)
        pred = p1.copy()
        d = np.flatnonzero(p1 != p2)
        if d.size:
            # Choosers step only on disagreement, keyed by pc, and are
            # never flushed — one scan over the disagreement records
            # with input "second component was correct" yields each
            # record's pre-update chooser verdict.
            second_correct = p2[d] == run.out_bool[d]
            keys = run.pc_c[d] & self.cmask
            order, grp_new = _group_sort(keys)
            runs = _scan_runs(run, second_correct.view(np.uint8)[order], grp_new,
                              self.ops, self.store,
                              _shared_tables(lambda starts: keys[order[starts]]))
            use_second = np.empty(d.size, dtype=np.bool_)
            use_second[order] = _expand_run_preds(d.size, runs, self.ops)
            pred[d] = np.where(use_second, p2[d], p1[d])
        return pred


# ----------------------------------------------------------------------
# Static schemes
# ----------------------------------------------------------------------

class _Stateless:
    """A per-record function of the chunk (no carried state)."""

    __slots__ = ("process",)

    def __init__(self, process) -> None:
        self.process = process


def _kernel_constant(direction: bool) -> _Stateless:
    return _Stateless(lambda run: np.full(run.n_c, direction, dtype=np.bool_))


def _kernel_btfn(predictor: BTFN) -> _Stateless:
    unknown = predictor.unknown_direction

    def process(run: _Run):
        target_c = run.arrays.target[run.arrays.cond_mask]
        return np.where(target_c == 0, unknown, target_c < run.pc_c)

    return _Stateless(process)


def _kernel_profile(predictor: ProfileGuided) -> _Stateless:
    directions = predictor.directions_snapshot()
    default = predictor.default_direction

    def process(run: _Run):
        sites, ids = run.arrays.conditional_site_ids()
        site_dirs = np.fromiter(
            (directions.get(int(site), default) for site in sites),
            dtype=np.bool_,
            count=sites.shape[0],
        )
        return site_dirs[ids]

    return _Stateless(process)


# ----------------------------------------------------------------------
# Dispatch + public API
# ----------------------------------------------------------------------

def _kernel_for(predictor):
    """A fresh kernel object for ``predictor`` (``process(run)`` scores
    one chunk, carrying state to the next), or None when unsupported.

    Dispatch is on the *exact* type: a subclass may override predict or
    update semantics the kernels hard-code.
    """
    kind = type(predictor)
    if kind is AlwaysTaken:
        return _kernel_constant(True)
    if kind is AlwaysNotTaken:
        return _kernel_constant(False)
    if kind is BTFN:
        return _kernel_btfn(predictor)
    if kind is ProfileGuided:
        return _kernel_profile(predictor)

    def scannable(spec: AutomatonSpec) -> bool:
        return supports_vector_scan(spec)

    def k_ok(bits: int) -> bool:
        return bits <= _MAX_HISTORY_BITS

    if kind in (GAgPredictor, GsharePredictor, GApPredictor) \
            and scannable(predictor.automaton) and k_ok(predictor.history_bits):
        family = {GAgPredictor: "gag", GsharePredictor: "gshare", GApPredictor: "gap"}[kind]
        return _GlobalScan(predictor.automaton, predictor.history_bits, family)
    if kind is GSgPredictor and k_ok(predictor.history_bits):
        return _GSg(predictor)
    if kind is PAgPredictor and scannable(predictor.automaton) \
            and k_ok(predictor.history_bits) and _supported_bht(predictor.bht):
        return _PAg(predictor)
    if kind is PSgPredictor and k_ok(predictor.history_bits) and _supported_bht(predictor.bht):
        return _PSg(predictor)
    if kind is PApPredictor and scannable(predictor.automaton) \
            and k_ok(predictor.history_bits) and _supported_bht(predictor.bht):
        return _PAp(predictor)
    if kind is BTBPredictor and scannable(predictor.automaton) and _supported_bht(predictor.bht):
        return _BTB(predictor)
    if kind is SAgPredictor and scannable(predictor.pht.automaton) and k_ok(predictor.history_bits):
        return _PerSet(predictor.pht.automaton, predictor.history_bits,
                       predictor.num_sets, per_set_tables=False)
    if kind is SAsPredictor and scannable(predictor.tables[0].automaton) \
            and k_ok(predictor.history_bits):
        return _PerSet(predictor.tables[0].automaton, predictor.history_bits,
                       predictor.num_sets, per_set_tables=True)
    if kind is GselectPredictor and scannable(predictor.pht.automaton) \
            and k_ok(predictor.history_bits + predictor.address_bits):
        return _GlobalScan(predictor.pht.automaton, predictor.history_bits, "gselect",
                           addr_mask=(1 << predictor.address_bits) - 1)
    if kind is TournamentPredictor and scannable(CHOOSER_AUTOMATON):
        first = _kernel_for(predictor.first)
        second = _kernel_for(predictor.second)
        if first is None or second is None:
            return None
        return _Tournament(predictor, first, second)
    return None


def _supported_bht(bht) -> bool:
    """Batch kernels model any BHT geometry the simulator builds."""
    return isinstance(bht, (IdealBHT, CacheBHT))


def kernel_supports(predictor) -> bool:
    """Whether :func:`simulate_vectorized` can replay ``predictor`` —
    whole or in chunks of any size.

    True for every scheme in the paper registry — the table-driven
    two-level configurations with ideal, direct-mapped *or*
    set-associative first levels, the BTB designs, the static schemes,
    and the hybrid/per-set extensions (tournament, gselect, SAg/SAs) —
    as long as the automata involved have <= 4 states and stabilise
    within three repeats (all of LT, A1-A4, the preset bit and the
    tournament chooser do). False only for exotic automaton extensions,
    over-long history registers, subclassed predictor types (dispatch is
    exact-type), and tournaments whose components are themselves
    unsupported — those run through the interpreted loop instead.
    """
    return _kernel_for(predictor) is not None


def _traced_blocks(blocks, recorder):
    """Wrap a block iterator so each block's kernel pass is a span.

    The span opens when the block is handed to the consumer and closes
    when the consumer asks for the next one, so it covers the batch
    kernel work for that block — the per-block level of the sweep →
    cell → phase → block hierarchy. The lenient ``pop_if_open`` keeps
    exception-path generator finalization from closing another span.
    """
    for index, block in enumerate(blocks):
        span_id = recorder.push("block", cat="engine", index=index, records=len(block))
        try:
            yield block
        finally:
            recorder.pop_if_open(span_id)


def simulate_vectorized(
    predictor,
    source,
    context_switches: Optional[ContextSwitchConfig] = None,
    track_per_site: bool = False,
    warmup_branches: int = 0,
    block_size: Optional[int] = None,
) -> SimulationResult:
    """Batch-replay ``source`` through a vectorized model of ``predictor``.

    ``source`` is any bounded :class:`repro.trace.stream.TraceSource`.
    An in-memory :class:`~repro.trace.events.Trace` with no
    ``block_size`` is a single chunk — the trace itself, so its cached
    arrays and residency memo serve every cell. Any other source runs
    its ``iter_blocks(block_size)`` chunks in order (at the source
    default block size when ``block_size`` is None), each kernel
    carrying its predictor state — pattern tables, history registers,
    BHT residency, choosers — from one chunk to the next, with flush
    boundaries pinned to absolute ``instret // interval`` epochs. Peak
    memory then scales with the block size, not the trace length.

    Bit-identical to :func:`repro.sim.engine.simulate` for every
    supported predictor at every block size, *assuming a
    freshly-constructed predictor* (kernels model initial tables; they
    neither read nor write the predictor's mutable state, so the
    instance is untouched afterwards).

    Raises:
        KernelUnavailable: when no kernel covers the predictor, or
            ``instret`` decreases (within a chunk or across chunks) with
            context switches enabled.
        ValueError: for an unbounded source or a block size < 1.
    """
    kernel = _kernel_for(predictor)
    if kernel is None:
        raise KernelUnavailable(
            f"no vectorized kernel for {getattr(predictor, 'name', type(predictor).__name__)}"
        )
    if block_size is not None and block_size < 1:
        raise ValueError("block_size must be >= 1")
    if getattr(source, "num_records", 0) is None:
        raise ValueError(
            "cannot simulate an unbounded source; bound it with .limit(n)"
        )
    whole = isinstance(source, Trace) and block_size is None
    if whole:
        chunks = [source]
    else:
        # Span tracing of the streamed chunk loop: deferred import,
        # None unless tracing is on — the traced iterator wrapper only
        # exists on the traced path.
        from ..obs.spans import get_recorder as _get_span_recorder

        chunks = source.iter_blocks(block_size or _DEFAULT_STREAM_BLOCK)
        recorder = _get_span_recorder()
        if recorder is not None:
            chunks = _traced_blocks(chunks, recorder)
    meta = source.meta
    warmup = max(int(warmup_branches), 0)
    track = bool(track_per_site)
    correct = 0
    cond_seen = 0
    switches = 0
    prev_epoch: Optional[int] = None
    fires = 0
    last_instret: Optional[int] = None
    per_seen: Optional[Dict[int, int]] = {} if track else None
    per_wrong: Optional[Dict[int, int]] = {} if track else None
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        run = _Run(chunk, context_switches, track, max(warmup - cond_seen, 0),
                   prev_epoch=prev_epoch, fires_base=fires, cond_base=cond_seen,
                   final=whole)
        if context_switches is not None:
            first_instret = int(run.arrays.instret[0])
            if last_instret is not None and first_instret < last_instret:
                raise KernelUnavailable(
                    "instret decreases across blocks; the vectorized "
                    "context-switch model requires a non-decreasing clock"
                )
            last_instret = int(run.arrays.instret[-1])
            prev_epoch = run.last_epoch
        switches += run.switches
        fires = run.fires_end
        if run.n_c:
            outcome = kernel.process(run)
            if isinstance(outcome, (int, np.integer)):
                correct += int(outcome)
            else:
                chunk_correct, chunk_seen, chunk_wrong = _score_predictions(run, outcome)
                correct += chunk_correct
                if track:
                    for pc, count in chunk_seen.items():
                        per_seen[pc] = per_seen.get(pc, 0) + count
                    for pc, count in chunk_wrong.items():
                        per_wrong[pc] = per_wrong.get(pc, 0) + count
        cond_seen += run.n_c
    return SimulationResult(
        predictor_name=predictor.name,
        trace_name=meta.name,
        dataset=meta.dataset,
        conditional_branches=max(cond_seen - warmup, 0),
        correct_predictions=correct,
        context_switches=switches,
        per_site_executions=per_seen,
        per_site_mispredictions=per_wrong,
        total_instructions=meta.total_instructions,
    )


def _score_predictions(run: _Run, pred: np.ndarray):
    """Score per-record predictions against outcomes, honouring warmup
    and (optionally) collecting the per-site dictionaries."""
    ok = pred == run.out_bool
    scored_ok = ok[run.warmup:]
    correct = int(np.count_nonzero(scored_ok))
    if not run.track_per_site:
        return correct, None, None
    sites, ids = run.arrays.conditional_site_ids()
    scored_ids = ids[run.warmup:]
    seen = np.bincount(scored_ids, minlength=sites.shape[0])
    wrong = np.bincount(scored_ids[~scored_ok], minlength=sites.shape[0])
    per_seen = {int(sites[i]): int(seen[i]) for i in np.flatnonzero(seen)}
    per_wrong = {int(sites[i]): int(wrong[i]) for i in np.flatnonzero(wrong)}
    return correct, per_seen, per_wrong
