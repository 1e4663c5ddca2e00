"""Set-associative BHT residency: the kernels' LRU model and its memo.

:func:`repro.sim.kernels._bht_residency` derives, for every conditional
record, whether its BHT access missed, whether the miss displaced a
valid occupant, and which way the entry lives in. The property test
replays random (set, tag, flush) streams through
:meth:`repro.core.history.CacheBHT.access` one access at a time and
demands the same three values per record. The regression pin checks
the memo: interleaving geometries and context-switch models on one
trace never changes a result, and the LRU pass runs once per key.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import CacheBHT
from repro.predictors.registry import make_predictor
from repro.sim import ContextSwitchConfig, simulate
from repro.sim import kernels
from repro.trace.events import BranchClass, Trace, TraceMeta

from .test_sim_kernels import TRAINING, synthetic_trace

#: Far beyond any test trace's instret: flushes come from traps only.
_NO_TIMER = ContextSwitchConfig(interval=1 << 40, switch_on_traps=True)


def _stream_trace(num_sets, accesses):
    """A conditional-only trace from ``(set, tag, flush)`` triples; a
    set ``flush`` puts a trap (a context switch) before the access."""
    pcs = [tag * num_sets + set_index for set_index, tag, _flush in accesses]
    n = len(pcs)
    return Trace(
        TraceMeta(name="residency"),
        pc=pcs,
        taken=[bool(pc & 1) for pc in pcs],
        cls=[int(BranchClass.CONDITIONAL)] * n,
        target=[0] * n,
        instret=list(range(1, n + 1)),
        trap=[flush for _set, _tag, flush in accesses],
    )


def _replay(num_sets, assoc, accesses):
    """Per-record ``(miss, evict, way)`` from the interpreted BHT."""
    bht = CacheBHT(num_sets * assoc, assoc)
    rows = []
    for set_index, tag, flush in accesses:
        if flush:
            bht.flush()
        entry, hit = bht.access(tag * num_sets + set_index)
        evicted = bool(bht.drain_evicted_slots())
        rows.append((not hit, evicted, entry.slot % assoc))
    return rows


def _residency_rows(num_sets, assoc, accesses):
    """Per-record ``(miss, evict, way)`` from the vectorized model."""
    trace = _stream_trace(num_sets, accesses)
    run = kernels._Run(trace, _NO_TIMER, False, 0)
    packed, width = kernels._bht_residency(run, CacheBHT(num_sets * assoc, assoc))
    return [
        (bool(code >> width & 1), bool(code >> (width + 1)), code & ((1 << width) - 1))
        for code in packed.tolist()
    ]


@st.composite
def _streams(draw):
    """Few sets, many tags, frequent flushes: contended LRU epochs,
    long reuse gaps, and flushes landing mid-epoch."""
    assoc = draw(st.sampled_from([1, 2, 4, 8]))
    num_sets = draw(st.integers(1, 4))
    tags = draw(st.integers(1, 3 * assoc + 2))
    flush_every = draw(st.sampled_from([0, 3, 11, 40]))
    accesses = draw(st.lists(
        st.tuples(
            st.integers(0, num_sets - 1),
            st.integers(0, tags - 1),
            st.integers(0, max(flush_every - 1, 0)),
        ),
        min_size=1,
        max_size=160,
    ))
    stream = [
        (set_index, tag, flush_every > 0 and roll == 0)
        for set_index, tag, roll in accesses
    ]
    return num_sets, assoc, stream


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_streams())
def test_residency_matches_cache_bht_replay(case):
    num_sets, assoc, accesses = case
    assert _residency_rows(num_sets, assoc, accesses) == _replay(
        num_sets, assoc, accesses
    )


def test_residency_hit_after_long_gap_of_repeats():
    # One tag reused across a long run of two alternating tags: the gap
    # is wide in events but holds only two distinct tags, so a 3-way set
    # keeps the entry while a 2-way set loses it. The reuse distance is
    # most of the epoch, the farthest any stack-distance search reaches.
    accesses = [(0, 0, False)] + [(0, 1 + i % 2, False) for i in range(40)]
    accesses += [(0, 0, False), (0, 3, False), (0, 4, False), (0, 0, False)]
    for assoc in (1, 2, 3, 4, 8):
        assert _residency_rows(1, assoc, accesses) == _replay(1, assoc, accesses)


def test_residency_batches_whole_epochs(monkeypatch):
    # Long unflushed epochs larger than a batch next to runs of short
    # flushed ones: both batch shapes must match the sequential BHT.
    monkeypatch.setattr(kernels, "_LRU_BATCH_EVENTS", 50)
    rng = random.Random(7)
    accesses = [
        (rng.randrange(4), rng.randrange(20), 1000 <= i < 2000 and i % 9 == 0)
        for i in range(3000)
    ]
    for assoc in (2, 4):
        assert _residency_rows(4, assoc, accesses) == _replay(4, assoc, accesses)


#: Interleaved (scheme, context switches) cells over one trace. Three
#: set-associative geometries and three segmentations form six distinct
#: residency keys; PAg, PSg and PAp cells share them.
_CELLS = [
    ("pag-8-a2-64x4", None),
    ("psg-6-64x4", ContextSwitchConfig(interval=3_000)),
    ("pap-6-a2-64x4", None),
    ("pag-8-a2-32x2", ContextSwitchConfig(interval=3_333, switch_on_traps=False)),
    ("pag-8-a2-64x4", ContextSwitchConfig(interval=3_000)),
    ("psg-6-64x4", None),
    ("pag-8-a2-128x8", None),
    ("pap-6-a2-32x2", ContextSwitchConfig(interval=3_333, switch_on_traps=False)),
    ("pag-8-a2-128x8", ContextSwitchConfig(interval=3_000)),
    ("pap-6-a2-128x8", ContextSwitchConfig(interval=3_000)),
    ("pag-8-a2-64x4", ContextSwitchConfig(interval=3_333, switch_on_traps=False)),
]


def _residency_key(name, cs):
    bht = make_predictor(name, TRAINING).bht
    cs_part = None if cs is None else (cs.interval, cs.switch_on_traps)
    return (bht.num_sets, bht.associativity, cs_part)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_residency_memo_is_order_independent_and_computed_once(monkeypatch, reverse):
    calls = []
    original = kernels._lru_metadata

    def counting(run, bht, order1):
        calls.append((bht.num_sets, bht.associativity, run.segmentation_key[0]))
        return original(run, bht, order1)

    monkeypatch.setattr(kernels, "_lru_metadata", counting)
    trace = synthetic_trace()
    cells = list(reversed(_CELLS)) if reverse else list(_CELLS)
    for name, cs in cells:
        fast = simulate(make_predictor(name, TRAINING), trace,
                        context_switches=cs, backend="vectorized")
        reference = simulate(make_predictor(name, TRAINING), synthetic_trace(),
                             context_switches=cs, backend="python")
        assert fast == reference, (name, cs)
    keys = {_residency_key(name, cs) for name, cs in cells}
    assert len(calls) == len(keys) == 6
    assert set(calls) == keys
