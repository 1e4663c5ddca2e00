"""Chunked simulation: block-size independence and bounded memory.

The contract under test (see docs/traces.md and docs/simulation.md):
simulating any ``TraceSource`` at any ``block_size`` — on either
backend — produces a ``SimulationResult`` bit-identical to the
interpreted engine over the fully materialized trace, and peak
resident memory tracks the block size, not the stream length. Every
kernel-supported scheme streams on the kernel path: the chunked
driver carries each kernel's first- and second-level state from one
chunk to the next.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.automata import A2, LAST_TIME, saturating_counter
from repro.core.twolevel import GAgPredictor, make_pag, make_pap
from repro.predictors.btb import BTBPredictor
from repro.predictors.extensions import GselectPredictor, TournamentPredictor
from repro.predictors.registry import make_predictor, paper_table3_specs
from repro.sim.engine import ContextSwitchConfig, simulate, simulate_with_backend
from repro.sim.kernels import KernelUnavailable, kernel_supports, simulate_vectorized
from repro.sim.runner import BenchmarkCase, run_case, run_matrix
from repro.trace.events import BranchClass, TraceBlock, TraceBuilder
from repro.trace.stream import (
    IndexedSource,
    RecordStreamSource,
    bernoulli_outcomes,
    open_stream,
    save_source,
)
from repro.trace.synthetic import markov_records


def _synthetic_trace(seed=11, n=12_000, sites=64):
    """A trace exercising every streamed-state hazard: many sites,
    biased conditionals, traps, and non-conditional records."""
    rng = random.Random(seed)
    builder = TraceBuilder(name=f"synth-{seed}", dataset="d", source="test")
    pcs = [0x4000 + 16 * i for i in range(sites)]
    bias = {pc: rng.uniform(0.1, 0.9) for pc in pcs}
    for i in range(n):
        pc = rng.choice(pcs)
        builder.conditional(pc, rng.random() < bias[pc], work=rng.randrange(1, 6))
        if rng.random() < 0.01:
            builder.trap()
        if rng.random() < 0.05:
            builder.call(0x9000, target=0xA000, work=2)
    return builder.build()


TRACE = _synthetic_trace()
TRAINING = _synthetic_trace(seed=99, n=4_000)
#: Shorter trace for block_size=1 pins (one kernel pass per record).
SMALL = TRACE.head(1_500)

SCHEMES = [
    "gag-6",
    "gshare-8",
    "gap-5",
    "gsg-6",
    "pag-8-a2-ideal",
    "pag-8-a2-128x1",
    "psg-6-128x1",
    "btb-a2",
    "always-taken",
    "pap-6-a2-128x1",
]

CS_CONFIGS = [
    None,
    ContextSwitchConfig(interval=3_000),
    ContextSwitchConfig(interval=3_333, switch_on_traps=False),
]


def _build(name):
    return make_predictor(name, TRAINING)


class TestBlockSizeIndependence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("cs", CS_CONFIGS)
    def test_auto_backend_all_blocks(self, scheme, cs):
        baseline = simulate(_build(scheme), TRACE, context_switches=cs,
                            backend="auto")
        for bs in (4093, 1 << 16, None):
            result, backend = simulate_with_backend(
                _build(scheme), TRACE, context_switches=cs,
                backend="auto", block_size=bs,
            )
            assert result == baseline, (scheme, cs, bs, backend)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("cs", CS_CONFIGS)
    def test_block_size_one(self, scheme, cs):
        """The degenerate partition — every record its own block —
        exercises every state-carry seam on every block boundary."""
        baseline = simulate(_build(scheme), SMALL, context_switches=cs,
                            backend="auto")
        result = simulate(_build(scheme), SMALL, context_switches=cs,
                          backend="auto", block_size=1)
        assert result == baseline, (scheme, cs)

    @pytest.mark.parametrize("scheme", ["gag-6", "pag-8-a2-ideal", "btb-a2"])
    def test_python_backend_all_blocks(self, scheme):
        cs = CS_CONFIGS[1]
        baseline = simulate(_build(scheme), TRACE, context_switches=cs,
                            backend="python")
        for bs in (1, 4093, None):
            streamed = simulate(_build(scheme), TRACE, context_switches=cs,
                                backend="python", block_size=bs)
            assert streamed == baseline, (scheme, bs)

    @pytest.mark.parametrize("scheme", ["gag-6", "gshare-8", "pag-8-a2-128x1"])
    def test_warmup_and_per_site(self, scheme):
        baseline = simulate(_build(scheme), TRACE, context_switches=CS_CONFIGS[1],
                            track_per_site=True, warmup_branches=500,
                            backend="vectorized")
        result = simulate(_build(scheme), TRACE, context_switches=CS_CONFIGS[1],
                          track_per_site=True, warmup_branches=500,
                          backend="vectorized", block_size=997)
        assert result == baseline, scheme
        small_base = simulate(_build(scheme), SMALL, context_switches=CS_CONFIGS[1],
                              track_per_site=True, warmup_branches=300,
                              backend="vectorized")
        small = simulate(_build(scheme), SMALL, context_switches=CS_CONFIGS[1],
                         track_per_site=True, warmup_branches=300,
                         backend="vectorized", block_size=1)
        assert small == small_base, scheme


class TestMillionBranchPin:
    """The ISSUE's headline pin: a 1M-branch stream is bit-identical at
    block sizes {4093, 2^16, whole-trace} on the vectorized backend and
    under the interpreted loop, with warmup and context switches on."""

    @pytest.fixture(scope="class")
    def source(self):
        return IndexedSource(
            bernoulli_outcomes(0.7, seed=17), num_records=1_000_000,
            pcs=tuple(0x100 + 8 * i for i in range(64)), name="million",
        )

    @pytest.fixture(scope="class")
    def baseline(self, source):
        cs = ContextSwitchConfig(interval=500_000)
        # Materialized reference: one kernel pass over the whole stream.
        blocks = list(source.iter_blocks(None))
        trace = blocks[0].to_trace()
        return simulate(_build("gag-12"), trace, context_switches=cs,
                        warmup_branches=1_000, backend="vectorized")

    def test_vectorized_blocks(self, source, baseline):
        cs = ContextSwitchConfig(interval=500_000)
        for bs in (4093, 1 << 16, None):
            result = simulate(_build("gag-12"), source, context_switches=cs,
                              warmup_branches=1_000, backend="vectorized",
                              block_size=bs)
            assert result.correct_predictions == baseline.correct_predictions
            assert result == baseline, bs

    def test_interpreted_blocks(self, source, baseline):
        cs = ContextSwitchConfig(interval=500_000)
        result = simulate(_build("gag-12"), source, context_switches=cs,
                          warmup_branches=1_000, backend="python",
                          block_size=4093)
        assert result == baseline


class TestStreamedContainerSource:
    def test_btrs_simulates_identically(self, tmp_path):
        path = tmp_path / "t.btrs"
        save_source(TRACE, path)
        baseline = simulate(_build("pag-8-a2-ideal"), TRACE,
                            context_switches=CS_CONFIGS[1], backend="auto")
        with open_stream(path) as streamed:
            for backend in ("auto", "python"):
                result = simulate(_build("pag-8-a2-ideal"), streamed,
                                  context_switches=CS_CONFIGS[1],
                                  backend=backend, block_size=2048)
                assert result == baseline, backend

    def test_generator_source_simulates(self):
        source = RecordStreamSource(lambda: markov_records(0.9, 0.9, seed=2),
                                    name="markov").limit(20_000)
        blocks = list(source.iter_blocks(None))
        trace = blocks[0].to_trace()
        baseline = simulate(_build("gag-8"), trace, backend="auto")
        result = simulate(_build("gag-8"), source, backend="auto",
                          block_size=4096)
        assert result.correct_predictions == baseline.correct_predictions
        assert result.conditional_branches == baseline.conditional_branches

    def test_run_case_forwards_block_size(self):
        case = BenchmarkCase(name="synth", category="int", test_trace=TRACE,
                             training_trace=TRAINING)
        base = run_case(lambda training: _build("gag-6"), case)
        streamed = run_case(lambda training: _build("gag-6"), case,
                            block_size=1024)
        assert streamed == base


class TestStreamingDispatch:
    def test_unbounded_source_rejected(self):
        source = RecordStreamSource(lambda: markov_records(0.9, 0.9))
        with pytest.raises(ValueError, match="unbounded"):
            simulate(_build("gag-6"), source)
        with pytest.raises(ValueError):
            simulate_vectorized(_build("gag-6"), source)

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            simulate(_build("gag-6"), TRACE, block_size=0)

    def test_stream_kernel_support_matrix(self):
        """Every family the streaming path used to hand to the
        interpreter streams on the kernel under an explicit
        ``backend="vectorized"``: PAp, GAp above 16 bits, set-associative
        PAg/PSg/BTB, gselect, SAg/SAs and the tournament."""
        for scheme in ("pap-6-a2-128x1", "gap-18", "pag-8-a2-32x4", "psg-6-32x4",
                       "btb-a2", "gselect-4+4", "sag-6x16", "sas-6x16", "tournament"):
            reference = simulate(_build(scheme), SMALL, context_switches=CS_CONFIGS[1],
                                 backend="python")
            result, backend = simulate_with_backend(
                _build(scheme), SMALL, context_switches=CS_CONFIGS[1],
                backend="vectorized", block_size=97)
            assert backend == "vectorized", scheme
            assert result == reference, scheme

    def test_pap_streams_on_the_kernel(self):
        result, backend = simulate_with_backend(
            _build("pap-6-a2-128x1"), TRACE, backend="auto", block_size=997)
        assert backend == "vectorized"
        assert result == simulate(_build("pap-6-a2-128x1"), TRACE,
                                  backend="python")

    def test_vectorized_streams_pap(self):
        result = simulate_vectorized(_build("pap-6-a2-128x1"), TRACE, block_size=997)
        assert result == simulate(_build("pap-6-a2-128x1"), TRACE, backend="python")

    def test_non_monotone_instret_across_blocks_refused(self):
        builder = TraceBuilder(name="bad", source="test")
        for taken in (True, False, True, False):
            builder.conditional(0x10, taken, work=3)
        trace = builder.build()

        class ShuffledBlocks:
            meta = trace.meta
            num_records = trace.num_records

            def iter_blocks(self, block_size=None):
                blocks = list(trace.iter_blocks(2))
                yield from reversed(blocks)

            def iter_tuples(self):
                for block in self.iter_blocks():
                    yield from block.iter_tuples()

        with pytest.raises(KernelUnavailable, match="instret"):
            simulate_vectorized(
                _build("gag-6"), ShuffledBlocks(),
                context_switches=ContextSwitchConfig(interval=100),
            )

    def test_materialized_trace_without_block_size_unchanged(self):
        # The non-streaming fast path: same entry point, same result.
        a = simulate(_build("gag-6"), TRACE, backend="auto")
        b = simulate_vectorized(_build("gag-6"), TRACE)
        assert a == b


_RSS_SCRIPT = """
import resource, sys
from repro.predictors.registry import make_predictor
from repro.sim.engine import simulate
from repro.trace.stream import IndexedSource, bernoulli_outcomes


def peak_rss_kb():
    # VmHWM is this process's own high-water mark. ru_maxrss is wrong
    # here: a posix_spawn'ed child shares the parent's mm until exec,
    # so it inherits the parent's peak (the whole pytest session).
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


backend = sys.argv[1]
source = IndexedSource(
    bernoulli_outcomes(0.7, seed=5), num_records=10_000_000,
    pcs=tuple(0x100 + 8 * i for i in range(128)), name="rss",
)
result = simulate(make_predictor("gag-12", None), source,
                  backend=backend, block_size=1 << 16)
assert result.conditional_branches == 10_000_000, result
print(peak_rss_kb())
"""


class TestBoundedMemory:
    """A 10M-branch stream (260 MB of packed records; far more
    materialized) must simulate within a block-sized memory envelope."""

    @pytest.mark.parametrize("backend", ["vectorized", "python"])
    def test_10m_branch_rss_bounded(self, backend):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_SCRIPT, backend],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        peak_kb = int(proc.stdout.strip().splitlines()[-1])
        # Interpreter + numpy baseline is ~100 MB; the stream adds only
        # block-sized working sets. Materializing 10M records would
        # need >500 MB, so the bound also proves nothing materialized.
        assert peak_kb < 400_000, f"peak RSS {peak_kb} KB ({backend})"


# ----------------------------------------------------------------------
# The chunked-kernel equivalence gate
# ----------------------------------------------------------------------

def _gate_trace(seed, n, sites, name):
    """Biased conditionals over ``sites`` branches plus traps and calls:
    enough sites to contend for the small BHTs below."""
    rng = random.Random(seed)
    builder = TraceBuilder(name=name, dataset="unit", source="synthetic")
    pcs = [0x40_0000 + 8 * i for i in range(sites)]
    for _ in range(n):
        pc = rng.choice(pcs)
        if rng.random() < 0.03:
            builder.trap()
        if rng.random() < 0.05:
            builder.branch(pc ^ 0x4, True, BranchClass.CALL, target=pc + 256, work=2)
            continue
        bias = (pc >> 3) % 10 / 10.0
        target = pc - 128 if (pc >> 3) % 3 else pc + 128
        builder.branch(pc, rng.random() < bias, target=target, work=rng.randrange(1, 6))
    return builder.build()


GATE_TRACE = _gate_trace(17, 64, 24, "gate")
GATE_TRAINING = _gate_trace(23, 400, 24, "gate-train")

#: Every ``paper_table3_specs(12)`` scheme, plus the families and
#: geometries the chunked kernels carry state for: GAp at <= 16 and
#: > 16 history bits, the hybrids and per-set schemes, PAp over ideal,
#: direct-mapped and 4-way BHTs with reset on and off, 4-way BTBs, and
#: BHTs small enough that 24 sites contend for their ways.
GATE = {
    **{f"table3-{i:02d}": str(spec) for i, spec in enumerate(paper_table3_specs(12))},
    "gag": "gag-8",
    "gap-8": "gap-8",
    "gap-18": "gap-18",
    "gshare": "gshare-8",
    "sag": "sag-6x16",
    "sas": "sas-6x16",
    "gselect": lambda: GselectPredictor(6, 4),
    "tournament": lambda: TournamentPredictor(
        make_pag(6, A2, 32, 2), GselectPredictor(5, 3), chooser_bits=8
    ),
    "pag-a2-assoc2": lambda: make_pag(7, A2, 16, 2),
    "pap-ideal": lambda: make_pap(5, A2, None),
    "pap-ideal-noreset": lambda: make_pap(5, A2, None, reset_pht_on_evict=False),
    "pap-direct": lambda: make_pap(5, A2, 8, 1),
    "pap-direct-noreset": lambda: make_pap(5, A2, 8, 1, reset_pht_on_evict=False),
    "pap-a2-assoc4": lambda: make_pap(5, A2, 16, 4),
    "pap-lt-assoc4-noreset": lambda: make_pap(5, LAST_TIME, 16, 4, reset_pht_on_evict=False),
    "btb-assoc4": lambda: BTBPredictor(16, 4, A2),
    "btb-lt-assoc4": lambda: BTBPredictor(16, 4, LAST_TIME),
}

#: Intervals of a few dozen records: flushes land inside the trace,
#: and the epochs between them are long enough to contend for ways.
GATE_CS = {
    "none": None,
    "switches": ContextSwitchConfig(interval=90),
    "switches-notraps": ContextSwitchConfig(interval=97, switch_on_traps=False),
}

#: Block sizes {1, 7, 2^16, whole trace}.
GATE_BLOCKS = (1, 7, 1 << 16, None)


def _gate_make(name):
    maker = GATE[name]
    if isinstance(maker, str):
        return make_predictor(maker, GATE_TRAINING)
    return maker()


def assert_chunked_equivalent(make, trace, cs=None, warmup=0, track=False,
                              blocks=GATE_BLOCKS):
    """Every block size streams on the kernel, bit-identical to the
    interpreted engine."""
    reference = simulate(make(), trace, context_switches=cs, track_per_site=track,
                         warmup_branches=warmup, backend="python")
    for block_size in blocks:
        result, used = simulate_with_backend(
            make(), trace, context_switches=cs, track_per_site=track,
            warmup_branches=warmup, backend="vectorized", block_size=block_size,
        )
        assert used == "vectorized"
        assert result == reference, block_size
    return reference


_GATE_IDS = [(name, cs) for name in GATE for cs in GATE_CS]


@pytest.mark.parametrize("name,cs", _GATE_IDS, ids=[f"{n}-{c}" for n, c in _GATE_IDS])
def test_chunked_matches_engine(name, cs):
    assert_chunked_equivalent(lambda: _gate_make(name), GATE_TRACE, cs=GATE_CS[cs])


@pytest.mark.parametrize("name,cs", _GATE_IDS, ids=[f"{n}-{c}" for n, c in _GATE_IDS])
def test_chunked_matches_engine_warmup_and_per_site(name, cs):
    result = assert_chunked_equivalent(
        lambda: _gate_make(name), GATE_TRACE, cs=GATE_CS[cs], warmup=20, track=True,
    )
    assert result.per_site_executions


def test_chunk_boundary_on_context_switch_epoch():
    """A chunk boundary landing exactly on a flush epoch must not shift
    or duplicate the flush (first-level epochs are absolute)."""
    builder = TraceBuilder(name="epoch-aligned", dataset="unit")
    rng = random.Random(3)
    for i in range(600):  # work=1 -> instret == i + 1, no traps/calls
        pc = 0x1000 + 8 * (i % 37)
        builder.branch(pc, rng.random() < 0.7, target=pc + 64, work=1)
    trace = builder.build()
    cs = ContextSwitchConfig(interval=300)  # epoch flips at record 300
    for name in ("pag-a2-assoc2", "tournament", "gag", "pap-a2-assoc4"):
        # 299 puts a boundary one record before the flip, 300 exactly
        # on it, 150 on it and between flips.
        assert_chunked_equivalent(lambda: _gate_make(name), trace, cs=cs,
                                  blocks=(299, 300, 150))


def test_more_chunks_than_conditional_records():
    """Chunks that hold no conditional record (only calls, or a flush)
    still carry every register and flush stamp across."""
    builder = TraceBuilder(name="sparse", dataset="unit")
    rng = random.Random(31)
    for i in range(120):
        pc = 0x2000 + 8 * rng.randrange(12)
        builder.branch(pc ^ 0x4, True, BranchClass.CALL, target=pc + 256, work=3)
        if i % 9 == 0:
            builder.trap()
        if i % 3 == 0:
            builder.branch(pc, rng.random() < 0.6, target=pc - 64, work=2)
    trace = builder.build()
    for name in ("pap-a2-assoc4", "tournament", "sas", "gag"):
        assert_chunked_equivalent(lambda: _gate_make(name), trace,
                                  cs=ContextSwitchConfig(interval=50), blocks=(1, 2, 3))


def test_pap_reset_discards_the_stored_table():
    """A PAp table reset by an eviction inside a chunk must drop every
    pattern the old table stored, not only the ones the new table
    touches: six branches thrash a two- and a four-entry BHT."""
    rng = random.Random(3)
    builder = TraceBuilder(name="thrash", dataset="unit")
    pcs = [0x1000 + 8 * i for i in range(6)]
    for _ in range(300):
        pc = rng.choice(pcs)
        builder.conditional(pc, rng.random() < (0.2 if (pc >> 3) % 2 else 0.8), work=2)
    trace = builder.build()
    for make in (lambda: make_pap(3, A2, 2, 1), lambda: make_pap(3, LAST_TIME, 4, 2)):
        assert_chunked_equivalent(make, trace, blocks=(3, 7))


def test_every_paper_registry_scheme_is_kernel_supported():
    """Acceptance pin: no scheme in the paper registry falls back."""
    for spec in paper_table3_specs(history_bits=12):
        assert kernel_supports(make_predictor(str(spec), TRAINING)), str(spec)


def test_streaming_does_not_mutate_predictor():
    predictor = _gate_make("pag-a2-assoc2")
    before = predictor.bht.entries_snapshot()
    simulate_vectorized(predictor, GATE_TRACE, block_size=7,
                        context_switches=GATE_CS["switches"])
    assert predictor.bht.entries_snapshot() == before
    tournament = _gate_make("tournament")
    simulate_vectorized(tournament, GATE_TRACE, block_size=7)
    assert tournament._choosers == [1] * len(tournament._choosers)
    assert tournament.disagreements == 0
    assert tournament.second.ghr == tournament.second._history_mask


class _Blocks:
    """A source replaying given block objects in order."""

    def __init__(self, meta, blocks):
        self.meta = meta
        self.num_records = sum(len(block) for block in blocks)
        self._blocks = blocks

    def iter_blocks(self, block_size=None):
        return iter(self._blocks)


def test_residency_memo_never_crosses_carries():
    """One block object entered with two different carried LRU states
    (and once with none, which writes the memo) matches the interpreted
    engine each time: a chunk with carried residents neither reads nor
    writes the residency memo."""
    rng = random.Random(5)

    def records(seed_pcs):
        builder = TraceBuilder(name="memo", dataset="unit")
        for pc in seed_pcs:
            builder.branch(pc, rng.random() < 0.5, target=pc - 64, work=2)
        return builder

    shared = [0x3000 + 8 * rng.randrange(20) for _ in range(60)]
    heads = ([0x3000 + 8 * i for i in range(10)], [0x3000 + 8 * (19 - i) for i in range(10)])
    traces = []
    for head in heads:
        rng.seed(5)
        builder = records(head)
        rng.seed(6)
        for pc in shared:
            builder.branch(pc, rng.random() < 0.5, target=pc - 64, work=2)
        traces.append(builder.build())
    tail = TraceBlock(traces[0].meta, 10, *(column[10:] for column in traces[0].columns))
    cs = ContextSwitchConfig(interval=1 << 40, switch_on_traps=True)
    alone = simulate_vectorized(_gate_make("pap-a2-assoc4"), _Blocks(traces[0].meta, [tail]),
                                context_switches=cs)
    assert alone.conditional_branches == len(shared)
    for trace in traces:
        head = TraceBlock(trace.meta, 0, *(column[:10] for column in trace.columns))
        for name in ("pap-a2-assoc4", "pag-a2-assoc2", "btb-assoc4"):
            chunked = simulate_vectorized(_gate_make(name), _Blocks(trace.meta, [head, tail]),
                                          context_switches=cs)
            assert chunked == simulate(_gate_make(name), trace, context_switches=cs,
                                       backend="python"), name


def _unsupported():
    # An 8-state automaton is beyond the packed-code state limit.
    return GAgPredictor(6, saturating_counter(3))


def test_unsupported_predictor_raises_and_auto_falls_back():
    assert not kernel_supports(_unsupported())
    with pytest.raises(KernelUnavailable):
        simulate_vectorized(_unsupported(), GATE_TRACE, block_size=7)
    with pytest.raises(KernelUnavailable):
        simulate(_unsupported(), GATE_TRACE, backend="vectorized", block_size=7)
    result, used = simulate_with_backend(_unsupported(), GATE_TRACE, backend="auto",
                                         block_size=7)
    assert used == "python"
    assert result == simulate(_unsupported(), GATE_TRACE, backend="python")


def test_tournament_with_unsupported_component_falls_back():
    hybrid = TournamentPredictor(_unsupported(), GselectPredictor(5, 3))
    assert not kernel_supports(hybrid)
    with pytest.raises(KernelUnavailable):
        simulate_vectorized(hybrid, GATE_TRACE, block_size=7)
    _result, used = simulate_with_backend(
        TournamentPredictor(_unsupported(), GselectPredictor(5, 3)),
        GATE_TRACE, backend="auto", block_size=7,
    )
    assert used == "python"


def test_probe_with_explicit_vectorized_backend_raises():
    from repro.obs import StreakHistogramProbe

    with pytest.raises(KernelUnavailable):
        simulate(_gate_make("gag"), GATE_TRACE, backend="vectorized",
                 probe=StreakHistogramProbe())
    result, used = simulate_with_backend(
        _gate_make("gag"), GATE_TRACE, backend="auto", probe=StreakHistogramProbe()
    )
    assert used == "python"
    assert result == simulate(_gate_make("gag"), GATE_TRACE, backend="python")


def test_cache_hits_report_cache_backend(tmp_path):
    from repro.sim.parallel import spec
    from repro.trace.cache import ResultCache

    case = BenchmarkCase(
        name="cachecase", category="int",
        test_trace=_gate_trace(41, 1_500, 32, "cachecase"),
    )
    builders = {"GAg-6": spec("gag-6")}
    cache = ResultCache(tmp_path)
    cold = run_matrix(builders, [case], result_cache=cache)
    assert [c.backend for c in cold.telemetry.cells] == ["vectorized"]
    warm = run_matrix(builders, [case], result_cache=cache)
    assert warm.cells == cold.cells
    assert [c.backend for c in warm.telemetry.cells] == ["cache"]
