"""Equivalence pins for the vectorized fast-path kernels.

The contract under test: for every predictor with a kernel,
:func:`repro.sim.kernels.simulate_vectorized` returns a
:class:`~repro.sim.results.SimulationResult` **bit-identical** to the
interpreted engine — same aggregate counts, same per-site dictionaries,
same context-switch count — across context-switch configurations,
warmup windows and per-site tracking. Schemes without a kernel must
fail loudly under ``backend="vectorized"`` and silently fall back under
``backend="auto"``.
"""

import random

import pytest

from repro.core.automata import A2, LAST_TIME
from repro.predictors.btb import BTBPredictor
from repro.predictors.registry import make_predictor
from repro.sim import (
    ContextSwitchConfig,
    KernelUnavailable,
    kernel_supports,
    simulate,
    simulate_vectorized,
    simulate_with_backend,
)
from repro.trace.events import BranchClass, TraceBuilder


def synthetic_trace(seed=11, n=12_000, sites=96, name="synth"):
    """A dense mixed trace: biased conditionals, traps, call/return."""
    rng = random.Random(seed)
    builder = TraceBuilder(name=name, dataset="unit", source="synthetic")
    pcs = [0x40_0000 + 8 * i for i in range(sites)]
    for i in range(n):
        pc = rng.choice(pcs)
        if rng.random() < 0.01:
            builder.trap()
        if rng.random() < 0.05:
            builder.branch(pc ^ 0x4, True, BranchClass.CALL, target=pc + 256, work=2)
            continue
        bias = (pc >> 3) % 10 / 10.0
        taken = rng.random() < bias
        target = pc - 128 if (pc >> 3) % 3 else pc + 128
        builder.branch(pc, taken, target=target, work=rng.randrange(1, 6))
    return builder.build()


TRACE = synthetic_trace()
TRAINING = synthetic_trace(seed=99, n=6_000, name="synth-train")

#: Registry names covering every kernel family and automaton, plus the
#: practical first-level variants (ideal / direct-mapped).
KERNEL_SCHEMES = [
    "gag-6",
    "gag-12",
    "gag-6-lt",
    "gag-6-a1",
    "gag-6-a3",
    "gag-6-a4",
    "gshare-8",
    "gap-5",
    "gsg-6",
    "psg-6-ideal",
    "psg-6-128x1",
    "pag-8-a2-ideal",
    "pag-8-a2-128x1",
    "pap-6-lt-ideal",
    "pap-6-a2-128x1",
    "always-taken",
    "always-not-taken",
    "btfn",
    "profile",
]

CS_CONFIGS = [
    None,
    ContextSwitchConfig(interval=3_000),
    ContextSwitchConfig(interval=3_333, switch_on_traps=False),
]


def build(name):
    return make_predictor(name, TRAINING)


def assert_equivalent(make, trace, cs=None, warmup=0, track=False):
    reference = simulate(
        make(),
        trace,
        context_switches=cs,
        track_per_site=track,
        warmup_branches=warmup,
        backend="python",
    )
    fast = simulate_vectorized(
        make(),
        trace,
        context_switches=cs,
        track_per_site=track,
        warmup_branches=warmup,
    )
    assert fast == reference
    return reference


@pytest.mark.parametrize("cs", CS_CONFIGS, ids=["none", "traps", "no-traps"])
@pytest.mark.parametrize("name", KERNEL_SCHEMES)
def test_kernel_matches_engine(name, cs):
    assert kernel_supports(build(name))
    assert_equivalent(lambda: build(name), TRACE, cs=cs)


@pytest.mark.parametrize("name", ["gag-8", "gshare-8", "pag-8-a2-128x1", "btfn"])
def test_kernel_matches_engine_warmup_and_per_site(name):
    cs = ContextSwitchConfig(interval=3_000)
    result = assert_equivalent(
        lambda: build(name), TRACE, cs=cs, warmup=500, track=True
    )
    assert result.per_site_executions


def test_direct_mapped_btb_matches_engine():
    for automaton in (A2, LAST_TIME):
        for cs in CS_CONFIGS:
            assert_equivalent(
                lambda: BTBPredictor(128, 1, automaton), TRACE, cs=cs
            )
            assert_equivalent(
                lambda: BTBPredictor(128, 1, automaton),
                TRACE,
                cs=cs,
                warmup=500,
                track=True,
            )


#: Set-associative first levels small enough (8-32 sets against the
#: trace's 96 sites) that most LRU epochs are contended: replacement,
#: not fill order, decides residency.
ASSOC_SCHEMES = [
    "pag-8-a2-32x2",
    "pag-8-a2-64x4",
    "pag-8-a2-128x8",
    "psg-6-16x2",
    "psg-6-128x4",
    "psg-6-64x8",
    "pap-6-a2-64x4",
]


@pytest.mark.parametrize("cs", CS_CONFIGS, ids=["none", "traps", "no-traps"])
@pytest.mark.parametrize("name", ASSOC_SCHEMES)
def test_set_associative_kernel_matches_engine(name, cs):
    assert kernel_supports(build(name))
    assert_equivalent(lambda: build(name), TRACE, cs=cs)


@pytest.mark.parametrize("cs", CS_CONFIGS, ids=["none", "traps", "no-traps"])
@pytest.mark.parametrize("reset", [True, False], ids=["reset", "keep"])
def test_set_associative_pap_reset_policy_matches_engine(reset, cs):
    from repro.core.twolevel import make_pap

    assert_equivalent(
        lambda: make_pap(6, A2, 64, 4, reset_pht_on_evict=reset), TRACE, cs=cs
    )


@pytest.mark.parametrize("cs", CS_CONFIGS, ids=["none", "traps", "no-traps"])
def test_set_associative_btb_matches_engine(cs):
    for automaton in (A2, LAST_TIME):
        assert_equivalent(lambda: BTBPredictor(64, 4, automaton), TRACE, cs=cs)


def test_set_associative_warmup_and_per_site():
    cs = ContextSwitchConfig(interval=3_000)
    for name in ("pag-8-a2-64x4", "psg-6-64x8"):
        result = assert_equivalent(
            lambda: build(name), TRACE, cs=cs, warmup=500, track=True
        )
        assert result.per_site_executions
    assert_equivalent(
        lambda: BTBPredictor(64, 4, A2), TRACE, cs=cs, warmup=500, track=True
    )


def test_kernel_does_not_mutate_predictor():
    predictor = build("pag-8-a2-128x1")
    before = predictor.bht.entries_snapshot()
    simulate_vectorized(predictor, TRACE)
    assert predictor.bht.entries_snapshot() == before
    gag = build("gag-6")
    pht_before = gag.pht.states_snapshot()
    simulate_vectorized(gag, TRACE, context_switches=ContextSwitchConfig(interval=3000))
    assert gag.pht.states_snapshot() == pht_before
    assert gag.ghr == (1 << gag.history_bits) - 1  # untouched taken-biased fill


def _wide_automaton_gag():
    """A GAg on an 8-state automaton: beyond the packed-code state limit,
    so no kernel can exist (dispatch is on exact type + scannability)."""
    from repro.core.automata import saturating_counter
    from repro.core.twolevel import GAgPredictor

    return GAgPredictor(6, saturating_counter(3))


def test_unsupported_predictor_raises_and_auto_falls_back():
    unsupported = _wide_automaton_gag()
    assert not kernel_supports(unsupported)
    with pytest.raises(KernelUnavailable):
        simulate_vectorized(unsupported, TRACE)
    with pytest.raises(KernelUnavailable):
        simulate(_wide_automaton_gag(), TRACE, backend="vectorized")
    result, used = simulate_with_backend(
        _wide_automaton_gag(), TRACE, backend="auto"
    )
    assert used == "python"
    assert result == simulate(_wide_automaton_gag(), TRACE, backend="python")


def test_supported_predictor_routes_to_kernel():
    result, used = simulate_with_backend(build("gag-6"), TRACE, backend="auto")
    assert used == "vectorized"
    assert result == simulate(build("gag-6"), TRACE, backend="python")


def test_probe_forces_interpreted_backend():
    from repro.obs import StreakHistogramProbe

    result, used = simulate_with_backend(
        build("gag-6"), TRACE, probe=StreakHistogramProbe(), backend="auto"
    )
    assert used == "python"
    assert result == simulate(build("gag-6"), TRACE, backend="python")


def test_invalid_backend_rejected():
    with pytest.raises(ValueError):
        simulate(build("gag-6"), TRACE, backend="numpy")


def test_empty_and_unconditional_traces():
    empty = TraceBuilder(name="empty").build()
    builder = TraceBuilder(name="calls-only")
    for i in range(50):
        builder.branch(0x1000 + 8 * i, True, BranchClass.CALL, work=3)
    calls_only = builder.build()
    for trace in (empty, calls_only):
        for cs in (None, ContextSwitchConfig(interval=50)):
            assert_equivalent(lambda: build("gag-6"), trace, cs=cs, track=True)


def test_warmup_exceeding_trace_matches_engine():
    assert_equivalent(
        lambda: build("gag-6"), TRACE, warmup=10 ** 9
    )


def test_non_monotone_instret_unsupported_only_with_context_switches():
    from repro.trace.events import Trace, TraceMeta

    n = 100
    instret = [2 * (i + 1) for i in range(n)]
    instret[50] = 0  # corrupt the retirement counter
    trace = Trace(
        meta=TraceMeta(name="weird"),
        pc=[0x2000] * n,
        taken=[i % 2 == 0 for i in range(n)],
        cls=[int(BranchClass.CONDITIONAL)] * n,
        target=[0] * n,
        instret=instret,
        trap=[False] * n,
    )
    assert_equivalent(lambda: build("gag-6"), trace)  # cs off: irrelevant
    with pytest.raises(KernelUnavailable):
        simulate_vectorized(
            build("gag-6"), trace, context_switches=ContextSwitchConfig(interval=10)
        )
    # backend="auto" still completes via the interpreted loop.
    result, used = simulate_with_backend(
        build("gag-6"),
        trace,
        context_switches=ContextSwitchConfig(interval=10),
        backend="auto",
    )
    assert used == "python"


def test_workload_trace_equivalence(small_cases):
    """Real generated workloads (with training traces) pin equivalence."""
    for case in small_cases:
        for name in ("gag-8", "pag-8-a2-128x1", "gshare-8", "btfn"):
            make = lambda: make_predictor(name, case.training_trace)  # noqa: E731
            if not kernel_supports(make()):
                continue
            assert_equivalent(make, case.test_trace)
            assert_equivalent(
                make,
                case.test_trace,
                cs=ContextSwitchConfig(interval=5_000),
                warmup=200,
                track=True,
            )
