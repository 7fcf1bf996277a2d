"""Tests for the loop-scheduling simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sched.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sched.policies import (
    DynamicSchedule,
    GuidedSchedule,
    NonMonotonicDynamic,
    StaticSchedule,
)
from repro.sched.simulator import simulate, simulate_makespan
from repro.sched.workstealing import stealing_makespan
from tests.oracles import sched as oracle

ZERO = CostModel(seconds_per_unit=1.0, dispatch_overhead=0.0,
                 steal_overhead=0.0, fork_join_overhead=0.0)

ALL_POLICIES = [
    StaticSchedule(),
    StaticSchedule(2),
    DynamicSchedule(1),
    DynamicSchedule(3),
    GuidedSchedule(1),
    GuidedSchedule(2),
    NonMonotonicDynamic(1),
    NonMonotonicDynamic(2),
    NonMonotonicDynamic(1, steal_half=True),
    NonMonotonicDynamic(3, steal_half=True),
]


class TestBasics:
    def test_single_cpu_is_sequential(self):
        res = simulate([1.0, 2.0, 3.0], DynamicSchedule(1), 1, model=ZERO)
        assert res.makespan == pytest.approx(6.0)
        assert all(e.cpu == 0 for e in res.timeline)

    def test_uniform_costs_perfect_balance(self):
        res = simulate([1.0] * 8, StaticSchedule(), 4, model=ZERO)
        assert res.makespan == pytest.approx(2.0)
        assert res.timeline.busy_per_cpu() == pytest.approx([2.0] * 4)

    def test_items_attached(self):
        items = ["a", "b", "c"]
        res = simulate([1, 1, 1], DynamicSchedule(1), 2, items=items, model=ZERO)
        assert {e.item for e in res.timeline} == set(items)

    def test_item_count_mismatch(self):
        with pytest.raises(SimulationError):
            simulate([1, 2], DynamicSchedule(1), 2, items=["x"], model=ZERO)

    def test_zero_cpus_rejected(self):
        with pytest.raises(SimulationError):
            simulate([1.0], DynamicSchedule(1), 0, model=ZERO)

    def test_meta_propagated(self):
        res = simulate([1.0], StaticSchedule(), 1, model=ZERO, meta={"iteration": 7})
        assert res.timeline.execs[0].meta["iteration"] == 7

    def test_start_time_offsets_everything(self):
        res = simulate([1.0, 1.0], DynamicSchedule(1), 2, model=ZERO, start_time=5.0)
        assert all(e.start >= 5.0 for e in res.timeline)


class TestStaticBehaviour:
    def test_imbalanced_costs_hurt_static(self):
        # one heavy item at the front: static gives it to cpu 0 along with
        # the rest of its block
        costs = [10.0] + [1.0] * 7
        stat = simulate(costs, StaticSchedule(), 4, model=ZERO)
        dyn = simulate(costs, DynamicSchedule(1), 4, model=ZERO)
        assert stat.makespan > dyn.makespan

    def test_static_assignment_is_contiguous(self):
        res = simulate([1.0] * 12, StaticSchedule(), 3, model=ZERO)
        for cpu in range(3):
            idx = [e.meta["index"] for e in res.timeline if e.cpu == cpu]
            assert idx == list(range(min(idx), max(idx) + 1))


class TestDynamicBehaviour:
    def test_greedy_no_idle_while_work_remains(self):
        # 2 cpus, 4 unit tasks: both busy until the end
        res = simulate([1.0] * 4, DynamicSchedule(1), 2, model=ZERO)
        assert res.makespan == pytest.approx(2.0)

    def test_chunked_dispatch(self):
        res = simulate([1.0] * 6, DynamicSchedule(2), 2, model=ZERO)
        assert len(res.grabs) == 3
        assert all(g.size == 2 for g in res.grabs)

    def test_dispatch_overhead_counted(self):
        model = CostModel(1.0, dispatch_overhead=0.5, steal_overhead=0.0,
                          fork_join_overhead=0.0)
        res = simulate([1.0] * 4, DynamicSchedule(1), 1, model=model)
        # 4 chunks x (0.5 + 1.0)
        assert res.makespan == pytest.approx(6.0)

    def test_smaller_chunks_cost_more_overhead(self):
        model = CostModel(1.0, dispatch_overhead=0.2, steal_overhead=0.0,
                          fork_join_overhead=0.0)
        fine = simulate([1.0] * 32, DynamicSchedule(1), 2, model=model)
        coarse = simulate([1.0] * 32, DynamicSchedule(8), 2, model=model)
        assert fine.makespan > coarse.makespan


class TestGuidedBehaviour:
    def test_chunk_sizes_decrease(self):
        res = simulate([1.0] * 64, GuidedSchedule(1), 4, model=ZERO)
        sizes = res.chunk_sizes()
        assert sizes[0] == 8  # LLVM-style: ceil(remaining / (2 * ncpus))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestNonMonotonicBehaviour:
    def test_no_steals_when_balanced(self):
        res = simulate([1.0] * 8, NonMonotonicDynamic(1), 4, model=ZERO)
        assert res.steals == 0

    def test_steals_correct_imbalance(self):
        # cpu 0's block is heavy; others should steal from it
        costs = [5.0] * 4 + [0.1] * 12
        res = simulate(costs, NonMonotonicDynamic(1), 4, model=ZERO)
        assert res.steals > 0
        ideal = sum(costs) / 4
        assert res.makespan <= 2.5 * ideal

    def test_stolen_marked_in_meta(self):
        costs = [5.0] * 4 + [0.1] * 12
        res = simulate(costs, NonMonotonicDynamic(1), 4, model=ZERO)
        stolen = [e for e in res.timeline if e.meta.get("stolen")]
        assert stolen
        # stolen tasks come from the back of some victim's block
        assert all(e.meta["index"] not in range(0, 4) or e.cpu != 0 for e in stolen)

    def test_steal_half_mode(self):
        costs = [5.0] * 4 + [0.1] * 12
        half = simulate(costs, NonMonotonicDynamic(1, steal_half=True), 4, model=ZERO)
        one = simulate(costs, NonMonotonicDynamic(1), 4, model=ZERO)
        assert half.steals <= one.steals


@settings(max_examples=60, deadline=None)
@given(
    costs=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=60),
    ncpus=st.integers(min_value=1, max_value=8),
    policy_i=st.integers(min_value=0, max_value=len(ALL_POLICIES) - 1),
)
def test_every_policy_schedules_each_item_exactly_once(costs, ncpus, policy_i):
    """Property: completeness + timeline validity for every policy."""
    res = simulate(costs, ALL_POLICIES[policy_i], ncpus, model=ZERO)
    res.timeline.validate()
    indices = sorted(e.meta["index"] for e in res.timeline)
    assert indices == list(range(len(costs)))


@settings(max_examples=40, deadline=None)
@given(
    costs=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=60),
    ncpus=st.integers(min_value=1, max_value=8),
    policy_i=st.integers(min_value=0, max_value=len(ALL_POLICIES) - 1),
)
def test_makespan_bounds(costs, ncpus, policy_i):
    """Property: total_work/p <= makespan <= total_work (no overheads)."""
    res = simulate(costs, ALL_POLICIES[policy_i], ncpus, model=ZERO)
    total = sum(costs)
    assert res.makespan <= total + 1e-9
    assert res.makespan >= total / ncpus - 1e-9
    assert res.makespan >= max(costs) - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    costs=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=40),
    ncpus=st.integers(min_value=1, max_value=6),
)
def test_dynamic_is_greedy(costs, ncpus):
    """Property: under dynamic,1 with no overhead, a CPU is never idle
    while unstarted work exists (list-scheduling 2-approximation bound)."""
    res = simulate(costs, DynamicSchedule(1), ncpus, model=ZERO)
    opt_lb = max(sum(costs) / ncpus, max(costs))
    assert res.makespan <= 2.0 * opt_lb + 1e-9


# ---------------------------------------------------------------------------
# The engine against the heapq event loops of tests/oracles/sched.py
# ---------------------------------------------------------------------------

OVERHEAD_MODELS = [
    ZERO,
    CostModel(seconds_per_unit=1.0, dispatch_overhead=0.25,
              steal_overhead=0.5, fork_join_overhead=0.0),
    DEFAULT_COST_MODEL,
]

#: ALL_POLICIES plus chunks long enough for the np.add.accumulate fold
ORACLE_POLICIES = ALL_POLICIES + [
    StaticSchedule(1),
    DynamicSchedule(40),
    NonMonotonicDynamic(40),
    NonMonotonicDynamic(33, steal_half=True),
]

#: zero, or mantissa x 10^e for e in [-7, 3]: mixed magnitudes are where
#: any reordering of the additions would show up
_COST = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(min_value=1.0, max_value=9.99), st.integers(-7, 3)),
)
#: short lists, and lists long enough for chunks past the accumulate cutoff
COSTS = st.one_of(st.lists(_COST, max_size=40),
                  st.lists(_COST, min_size=64, max_size=200))
START_TIMES = st.sampled_from([0.0, 1.5, 123.456, 7e3])


def _execs(timeline):
    return [(e.item, e.cpu, e.start, e.end, e.meta) for e in timeline]


def _grabs(result):
    return [(g.cpu, g.time, g.chunk, g.stolen, g.size) for g in result.grabs]


@settings(max_examples=150, deadline=None)
@given(
    costs=COSTS,
    ncpus=st.integers(min_value=1, max_value=8),
    policy=st.sampled_from(ORACLE_POLICIES),
    model=st.sampled_from(OVERHEAD_MODELS),
    start_time=START_TIMES,
)
def test_engine_equals_oracle_exactly(costs, ncpus, policy, model, start_time):
    """Property: timeline (order, item, cpu, start, end, meta), grabs,
    steals and makespan all equal the event loop's, float for float."""
    kw = dict(model=model, start_time=start_time, meta={"iteration": 3})
    got = simulate(costs, policy, ncpus, **kw)
    want = oracle.simulate(costs, policy, ncpus, **kw)
    assert _execs(got.timeline) == _execs(want.timeline)
    assert got.timeline.ncpus == want.timeline.ncpus
    assert _grabs(got) == _grabs(want)
    assert got.steals == want.steals
    assert got.makespan == want.makespan


@settings(max_examples=150, deadline=None)
@given(
    costs=COSTS,
    ncpus=st.integers(min_value=1, max_value=8),
    policy=st.sampled_from(ORACLE_POLICIES),
    model=st.sampled_from(OVERHEAD_MODELS),
    start_time=START_TIMES,
)
def test_closed_form_equals_event_loop_exactly(costs, ncpus, policy, model,
                                               start_time):
    """Property: the perf-mode makespan is EXACTLY equal (``==``, not
    approx) to the event loop's — it must not drift by a single ulp, or
    bit-identical virtual clocks across the two engine paths become
    impossible."""
    fast = simulate_makespan(costs, policy, ncpus, model=model,
                             start_time=start_time)
    full = oracle.simulate(costs, policy, ncpus, model=model,
                           start_time=start_time)
    assert fast == (full.timeline.makespan if costs else 0.0)


@settings(max_examples=40, deadline=None)
@given(
    costs=st.lists(
        st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
        min_size=1, max_size=80,
    ),
    ncpus=st.integers(min_value=1, max_value=8),
    policy_i=st.integers(min_value=0, max_value=len(ALL_POLICIES) - 1),
)
def test_closed_form_exact_across_magnitudes(costs, ncpus, policy_i):
    """Property: exactness survives mixed cost magnitudes (catastrophic
    ranges for naive summation reorderings)."""
    policy = ALL_POLICIES[policy_i]
    full = oracle.simulate(costs, policy, ncpus, model=ZERO)
    assert simulate_makespan(costs, policy, ncpus, model=ZERO) == \
        full.timeline.makespan


def test_closed_form_empty_costs():
    assert simulate_makespan([], StaticSchedule(), 4, model=ZERO) == 0.0


class TestStealingClosedForm:
    def test_direct_equality_with_overheads(self):
        model = CostModel(seconds_per_unit=1.0, dispatch_overhead=0.25,
                          steal_overhead=0.5, fork_join_overhead=0.0)
        costs = [5.0] * 4 + [0.1] * 29 + [2.0] * 8
        for policy in (NonMonotonicDynamic(1), NonMonotonicDynamic(2),
                       NonMonotonicDynamic(1, steal_half=True)):
            for ncpus in (1, 2, 3, 7):
                full = oracle.simulate(costs, policy, ncpus, model=model,
                                       start_time=3.25)
                fast = stealing_makespan(costs, policy, ncpus, model,
                                         start_time=3.25)
                assert fast == full.timeline.makespan

    def test_makespan_dispatch_avoids_event_loop(self, monkeypatch):
        """simulate_makespan must route stealing policies to the
        makespan entry — perf mode never builds a timeline."""
        import repro.sched.simulator as simulator

        def boom(*a, **k):  # pragma: no cover - would mean a regression
            raise AssertionError("perf mode built a timeline")

        monkeypatch.setattr(simulator, "simulate_stealing", boom)
        got = simulate_makespan([1.0, 2.0, 3.0], NonMonotonicDynamic(1), 2,
                                model=ZERO)
        assert got == pytest.approx(3.0)


def test_closed_form_rejects_zero_cpus():
    with pytest.raises(SimulationError):
        simulate_makespan([1.0], StaticSchedule(), 0, model=ZERO)
