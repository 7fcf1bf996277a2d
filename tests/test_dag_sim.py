"""Tests for DAG list scheduling (the omp-task runtime model)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sched.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sched.dag_sim import dag_policy_makespan, simulate_dag, simulate_dag_policy
from repro.sched.policies import parse_schedule
from repro.sched.taskgraph import TaskGraph
from tests.oracles import sched as oracle

ZERO = CostModel(1.0, 0.0, 0.0, 0.0)


def wavefront_graph(n: int, cost: float = 1.0) -> tuple[TaskGraph, dict]:
    g = TaskGraph()
    tid = {}
    for i in range(n):
        for j in range(n):
            tid[i, j] = g.add_task(
                (i, j), cost=cost, reads=[(i - 1, j), (i, j - 1)], writes=[(i, j)]
            )
    return g, tid


class TestBasics:
    def test_empty_graph(self):
        tl = simulate_dag(TaskGraph(), 4, model=ZERO)
        assert len(tl) == 0

    def test_chain_is_sequential(self):
        g = TaskGraph()
        a = g.add_task("a", cost=1.0)
        b = g.add_task("b", cost=2.0, depends_on=[a])
        c = g.add_task("c", cost=3.0, depends_on=[b])
        tl = simulate_dag(g, 4, model=ZERO)
        assert tl.makespan == pytest.approx(6.0)

    def test_independent_tasks_run_in_parallel(self):
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, cost=1.0)
        tl = simulate_dag(g, 4, model=ZERO)
        assert tl.makespan == pytest.approx(1.0)

    def test_bad_ncpus(self):
        with pytest.raises(SimulationError):
            simulate_dag(TaskGraph(), 0)

    def test_meta_merged(self):
        g = TaskGraph()
        g.add_task("a", cost=1.0, meta={"phase": "dr"})
        tl = simulate_dag(g, 1, model=ZERO, meta={"iteration": 3})
        e = tl.execs[0]
        assert e.meta["iteration"] == 3 and e.meta["phase"] == "dr"


class TestDependencyRespect:
    def test_preds_finish_first(self):
        g, tid = wavefront_graph(4)
        tl = simulate_dag(g, 3, model=ZERO)
        end = {e.meta["tid"]: e.end for e in tl}
        start = {e.meta["tid"]: e.start for e in tl}
        for node in g.nodes:
            for p in node.preds:
                assert end[p] <= start[node.tid] + 1e-9

    def test_wavefront_makespan(self):
        # n x n unit-cost wavefront on enough cpus: critical path = 2n-1
        g, _ = wavefront_graph(5)
        tl = simulate_dag(g, 16, model=ZERO)
        assert tl.makespan == pytest.approx(9.0)

    def test_single_cpu_is_total_work(self):
        g, _ = wavefront_graph(3)
        tl = simulate_dag(g, 1, model=ZERO)
        assert tl.makespan == pytest.approx(9.0)

    def test_overconstrained_graph_serializes(self):
        """The classic student bug (paper §III-C): depending on the
        previous task in submission order makes execution sequential —
        visible as makespan == total work even with many CPUs."""
        g = TaskGraph()
        prev = None
        for i in range(9):
            prev = g.add_task(i, cost=1.0, depends_on=[] if prev is None else [prev])
        tl = simulate_dag(g, 8, model=ZERO)
        assert tl.makespan == pytest.approx(9.0)

    def test_wave_order_visible_in_timeline(self):
        g, tid = wavefront_graph(4)
        tl = simulate_dag(g, 4, model=ZERO)
        start = {e.meta["tid"]: e.start for e in tl}
        # tasks on a later anti-diagonal never start before all tasks of
        # the 2-earlier diagonal have started (the Fig. 12 wave)
        for (i, j), t in tid.items():
            for (k, l), u in tid.items():
                if k + l >= i + j + 2:
                    assert start[u] >= start[t] - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    ncpus=st.integers(min_value=1, max_value=8),
    costs_seed=st.integers(min_value=0, max_value=1000),
)
def test_dag_sim_invariants(n, ncpus, costs_seed):
    """Property: validity + dependency respect + greedy bound on wavefronts."""
    rnd = random.Random(costs_seed)
    g = TaskGraph()
    for i in range(n):
        for j in range(n):
            g.add_task((i, j), cost=rnd.uniform(0.1, 2.0),
                       reads=[(i - 1, j), (i, j - 1)], writes=[(i, j)])
    tl = simulate_dag(g, ncpus, model=ZERO)
    tl.validate()
    assert len(tl) == n * n
    end = {e.meta["tid"]: e.end for e in tl}
    start = {e.meta["tid"]: e.start for e in tl}
    for node in g.nodes:
        for p in node.preds:
            assert end[p] <= start[node.tid] + 1e-9
    total = sum(node.cost for node in g.nodes)
    cp = g.critical_path_time()
    # Graham bound for greedy list scheduling
    assert tl.makespan <= total / ncpus + cp + 1e-9
    assert tl.makespan >= max(cp, total / ncpus) - 1e-9


# ---------------------------------------------------------------------------
# The DAG engine against the heapq event loops of tests/oracles/sched.py
# ---------------------------------------------------------------------------

ORACLE_MODELS = [ZERO, CostModel(1.0, 0.25, 0.5, 0.0), DEFAULT_COST_MODEL]
ORACLE_SPECS = ["static", "static,1", "static,3", "dynamic", "dynamic,4",
                "guided", "nonmonotonic:dynamic", "nonmonotonic:dynamic,2"]


@st.composite
def random_dags(draw):
    """``(costs, preds)`` of a random DAG whose indices are a topological
    order; costs mix magnitudes from 1e-7 to 1e3."""
    n = draw(st.integers(min_value=0, max_value=40))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.8]))
    costs = [rnd.choice([0.0, rnd.uniform(1.0, 9.99) * 10.0 ** rnd.randint(-7, 3)])
             for _ in range(n)]
    preds = [sorted(p for p in range(i) if rnd.random() < density) for i in range(n)]
    return costs, preds


def _execs(timeline):
    return [(e.item, e.cpu, e.start, e.end, e.meta) for e in timeline]


@settings(max_examples=200, deadline=None)
@given(dag=random_dags(), ncpus=st.integers(min_value=1, max_value=8),
       model=st.sampled_from(ORACLE_MODELS),
       start_time=st.sampled_from([0.0, 1.5, 7e3]))
def test_simulate_dag_equals_oracle_exactly(dag, ncpus, model, start_time):
    """Property: FIFO list scheduling of a TaskGraph equals the event
    loop's timeline (dispatch order, item, cpu, start, end, meta)."""
    costs, preds = dag
    g = TaskGraph()
    for i, c in enumerate(costs):
        g.add_task(("t", i), cost=c, depends_on=preds[i], meta={"w": i})
    kw = dict(model=model, start_time=start_time, meta={"iteration": 2})
    got = simulate_dag(g, ncpus, **kw)
    want = oracle.simulate_dag(g, ncpus, **kw)
    assert _execs(got) == _execs(want)
    assert got.ncpus == want.ncpus


@settings(max_examples=200, deadline=None)
@given(dag=random_dags(), ncpus=st.integers(min_value=1, max_value=8),
       spec=st.sampled_from(ORACLE_SPECS), model=st.sampled_from(ORACLE_MODELS),
       start_time=st.sampled_from([0.0, 1.5, 7e3]))
def test_dag_policy_equals_oracle_exactly(dag, ncpus, spec, model, start_time):
    """Property: policy-aware DAG scheduling (timeline and makespan)
    equals the event loop's, float for float, for every policy."""
    costs, preds = dag
    policy = parse_schedule(spec)
    kw = dict(model=model, start_time=start_time)
    got = simulate_dag_policy(costs, preds, policy, ncpus, meta={"k": 1}, **kw)
    want = oracle.simulate_dag_policy(costs, preds, policy, ncpus, meta={"k": 1}, **kw)
    assert _execs(got) == _execs(want)
    assert got.ncpus == want.ncpus
    assert dag_policy_makespan(costs, preds, policy, ncpus, **kw) == want.makespan


def test_dag_policy_rejects_non_topological_preds():
    with pytest.raises(SimulationError):
        dag_policy_makespan([1.0, 1.0], [[1], []], parse_schedule("dynamic"), 2)
