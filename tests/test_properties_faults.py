"""Properties of the radio fault model.

``FaultPlan.down_at`` — the whole-fleet form the broadcast paths use —
is the set its scalar definition ``is_down`` describes; and the
hardened protocol re-converges once faults cease:

Hypothesis draws a workload, a fault seed, and loss/duplication rates;
the plan's ``until_tick`` makes the probabilistic faults stop partway
through the run. From that point the self-healing machinery (acked
installs, lease heartbeats, violation re-reports) must drive every
published answer back to exactness within a bounded settle window —
empirically the last wrong tick is ``until_tick`` itself, but the bound
here allows a few lease/ack periods of slack so the test pins recovery,
not a specific convergence speed.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.metrics.accuracy import is_valid_knn
from repro.net.faults import FaultPlan
from repro.workloads import WorkloadSpec, build_workload

FAULTY_TICKS = 25
SETTLE_TICKS = 20  # >> lease (6) + ack timeout (2) + violation retry (2)

_node_ids = st.integers(min_value=-1, max_value=10)  # -1: the server
_windows = st.tuples(
    _node_ids, st.integers(0, 30), st.integers(1, 10)
).map(lambda w: (w[0], w[1], w[1] + w[2]))


@given(
    blackouts=st.lists(_windows, max_size=8),
    crashes=st.lists(st.tuples(_node_ids, st.integers(0, 40)), max_size=4),
    tick=st.integers(0, 45),
)
def test_down_at_is_the_set_is_down_defines(blackouts, crashes, tick):
    plan = FaultPlan(blackouts=tuple(blackouts), crashes=tuple(crashes))
    assert plan.down_at(tick) == {
        node for node in range(-1, 11) if plan.is_down(node, tick)
    }


scenario = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "fault_seed": st.integers(min_value=0, max_value=10_000),
        "drop": st.floats(min_value=0.0, max_value=0.5),
        "dup": st.floats(min_value=0.0, max_value=0.2),
        "delay": st.floats(min_value=0.0, max_value=0.2),
    }
)


@given(scenario)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_hardened_dknn_reconverges_after_faults_cease(s):
    total = FAULTY_TICKS + SETTLE_TICKS
    spec = WorkloadSpec(
        n_objects=60,
        n_queries=2,
        k=4,
        ticks=total,
        warmup_ticks=1,
        seed=s["seed"],
        universe_size=3_000.0,
    )
    fleet, queries = build_workload(spec)
    plan = FaultPlan(
        seed=s["fault_seed"],
        drop_uplink=s["drop"],
        drop_downlink=s["drop"],
        dup_prob=s["dup"],
        delay_prob=s["delay"],
        until_tick=FAULTY_TICKS,
    )
    cfg = RunConfig(
        "DKNN-P",
        faults=plan,
        params=dict(
            fault_tolerant=True,
            ack_timeout=2,
            lease_ticks=6,
            violation_retry=2,
        ),
    )
    sim = build_system(cfg, fleet, queries)
    wrong_after_settle = []

    def check(sim_):
        if sim_.tick <= FAULTY_TICKS + SETTLE_TICKS // 2:
            return
        positions = fleet.positions
        for q in queries:
            qx, qy = positions[q.focal_oid]
            answer = sim_.server.answers[q.qid]
            if not is_valid_knn(
                positions, qx, qy, q.k, answer, {q.focal_oid}
            ):
                wrong_after_settle.append((sim_.tick, q.qid))

    sim.run(total, on_tick=check)
    assert not wrong_after_settle, (
        f"answers still wrong after settle window: {wrong_after_settle}; "
        f"plan={plan!r}"
    )
