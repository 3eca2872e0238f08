"""Property tests: random action sequences keep function and structure."""

from hypothesis import given, settings
from hypothesis import strategies as st

from migopt import rewrite as rw
from migopt.rewrite import OmegaAction

from conftest import crude_random_graph


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    inputs=st.integers(2, 6),
    gates=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_steps_keep_function_and_fanout_index(inputs, gates, seed, data):
    g = crude_random_graph(inputs, gates, seed)
    g.fanouts(0)  # build the index, so check() compares it with a fresh scan
    ref = g.simulate_truth_tables()
    steps = data.draw(st.integers(1, 6), label="steps")
    for t in range(steps):
        if t == steps // 2:
            maintained = g
            g = g.clone()
            g.drop_fanout_index()  # rebuild it from the fanins
            assert all(g.fanouts(n) == maintained.fanouts(n) for n in g.nodes)
        ids = g.maj_ids()
        acts = data.draw(
            st.lists(st.sampled_from(OmegaAction), min_size=len(ids), max_size=len(ids)),
            label="actions",
        )
        rw.step(g, dict(zip(ids, acts)))
        g.check()
        assert set(g.maj_ids()) <= g.reachable_nodes()  # rollout acts on maj_ids()
        assert g.simulate_truth_tables() == ref
        swept = g.clone()
        swept.drop_fanout_index()  # a full sweep: every node pending
        assert rw.lambda_fixpoint(swept) == (0, 0)
