"""The consumer index and the cleanup state travel with a graph.

`MigGraph.clone` copies them, so a rollout or a `greedy_rules` trial on a
clone of a settled graph continues from the settled state instead of
rescanning every fanin and sweeping every gate. The graphs that callers
keep hold none: `evaluate` drops them from each output it has verified.

The state also shows which gates are live, so `live_ids` and `size`
walk the output cone only when an orphan has neither reader nor output.

One hypothesis test chains one-step rollouts, each starting from the
settled graph the one before returned, against one rollout of as many
steps; another checks `live_ids` and `size` against the walk; a third
steps graphs with 8-64 extra outputs, among them repeated outputs, inputs
and constants, against the frozen reference step and the walk; a fourth
checks that `complement` leaves the state that `set_fanins` plus
`redirect` leave; a fifth rewrites the output list through `set_outputs`,
whose positions are readers in the consumer index, and checks the index
and the live gates against a rebuilt index and the walk. Their example
budget comes from the hypothesis profile in conftest.py.
"""

from dataclasses import asdict

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from migopt import evaluate as ev
from migopt import rewrite as rw
from migopt import trainer
from migopt.datagen import RandomGraphSpec, SopSpec, enumerate_sop3, random_mig, sop_decompose
from migopt.formats import emit_mig
from migopt.mig import MigGraph, lit
from migopt.policy import Hyperparams, PolicyParams

from conftest import crude_random_graph
from test_step_reference import add_redundancy, assert_same_graph, reference_step

PARAMS = PolicyParams.init(Hyperparams(layers=2, hidden=6), seed=11)
# the moves that unlink a footprint node other than the root from the root
UNLINKING = (rw.OmegaAction.ASSOC, rw.OmegaAction.COMPL_ASSOC, rw.OmegaAction.DIST_LR,
             rw.OmegaAction.DIST_RL)


def start_graph(kind: str, inputs: int, gates: int, seed: int) -> MigGraph:
    if kind == "crude":  # dead gates, and collapsible and duplicate live ones
        g = crude_random_graph(inputs, gates, seed)
        add_redundancy(g, seed)
        return g
    if kind == "sop3":
        return sop_decompose(SopSpec(3, seed % 256))
    return random_mig(RandomGraphSpec(50, 3 * inputs, 2, seed))


@settings(deadline=None)  # examples, derandomization and database from the profile
@given(
    kind=st.sampled_from(["crude", "sop3", "random_mig"]),
    greedy=st.booleans(),
    inputs=st.integers(2, 6),
    gates=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 4),
)
def test_chained_one_step_rollouts_equal_one_rollout(kind, greedy, inputs, gates, seed, k):
    g0 = start_graph(kind, inputs, gates, seed)
    text = emit_mig(g0)
    if greedy:
        want, want_reps = trainer.greedy_optimize(g0, PARAMS, k)
    else:
        want, want_reps = trainer.random_rollout(g0, k, np.random.default_rng(seed))
    g, reps, rng = g0, [], np.random.default_rng(seed)
    for _ in range(k):
        if greedy:
            g, step_reps = trainer.greedy_optimize(g, PARAMS, 1)
        else:
            g, step_reps = trainer.random_rollout(g, 1, rng)
        assert g._fanouts is not None and g.pending() == []  # settled, index kept
        reps += step_reps
    assert [asdict(r) for r in reps] == [asdict(r) for r in want_reps]
    assert emit_mig(g) == emit_mig(want)
    assert_same_graph(g, want)  # check() compares both graphs' state with a fresh scan
    assert emit_mig(g0) == text  # the start graph is never mutated


@settings(deadline=None)  # examples, derandomization and database from the profile
@given(
    case=st.sampled_from(["dead gates", "orphaning move", "dropped output", "settled"]),
    stated=st.booleans(),
    inputs=st.integers(2, 6),
    gates=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_live_ids_and_size_agree_with_the_walk(case, stated, inputs, gates, seed, data):
    g = crude_random_graph(inputs, gates, seed)  # dead gates as built
    g.fanouts(0)  # start the cleanup state
    if case != "dead gates":
        rw.step(g, {})  # settled: no dead gate, no orphan
    if case == "orphaning move":
        # a move orphans a footprint node whose only reader was the root
        outs = {s >> 1 for s in g.outputs}
        moves = [
            b for nid in g.maj_ids() for act in UNLINKING
            if (b := rw.match(g, nid, act))
            and any(f != nid and f not in outs and g.fanouts(f) == [nid] for f in b[1])
        ]
        if moves:
            rw.apply_omega(g, data.draw(st.sampled_from(moves), label="move"))
    elif case == "dropped output":
        kept = data.draw(st.integers(0, len(g.outputs) - 1), label="kept output")
        g.set_outputs([g.outputs[kept]])
    if not stated:
        g.drop_fanout_index()
    want = sorted(n for n in g.reachable_nodes() if n > g.pi_count)
    assert g.size() == len(want)
    if not stated:  # a graph without state is walked and left without it
        assert (g._fanouts, g._dirty, g._orphans, g._strash) == (None,) * 4
    assert g.live_ids() == want
    assert g.size() == len(want)  # with the state `live_ids` started
    g.check()


@settings(deadline=None)  # examples, derandomization and database from the profile
@given(
    inputs=st.integers(2, 6),
    gates=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    redundant=st.booleans(),
    indexed=st.booleans(),
    extra=st.integers(8, 64),
    data=st.data(),
)
def test_steps_on_many_outputs_match_the_reference(
    inputs, gates, seed, redundant, indexed, extra, data
):
    g = crude_random_graph(inputs, gates, seed)  # dead gates as built
    if redundant:
        add_redundancy(g, seed)
    if indexed:  # the appended outputs then go through a maintained index
        g.fanouts(0)
    # outputs on every kind of node: a repeated one, an input plain and
    # complemented, both constants, and drawn literals of any node
    drawn = data.draw(
        st.lists(
            st.builds(lit, st.sampled_from(list(g.nodes)), st.booleans()),
            min_size=extra - 5,
            max_size=extra - 5,
        ),
        label="drawn outputs",
    )
    k = data.draw(st.integers(1, inputs), label="input")
    fixed = [g.outputs[0], g.pi(k), g.pi(k) ^ 1, lit(0), lit(0, True)]
    g.set_outputs([*g.outputs, *data.draw(st.permutations(fixed + drawn), label="order")])
    want, got = g.clone(), g.clone()
    for _ in range(data.draw(st.integers(1, 4), label="steps")):
        # centers: terminals, live and dead gates, and ids no node has yet
        ids = data.draw(
            st.lists(st.integers(0, want._next_id + 2), max_size=len(want.nodes) + 3),
            label="centers",
        )
        acts = data.draw(
            st.lists(st.sampled_from(rw.OmegaAction), min_size=len(ids), max_size=len(ids)),
            label="actions",
        )
        actions = dict(zip(ids, acts))
        assert asdict(rw.step(got, actions)) == asdict(reference_step(want, actions))
        assert_same_graph(got, want)
        walk = sorted(n for n in got.reachable_nodes() if n > got.pi_count)
        assert got.live_ids() == walk
        assert got.size() == len(walk)


@settings(deadline=None)  # examples, derandomization and database from the profile
@given(
    inputs=st.integers(2, 6),
    gates=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    redundant=st.booleans(),
    state=st.sampled_from(["none", "built", "settled"]),
    twice=st.booleans(),
    named=st.booleans(),
    data=st.data(),
)
def test_complement_is_set_fanins_then_redirect(
    inputs, gates, seed, redundant, state, twice, named, data
):
    g = crude_random_graph(inputs, gates, seed)  # dead gates as built
    if redundant:
        add_redundancy(g, seed)
    if state == "settled":  # every gate hashed, so the hash loses entries
        rw.step(g, {})
        assume(g.maj_ids())
    elif state == "built":  # the additions below then go through the index
        g.fanouts(0)
    nid = data.draw(st.sampled_from(g.maj_ids()), label="node")
    if twice:  # a reader that reads the node on two ports, in either polarity
        other = data.draw(st.sampled_from([n for n in g.nodes if n != nid]), label="other")
        ports = [lit(nid), lit(nid, data.draw(st.booleans(), label="neg")), lit(other)]
        g.add_majority(*data.draw(st.permutations(ports), label="ports"))
    if named:  # a repeated output, a complemented one, and an input
        k = data.draw(st.integers(1, inputs), label="input")
        named_outs = [lit(nid), lit(nid), lit(nid, True), g.pi(k)]
        g.set_outputs([*g.outputs, *data.draw(st.permutations(named_outs), label="order")])
    want, got = g.clone(), g.clone()
    a, b, c = want.nodes[nid]
    want.set_fanins(nid, (a ^ 1, b ^ 1, c ^ 1))
    want.redirect({nid: lit(nid, True)})
    got.complement(nid)
    assert list(got.nodes.items()) == list(want.nodes.items())
    assert got.outputs == want.outputs
    assert {n: got.fanouts(n) for n in got.nodes} == {n: want.fanouts(n) for n in want.nodes}
    assert got.pending() == want.pending()
    assert got._strash == want._strash
    assert got._orphans == want._orphans
    got.check()
    assert got.simulate_signatures(seed, 64) == g.simulate_signatures(seed, 64)


@settings(deadline=None)  # examples, derandomization and database from the profile
@given(
    inputs=st.integers(2, 6),
    gates=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    state=st.sampled_from(["none", "built", "settled"]),
    data=st.data(),
)
def test_set_outputs_keeps_the_index_and_the_live_gates(inputs, gates, seed, state, data):
    g = crude_random_graph(inputs, gates, seed)  # dead gates as built
    if state == "settled":
        rw.step(g, {})
    elif state == "built":  # the writes below then go through the index
        g.fanouts(0)
    for _ in range(data.draw(st.integers(1, 3), label="writes")):
        terminals = [lit(n, neg) for n in range(g.pi_count + 1) for neg in (False, True)]
        literal = st.sampled_from(terminals) | st.builds(
            lit, st.sampled_from(list(g.nodes)), st.booleans()
        )
        outs = list(g.outputs)
        edit = data.draw(
            st.sampled_from(["shrink", "grow", "repeat", "move", "complement", "any"]),
            label="edit",
        )
        if edit == "shrink" and outs:  # drop a run of positions, perhaps all
            i = data.draw(st.integers(0, len(outs) - 1), label="from")
            del outs[i : data.draw(st.integers(i + 1, len(outs)), label="to")]
        elif edit == "grow":
            outs += data.draw(st.lists(literal, min_size=1, max_size=8), label="added")
        elif edit == "repeat" and outs:
            at = data.draw(st.integers(0, len(outs)), label="at")
            outs.insert(at, data.draw(st.sampled_from(outs), label="repeated"))
        elif edit == "move":  # each node to other positions
            outs = data.draw(st.permutations(outs), label="order")
        elif edit == "complement" and outs:
            outs[data.draw(st.integers(0, len(outs) - 1), label="position")] ^= 1
        else:  # any list: constants, inputs and gates, in either polarity
            outs = data.draw(st.lists(literal, max_size=len(outs) + 8), label="outputs")
        g.set_outputs(outs)
        g.check()
        rebuilt = g.clone()
        rebuilt.drop_fanout_index()
        assert {n: g.fanouts(n) for n in g.nodes} == {n: rebuilt.fanouts(n) for n in g.nodes}
        want = sorted(n for n in g.reachable_nodes() if n > g.pi_count)
        assert g.live_ids() == want
        assert g.size() == len(want)
        g.remove_orphans()
        assert g.maj_ids() == want
        g.check()


def test_a_clone_of_a_settled_graph_needs_no_sweep(monkeypatch):
    g = crude_random_graph(5, 40, 3)
    add_redundancy(g, 3)
    rw.step(g, {})
    h = g.clone()
    h.check()  # the copied index and cleanup state agree with a fresh scan
    assert all(h._fanouts[p] is not users for p, users in g._fanouts.items())  # copied
    hashed = []
    hash_node = MigGraph.hash_node

    def counted(self, nid):
        hashed.append(nid)
        return hash_node(self, nid)

    monkeypatch.setattr(MigGraph, "hash_node", counted)
    assert rw.lambda_fixpoint(h) == (0, 0)
    assert hashed == []
    h.drop_fanout_index()  # with no state, every node is pending again
    assert rw.lambda_fixpoint(h) == (0, 0)
    assert sorted(hashed) == h.maj_ids()


def test_a_clone_keeps_its_state_apart_from_the_original():
    g = crude_random_graph(4, 20, 6)
    rw.step(g, {})
    h = g.clone()
    nid = h.maj_ids()[-1]
    h.set_fanins(nid, (h.pi(1), h.pi(2) ^ 1, h.pi(3)))
    h.set_outputs([h.pi(4)])
    assert h.pending() == [nid]
    assert g.pending() == []
    g.check()  # the original's index and state still match its own fanins
    rw.step(h, {})
    h.check()
    assert h.maj_ids() == []


def test_greedy_rules_returns_its_graph_settled():
    for name, g in enumerate_sop3()[::37]:
        out = ev.greedy_rules(g)
        assert out._fanouts is not None and out.pending() == [], name
        out.check()
        assert g._fanouts is None  # the dataset graph is left as it was


def test_evaluate_drops_the_index_of_every_output_it_verified():
    data = [*enumerate_sop3()[::51], ("rand", random_mig(RandomGraphSpec(30, 8, 2, 4)))]
    for opt in (ev.policy_optimizer(PARAMS), ev.random_policy(5), ev.greedy_rules_optimizer()):
        kept = []

        def keep(g, steps, idx, opt=opt):
            kept.append(opt(g, steps, idx))
            return kept[-1]

        ev.evaluate(data, keep, ev.EvalConfig(steps=3))
        assert len(kept) == len(data)
        for out in kept:
            assert (out._fanouts, out._dirty, out._orphans, out._strash) == (None,) * 4
