import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migopt.datagen import RandomGraphSpec, SopSpec, random_mig, sop_decompose
from migopt.formats import emit_mig
from migopt.mig import MAX_INPUTS, MigError, MigGraph, lit, new_graph, pi_pattern
from migopt import rewrite as rw

from conftest import crude_random_graph


def brute_table(fn, n):
    """Independent oracle: evaluate fn over all n-input assignments."""
    bits = 0
    for r in range(1 << n):
        vals = [(r >> k) & 1 for k in range(n)]
        if fn(*vals):
            bits |= 1 << r
    return bits


def test_new_graph_shapes():
    assert len(new_graph(0).nodes) == 1
    assert new_graph(0).size() == 0
    g = new_graph(3)
    assert len(g.nodes) == 4 and g.size() == 0
    assert len(new_graph(100).nodes) == 101


def test_new_graph_bounds_its_input_count():
    assert len(new_graph(MAX_INPUTS).nodes) == MAX_INPUTS + 1
    for count in (-1, MAX_INPUTS + 1, 10**12):
        with pytest.raises(MigError, match=f"pi_count must be from 0 to {MAX_INPUTS}"):
            MigGraph(count)


def test_add_majority_and_or():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    o = g.add_or(g.pi(1), g.pi(2))
    g.set_outputs([a, o])
    ta, to = g.simulate_truth_tables()
    assert ta == brute_table(lambda x1, x2: x1 and x2, 2) == 0b1000
    assert to == brute_table(lambda x1, x2: x1 or x2, 2) == 0b1110


def test_majority_table():
    g = new_graph(3)
    m = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g.set_outputs([m])
    want = brute_table(lambda a, b, c: a + b + c >= 2, 3)
    assert g.simulate_truth_tables() == [want]
    assert want == 0xE8


def test_complemented_output():
    g = new_graph(1)
    g.set_outputs([g.pi(1) ^ 1])
    assert g.simulate_truth_tables() == [0b01]


def test_add_majority_rejects_dead_fanin():
    g = new_graph(2)
    with pytest.raises(MigError):
        g.add_majority(g.pi(1), g.pi(2), lit(99, False))


def test_writers_reject_complemented_by_tilde_and_removed_literals():
    # bitwise not on a literal s is no complement: it gives -s - 1, which names no node
    g = new_graph(3)
    a = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    b = g.add_majority(a, g.pi(2), g.pi(3))
    gone = g.add_majority(g.pi(1), g.pi(2), g.pi(3) ^ 1)
    g.remove(gone >> 1)
    for bad in (-g.pi(1) - 1, -a - 1, -g.const0() - 1, gone, gone ^ 1):
        with pytest.raises(MigError):
            g.add_majority(g.pi(1), bad, g.pi(2))
        with pytest.raises(MigError):
            g.set_fanins(b >> 1, (a, g.pi(1), bad))
        with pytest.raises(MigError):
            g.set_outputs([b, bad])
    assert g.nodes[b >> 1] == (a, g.pi(2), g.pi(3))
    assert g.outputs == []
    g.check()


def test_literal_encoding():
    g = new_graph(2)
    assert (g.const0(), g.const1(), g.pi(1), g.pi(2)) == (0, 1, 2, 4)
    assert (lit(3), lit(3, True), lit(0, True)) == (6, 7, 1)
    m = g.add_majority(g.pi(1), g.pi(2) ^ 1, g.const1())
    assert m == lit(3) and m ^ 1 == lit(3, True)
    assert g.nodes[3] == (2, 5, 1)


def test_pi_out_of_range():
    g = new_graph(2)
    with pytest.raises(MigError):
        g.pi(3)


def test_size_counts_only_reachable():
    g = new_graph(3)
    a = g.add_and(g.pi(1), g.pi(2))
    o = g.add_or(a, g.pi(3))
    g.add_majority(g.pi(1), g.pi(2), g.pi(3))  # dead
    g.set_outputs([o])
    assert g.size() == 2
    assert len(g.maj_ids()) == 3


def test_size_zero_with_pi_output():
    g = new_graph(5)
    g.set_outputs([g.pi(3)])
    assert g.size() == 0


def test_size_invariant_under_unreachable_nodes():
    for seed in range(5):
        g = crude_random_graph(6, 15, seed)
        s = g.size()
        g.add_majority(g.pi(1), g.pi(2), g.const0())
        assert g.size() == s


def test_truth_table_row_convention():
    # row r must assign PI_k = bit (k-1) of r
    g = new_graph(3)
    g.set_outputs([g.pi(1), g.pi(2), g.pi(3)])
    t1, t2, t3 = g.simulate_truth_tables()
    assert t1 == pi_pattern(1, 3) == 0xAA
    assert t2 == pi_pattern(2, 3) == 0xCC
    assert t3 == pi_pattern(3, 3) == 0xF0


def test_simulate_rejects_wide_graphs():
    g = new_graph(17)
    g.set_outputs([g.pi(1)])
    with pytest.raises(MigError):
        g.simulate_truth_tables()


def test_signature_determinism_and_const():
    g = crude_random_graph(8, 20, 3)
    s1 = g.simulate_signatures(seed=5, width=128)
    s2 = g.simulate_signatures(seed=5, width=128)
    assert s1 == s2

    gc = new_graph(2)
    gc.set_outputs([gc.const0()])
    assert gc.simulate_signatures(seed=1, width=64) == [0]


def test_signature_width_floor():
    g = new_graph(2)
    g.set_outputs([g.pi(1)])
    with pytest.raises(MigError):
        g.simulate_signatures(seed=0, width=32)


def test_signatures_agree_with_truth_tables():
    # each signature column must equal the truth-table row the random
    # patterns select
    for seed in range(4):
        g = crude_random_graph(7, 18, 100 + seed)
        tts = g.simulate_truth_tables()
        width = 96
        sig = g.simulate_signatures(seed=seed, width=width)
        pi_bits = {}
        rng = random.Random(seed)
        for k in range(1, g.pi_count + 1):
            pi_bits[k] = rng.getrandbits(width)
        for j in range(width):
            row = 0
            for k in range(1, g.pi_count + 1):
                row |= ((pi_bits[k] >> j) & 1) << (k - 1)
            for tt, out_bits in zip(tts, sig):
                assert (out_bits >> j) & 1 == (tt >> row) & 1


def test_majority_identities_bitwise():
    # M(x,x,z) == x and M(x,!x,z) == z under simulation
    for seed in range(5):
        g = crude_random_graph(5, 10, 200 + seed)
        maj = g.maj_ids()
        rng = random.Random(seed)
        x = lit(rng.choice(maj), rng.random() < 0.5)
        z = g.pi(rng.randrange(5) + 1)
        a = g.add_majority(x, x, z)
        b = g.add_majority(x, x ^ 1, z)
        g.set_outputs([a, b, x, z])
        ta, tb, tx, tz = g.simulate_truth_tables()
        assert ta == tx
        assert tb == tz


def test_reachable_excludes_unreferenced():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    g.add_or(g.pi(1), g.pi(2))  # never an output
    g.set_outputs([a])
    reach = g.reachable_nodes()
    assert a >> 1 in reach
    assert len([n for n in reach if n > g.pi_count]) == 1


def test_topological_order_chain():
    g = new_graph(1)
    a = g.add_and(g.pi(1), g.const1())
    b = g.add_and(a, g.const1())
    c = g.add_and(b, g.const1())
    g.set_outputs([c])
    order = g.topological_order()
    assert order.index(a >> 1) < order.index(b >> 1) < order.index(c >> 1)


def test_fanout_index_follows_mutations():
    g = new_graph(3)
    a = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    b = g.add_majority(a, a, g.pi(1) ^ 1)  # reads a on two ports
    assert g.fanouts(a >> 1) == [b >> 1]
    assert g.fanouts(1) == [a >> 1, b >> 1]
    c = g.add_majority(g.pi(2), a, g.pi(3))  # built index kept current
    assert g.fanouts(a >> 1) == [b >> 1, c >> 1]
    g.set_fanins(b >> 1, (g.pi(3), g.pi(2), g.pi(1) ^ 1))
    assert g.fanouts(a >> 1) == [c >> 1]
    assert g.fanouts(2) == [a >> 1, b >> 1, c >> 1]
    g.set_fanins(a >> 1, (g.pi(1), g.pi(3), g.const1()))
    assert g.fanouts(2) == [b >> 1, c >> 1]
    assert g.fanouts(0) == [a >> 1]
    g.set_outputs([c])
    g.check()
    g.remove(b >> 1)
    assert g.fanouts(1) == [a >> 1]
    assert g.fanouts(3) == [a >> 1, c >> 1]
    g.check()
    with pytest.raises(MigError):
        g.fanouts(b >> 1)
    with pytest.raises(MigError):
        g.set_fanins(c >> 1, (b, g.pi(1), g.pi(2)))
    h = g.clone()
    assert all(h.fanouts(nid) == g.fanouts(nid) for nid in g.nodes)


def _redirect_graph():
    g = new_graph(3)
    a = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    b = g.add_majority(g.pi(1) ^ 1, g.pi(2), g.pi(3))
    c = g.add_majority(a, a ^ 1, g.pi(3))  # reads a on two ports
    d = g.add_majority(c, a, b)
    g.set_outputs([a ^ 1, d, g.pi(1)])
    g.fanouts(0)  # build the index, so redirect must keep it current
    return g, a, b, c, d


def test_redirect_moves_each_reader_once_to_a_complemented_target():
    g, a, b, c, d = _redirect_graph()
    g.redirect(a >> 1, b ^ 1)
    assert g.nodes[c >> 1] == (b ^ 1, b, g.pi(3))  # both ports, each flipped once
    assert g.nodes[d >> 1] == (c, b ^ 1, b)
    assert g.outputs == [b, d, g.pi(1)]
    assert g.nodes[a >> 1] == (g.pi(1), g.pi(2), g.pi(3))  # the mapped node stays
    assert g.fanouts(a >> 1) == [] and g.fanouts(b >> 1) == [c >> 1, d >> 1]
    g.check()  # the index equals a fresh scan


def test_redirect_to_the_complement_of_the_node_itself():
    # the form inverter propagation uses: every reader takes the other polarity
    g, a, b, c, d = _redirect_graph()
    g.drop_fanout_index()  # redirect builds it
    g.redirect(a >> 1, a ^ 1)
    assert g.nodes[c >> 1] == (a ^ 1, a, g.pi(3))
    assert g.nodes[d >> 1] == (c, a ^ 1, b)
    assert g.outputs == [a, d, g.pi(1)]
    g.check()


def test_redirect_checks_its_target_before_any_write():
    g, a, b, c, d = _redirect_graph()
    gone = g.add_majority(g.pi(1), g.pi(2) ^ 1, g.pi(3))
    g.remove(gone >> 1)
    nodes, outputs = dict(g.nodes), list(g.outputs)
    for target in (gone, lit(g._next_id), -b - 1):  # a dead node, one not yet made, no literal
        with pytest.raises(MigError, match=f"literal {target} references a dead"):
            g.redirect(a >> 1, target)
        assert g.nodes == nodes and g.outputs == outputs
    g.check()


def test_complement_flips_the_node_and_each_edge_and_output_naming_it():
    g, a, b, c, d = _redirect_graph()
    g.outputs = [a ^ 1, d, g.pi(1), a, a ^ 1]  # a named plain and complemented, repeated
    tables = g.simulate_truth_tables()
    g.complement(a >> 1)
    assert g.nodes[a >> 1] == (g.pi(1) ^ 1, g.pi(2) ^ 1, g.pi(3) ^ 1)
    assert g.nodes[c >> 1] == (a ^ 1, a, g.pi(3))  # both ports
    assert g.nodes[d >> 1] == (c, a ^ 1, b)
    assert g.outputs == [a, d, g.pi(1), a ^ 1, a]
    assert g.simulate_truth_tables() == tables  # every reader computes what it did
    g.check()
    for nid in (1, 0, g._next_id):  # an input, the constant, no node
        with pytest.raises(MigError, match="not a live majority node"):
            g.complement(nid)


def test_set_fanins_rejects_a_wrong_arity():
    g = new_graph(3)
    a = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    b = g.add_majority(a, g.pi(1), g.pi(2) ^ 1)
    g.set_outputs([b])
    g.fanouts(a >> 1)  # build the index, so a bad write could reach it
    index = {p: set(users) for p, users in g._fanouts.items()}  # copy the sets too
    nodes, tables = dict(g.nodes), g.simulate_truth_tables()
    for fanins in ((g.pi(1), g.pi(2)), (a, g.pi(1), g.pi(2), g.pi(3))):
        with pytest.raises(MigError):
            g.set_fanins(b >> 1, fanins)
        assert g.nodes == nodes and g._fanouts == index
    g.check()
    assert g.simulate_truth_tables() == tables


def test_set_fanins_rejects_a_self_loop():
    g = new_graph(3)
    a = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    b = g.add_majority(a, g.pi(1), g.pi(2) ^ 1)
    g.set_outputs([b])
    g.fanouts(a >> 1)  # build the index, so a bad write could reach it
    index = {p: set(users) for p, users in g._fanouts.items()}  # copy the sets too
    nodes, tables = dict(g.nodes), g.simulate_truth_tables()
    for fanins in ((b, g.pi(1), g.pi(2)), (a, b ^ 1, g.pi(3)), (a, g.pi(1), b)):
        with pytest.raises(MigError):
            g.set_fanins(b >> 1, fanins)
        assert g.nodes == nodes and g._fanouts == index
    g.check()
    assert g.simulate_truth_tables() == tables


def _raises_exactly(msg, write, *args):
    with pytest.raises(MigError) as err:
        write(*args)
    assert str(err.value) == msg


def test_fused_literal_checks_name_the_first_bad_literal():
    # one test covers all three literals; a failing one falls back to the
    # per-literal loop, whose message names the first bad port
    g = new_graph(3)
    a = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    b = g.add_majority(a, g.pi(1), g.pi(2) ^ 1)
    gone = g.add_majority(g.pi(1), g.pi(2), g.pi(3) ^ 1)
    g.remove(gone >> 1)
    g.set_outputs([b])
    g.fanouts(0)  # build the index, so a bad write could reach it
    index = {p: set(users) for p, users in g._fanouts.items()}
    nodes, next_id = dict(g.nodes), g._next_id
    good = (a, g.pi(1), g.pi(2) ^ 1)

    def dead_msg(s):
        return f"literal {s} references a dead or unknown node"

    self_msg = f"node {b >> 1} cannot read itself"
    bad = {gone ^ 1: dead_msg(gone ^ 1), -a - 1: dead_msg(-a - 1), b ^ 1: self_msg}
    for i in range(3):
        for lit_i, msg in bad.items():
            fanins = list(good)
            fanins[i] = lit_i
            _raises_exactly(msg, g.set_fanins, b >> 1, tuple(fanins))
            if msg != self_msg:  # a new node cannot read itself
                _raises_exactly(msg, g.add_majority, *fanins)
            for j in range(3):  # a second bad literal, before or after
                for lit_j, msg_j in bad.items():
                    if j == i or msg_j == msg:
                        continue
                    fanins[j] = lit_j
                    first = msg if i < j else msg_j
                    _raises_exactly(first, g.set_fanins, b >> 1, tuple(fanins))
                    if self_msg not in (msg, msg_j):
                        _raises_exactly(first, g.add_majority, *fanins)
                    fanins[j] = good[j]
    assert g.nodes == nodes and g._fanouts == index and g._next_id == next_id
    g.check()


def test_check_detects_a_stale_output_reader():
    stale = "fanout index disagrees with the fanins and outputs"
    g, a, b, c, d = _redirect_graph()
    g.outputs[0] = b  # an item written in place bypasses the index
    with pytest.raises(MigError, match=stale):
        g.check()
    with pytest.raises(MigError, match=stale):
        g.clone().check()  # a clone carries the index, stale as it is
    g, a, b, c, d = _redirect_graph()
    g._fanouts[d >> 1].add(~2)
    with pytest.raises(MigError, match=stale):
        g.check()
    g, a, b, c, d = _redirect_graph()
    g.outputs = [b, d, g.pi(1), b ^ 1]  # assigning the list is `set_outputs`
    positions = {n: {~r for r in users if r < 0} for n, users in g._fanouts.items()}
    assert {n: at for n, at in positions.items() if at} == {b >> 1: {0, 3}, d >> 1: {1}, 1: {2}}
    assert g._fanouts[a >> 1] == {c >> 1, d >> 1}  # position 0 left a, its node readers stay
    assert g.fanouts(b >> 1) == [d >> 1]  # node readers only
    g.check()


def test_check_detects_stale_fanout_index():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    b = g.add_and(a, g.pi(1))
    g.set_outputs([b])
    g.check()  # no index yet
    assert g.fanouts(a >> 1) == [b >> 1]
    g.nodes[b >> 1] = (g.pi(2), g.pi(1), g.const0())  # bypasses set_fanins
    with pytest.raises(MigError):
        g.check()
    with pytest.raises(MigError):
        g.clone().check()  # a clone carries the index, stale as it is
    h = g.clone()
    h.drop_fanout_index()  # rebuilt from the fanins on next use
    h.check()
    assert h.fanouts(a >> 1) == []


def _two_gate_graph():
    g = new_graph(2)  # nodes 0, 1, 2, then gates 3 and 4
    a = g.add_and(g.pi(1), g.pi(2))
    b = g.add_or(a, g.pi(2) ^ 1)
    g.set_outputs([b])
    g.check()
    return g


@pytest.mark.parametrize(
    "nid, fanins",
    [(0, (2, 4, 0)), (1, (4, 4, 0)), (3, (2, 4)), (3, ())],
    ids=["const-with-fanins", "input-with-fanins", "two-literal-gate", "empty-gate"],
)
def test_check_rejects_a_wrong_node_entry(nid, fanins):
    g = _two_gate_graph()
    g.nodes[nid] = fanins  # bypasses the writers
    with pytest.raises(MigError):
        g.check()


def test_check_rejects_ids_out_of_order_and_missing_terminals():
    g = _two_gate_graph()
    g.nodes[3] = g.nodes.pop(3)  # gate 3 now follows gate 4
    with pytest.raises(MigError, match="out of order"):
        g.check()
    g = _two_gate_graph()
    del g.nodes[2]
    with pytest.raises(MigError, match="primary input x2"):
        g.check()


def test_topological_order_detects_cycles():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    b = g.add_and(a, g.pi(1))
    g.set_outputs([b])
    g.nodes[a >> 1] = (b, g.pi(1), g.const0())  # corrupt
    with pytest.raises(MigError):
        g.topological_order()


def test_topology_survives_random_steps():
    g = crude_random_graph(6, 25, 9)
    rw.lambda_fixpoint(g)
    rw.delete_dead(g)
    rng = random.Random(1)
    for _ in range(40):
        acts = {nid: rw.OmegaAction(rng.randrange(9)) for nid in g.maj_ids()}
        rw.step(g, acts)
        g.topological_order()
        g.check()


def reference_topological_order(g):
    """Frozen port-order depth-first walk from each id in turn."""
    order = []
    state = {}  # 1 = on stack, 2 = done
    for root in g.nodes:
        if state.get(root):
            continue
        stack = [(root, 0)]
        while stack:
            nid, idx = stack.pop()
            if idx == 0:
                if state.get(nid) == 2:
                    continue
                state[nid] = 1
            fanins = g.nodes[nid]
            advanced = False
            for i in range(idx, len(fanins)):
                child = fanins[i] >> 1
                seen = state.get(child)
                if seen == 1:
                    raise MigError(f"cycle through node {child}: graph corrupted")
                if seen is None:
                    if child not in g.nodes:
                        raise MigError(f"node {nid} references dead node {child}")
                    stack.append((nid, i + 1))
                    stack.append((child, 0))
                    advanced = True
                    break
            if not advanced:
                state[nid] = 2
                order.append(nid)
    return order


def reference_emit_mig(g):
    """Frozen emit: file ids from the reference order, one string per literal."""

    def sig(s):
        nid, neg = s >> 1, "!" if s & 1 else ""
        if nid == 0:
            return f"{neg}0"
        if nid <= g.pi_count:
            return f"{neg}x{nid}"
        return f"{neg}n{file_ids[nid]}"

    maj_order = [nid for nid in reference_topological_order(g) if nid > g.pi_count]
    file_ids = {nid: i + 1 for i, nid in enumerate(maj_order)}
    lines = [f"mig {g.pi_count} {len(g.outputs)} {len(maj_order)}"]
    for nid in maj_order:
        a, b, c = (sig(s) for s in g.nodes[nid])
        lines.append(f"n{file_ids[nid]} = M({a},{b},{c})")
    for k, s in enumerate(g.outputs):
        lines.append(f"po{k} = {sig(s)}")
    return "\n".join(lines) + "\n"


def _outcome(f, g):
    try:
        return f(g)
    except MigError as exc:
        return ("raised", str(exc))


@settings(deadline=None)  # examples, derandomization and database from the profile
@given(
    kind=st.sampled_from(["crude", "sop3", "random_mig"]),
    inputs=st.integers(2, 6),
    gates=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_order_and_emit_match_the_depth_first_reference(kind, inputs, gates, seed, data):
    if kind == "crude":
        g = crude_random_graph(inputs, gates, seed)  # dead gates until a step
    elif kind == "sop3":
        g = sop_decompose(SopSpec(3, seed % 256))
    else:
        g = random_mig(RandomGraphSpec(gates + 10, 3 * inputs, 2, seed))
    rng = random.Random(seed)
    for _ in range(data.draw(st.integers(0 if kind == "crude" else 1, 4), label="steps")):
        # a rewrite makes a node read a newer one, so ids stop being an order
        rw.step(g, {nid: rw.OmegaAction(rng.randrange(9)) for nid in g.maj_ids()})
    for _ in range(data.draw(st.integers(0, 2), label="dead gates")):
        g.add_majority(*(lit(rng.choice(list(g.nodes)), rng.random() < 0.5) for _ in range(3)))
    assert g.topological_order() == reference_topological_order(g)
    assert emit_mig(g) == reference_emit_mig(g)

    # corrupt one fanin of one gate: a later node (a cycle or not) or a removed id
    maj = g.maj_ids()
    if not maj:
        return
    nid = data.draw(st.sampled_from(maj), label="gate")
    gone = [n for n in range(g._next_id) if n not in g.nodes]
    later = [n for n in g.nodes if n > nid]
    targets = later + gone + [g._next_id + 3]
    target = data.draw(st.sampled_from(targets), label="target")
    port = data.draw(st.integers(0, 2), label="port")
    fanins = list(g.nodes[nid])
    fanins[port] = lit(target, data.draw(st.booleans(), label="neg"))
    g.nodes[nid] = tuple(fanins)  # bypasses the writers
    assert _outcome(MigGraph.topological_order, g) == _outcome(reference_topological_order, g)
    assert _outcome(emit_mig, g) == _outcome(reference_emit_mig, g)


def test_clone_is_independent():
    g = crude_random_graph(4, 8, 5)
    h = g.clone()
    h.add_majority(h.pi(1), h.pi(2), h.const0())
    assert len(h.nodes) == len(g.nodes) + 1


def test_set_fanins_refuses_terminal_and_unknown_nodes():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    g.set_outputs([a])
    for nid in (0, 1, 2, 99):
        with pytest.raises(MigError):
            g.set_fanins(nid, (g.pi(1), g.pi(2), g.const0()))
        with pytest.raises(MigError):
            g.remove(nid)
    assert g.nodes[1] == () and g.nodes[0] == ()
    assert list(g.nodes) == [0, 1, 2, a >> 1]
    g.check()


def test_clone_shares_fanin_tuples_but_not_the_table():
    g = crude_random_graph(100, 12, 3)
    h = g.clone()
    assert all(h.nodes[k] is g.nodes[k] for k in range(g.pi_count + 1))
    maj = g.maj_ids()
    before = [g.nodes[nid] for nid in maj]
    h.set_fanins(maj[-1], (h.pi(1), h.pi(2), h.const1()))
    assert [g.nodes[nid] for nid in maj] == before


def test_node_ids_never_reused():
    g = new_graph(2)
    a = g.add_and(g.pi(1), g.pi(2))
    g.set_outputs([g.pi(1)])
    rw.delete_dead(g)
    assert a >> 1 not in g.nodes
    b = g.add_and(g.pi(1), g.pi(2))
    assert b >> 1 > a >> 1


def test_writers_record_pending_nodes_and_orphans():
    g = new_graph(3)
    x1, x2, x3 = g.pi(1), g.pi(2), g.pi(3)
    a = g.add_majority(x1, x2, x3)
    b = g.add_majority(a, x1, x2)
    c = g.add_majority(b, x2, x3)
    g.set_outputs([c, a])
    assert g.pending() == [a >> 1, b >> 1, c >> 1]  # a graph without state: all of them
    assert rw.lambda_fixpoint(g) == (0, 0) and g.pending() == []
    assert rw.delete_dead(g) == [a >> 1, b >> 1, c >> 1]
    g.check()
    d = g.add_majority(x1, x2, x3 ^ 1)
    g.set_fanins(c >> 1, (b, d, x3))
    assert g.pending() == [c >> 1, d >> 1]
    g.set_outputs([c])  # a still has a reader, b
    assert rw.delete_dead(g) == [a >> 1, b >> 1, c >> 1, d >> 1]  # d has one now too
    g.set_fanins(c >> 1, (a, d, x3))  # b loses its only reader
    g.check()
    assert rw.delete_dead(g) == [a >> 1, c >> 1, d >> 1]
    g.check()
    rw.lambda_fixpoint(g)
    g.set_outputs([d])
    assert rw.delete_dead(g) == [d >> 1]  # c, then a once c is gone
    g.check()


def test_check_detects_stale_cleanup_state():
    def settled():
        g = crude_random_graph(4, 12, 8)
        rw.step(g, {})
        g.check()
        return g, g.maj_ids()

    g, maj = settled()
    g._dirty.add(g._next_id)  # bypasses the writers
    with pytest.raises(MigError, match="gone node"):
        g.check()
    g, maj = settled()
    g._strash[(g.pi(1), g.pi(2), g.pi(3))] = maj[0]
    with pytest.raises(MigError, match="structural hash disagrees"):
        g.check()
    g, maj = settled()
    del g._strash[g.nodes[maj[-1]]]
    with pytest.raises(MigError, match="missing from the structural hash"):
        g.check()
    g._dirty.add(maj[-1])  # a pending node need not be hashed
    g.check()
    g, maj = settled()
    g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    g._orphans.clear()
    with pytest.raises(MigError, match="not pending dead removal"):
        g.check()
