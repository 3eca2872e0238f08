"""Exhaustive soundness check of the Ω rewrite catalog, as `step` runs it.

A move compares operands only for signal equality (node and polarity),
and a primary input stands for an arbitrary function. So a move is fixed
by the equality pattern of its operand slots, and an identity that holds
over distinct inputs holds for every graph the move can apply to. The
tests below build every such pattern: slot classes in first-occurrence
order (restricted-growth strings), each class positive where it first
appears (complementing an input gives an isomorphic case), other
occurrences in either polarity. Each move runs as a one-move `step`: the
result must keep the truth tables and pass `check()`, fanout index
included. In the one-child catalog it must also equal, bit for bit, what
the frozen `reference_step` makes of it, so a sound move that writes
other fanins than it did (a rotation for a swap, say) fails too.
"""

from itertools import permutations, product

import pytest

from migopt import rewrite as rw
from migopt.mig import lit, new_graph
from migopt.rewrite import OmegaAction

from test_step_reference import assert_same_graph, reference_step

ONE_CHILD_ACTIONS = (
    OmegaAction.COMM01,
    OmegaAction.COMM02,
    OmegaAction.COMM12,
    OmegaAction.ASSOC,
    OmegaAction.COMPL_ASSOC,
    OmegaAction.DIST_LR,
    OmegaAction.DIST_RL,  # binds when the root reads the child twice
    OmegaAction.INV_PROP,
)


def slot_patterns(n: int) -> list[tuple[int, ...]]:
    """Every equality pattern of n operand slots, over inputs 1..n."""
    out = []

    def grow(prefix: tuple, classes: int):
        if len(prefix) == n:
            out.append(prefix)
            return
        for c in range(classes + 1):
            fresh = c == classes
            for neg in (False,) if fresh else (False, True):
                grow(prefix + (lit(c + 1, neg),), classes + fresh)

    grow((), 0)
    return out


PATTERNS = {n: slot_patterns(n) for n in range(3, 6)}


def test_slot_pattern_counts():
    # sum over k of S(n, k) * 2^(n - k): Stirling numbers of the second kind
    assert [len(PATTERNS[n]) for n in (3, 4, 5)] == [11, 49, 257]


def check_moves(g, moves, checked: dict, reference: bool = True) -> list[bool]:
    """Run each (gate, action) of `moves` as a one-move step on its own copy
    of g, which must keep the truth tables and pass `check()`, fanout index
    included; with `reference`, the frozen reference step on another copy
    must leave the same graph and report. Returns whether each applied.

    `checked` keeps that result per graph and moves: the pattern loops
    build many graphs more than once, and each is checked once."""
    key = (*g.nodes.values(), *g.outputs, *moves)
    if key not in checked:
        tables, live = g.simulate_truth_tables(), g.maj_ids()
        applied = []
        for nid, action in moves:
            got = g.clone()
            got.fanouts(0)  # build the index, so check() compares it with a rescan
            rep = rw.step(got, {nid: action})
            assert got.simulate_truth_tables() == tables, (action.name, nid, g.nodes)
            if reference:
                want = g.clone()
                assert rep == reference_step(want, {nid: action}, live), (action.name, nid, g.nodes)
                assert_same_graph(got, want)  # check() included
            else:
                got.check()
            applied.append(rep.applied == 1)
        checked[key] = applied
    return checked[key]


def one_child_roots():
    """Roots M(.., child, ..) over inputs, plus roots that read the child
    on a second port in either polarity, such as M(c,c,z) and M(c,!c,z)."""
    for cp, child_neg in product(range(3), (False, True)):
        others = [p for p in range(3) if p != cp]
        for second in product((None, False, True), repeat=2):
            for pat in PATTERNS[3 + second.count(None)]:
                g = new_graph(5)
                child = g.add_majority(*pat[:3])
                leaves = iter(pat[3:])
                fan = [None, None, None]
                fan[cp] = child ^ child_neg
                for port, neg in zip(others, second):
                    fan[port] = next(leaves) if neg is None else child ^ neg
                root = g.add_majority(*fan)
                g.set_outputs([root, child])
                yield g, root >> 1


def test_one_child_catalog_is_sound():
    # every move at both gates, so an inverter propagation at the child
    # flips the root's edges, both of them where the root reads it twice;
    # DIST_RL needs two majority fanins, which only the root can have
    hits, checked = dict.fromkeys(ONE_CHILD_ACTIONS, 0), {}
    for g, root in one_child_roots():
        moves = [(nid, action) for nid in g.maj_ids() for action in ONE_CHILD_ACTIONS
                 if nid == root or action != OmegaAction.DIST_RL]
        for (_, action), applied in zip(moves, check_moves(g, moves, checked)):
            hits[action] += applied
    assert all(hits.values()), hits


def placed(ports, ops) -> list[int]:
    out = [None, None, None]
    for port, s in zip(ports, ops):
        out[port] = s
    return out


@pytest.mark.slow
def test_dist_rl_catalog_is_sound():
    # M(A,B,z) where A and B share two operands p, q: every port order of
    # each child, every root arrangement and both child-edge polarities.
    # Slots of a pattern: p, q, A's third operand, B's third operand, z.
    # Which child sits on the lower root port is covered by both children
    # ranging over every arrangement; renaming p and q lets A hold p on a
    # lower port than q.
    arrangements = list(permutations(range(3)))
    a_arrangements = [ports for ports in arrangements if ports[0] < ports[1]]
    hits, checked = 0, {}
    for zp, a_neg, b_neg in product(range(3), (False, True), (False, True)):
        cpa, cpb = [p for p in range(3) if p != zp]
        for p, q, ua, vb, z in PATTERNS[5]:
            for a_ports, b_ports in product(a_arrangements, arrangements):
                g = new_graph(5)
                a = g.add_majority(*(s ^ a_neg for s in placed(a_ports, (p, q, ua))))
                b = g.add_majority(*(s ^ b_neg for s in placed(b_ports, (p, q, vb))))
                fan = [z, z, z]
                fan[cpa], fan[cpb] = a ^ a_neg, b ^ b_neg
                root = g.add_majority(*fan)
                g.set_outputs([root, a, b])
                # 34,956 distinct graphs: the reference step here would take
                # the file from about 6 s to 10; the one-child catalog compares
                # DIST_RL with it where the root reads the child twice
                move = (root >> 1, OmegaAction.DIST_RL)
                hits += check_moves(g, [move], checked, reference=False)[0]
    assert hits == 3 * 4 * len(PATTERNS[5]) * 3 * 6  # every case binds
