"""Exhaustive soundness check of the Ω rewrite catalog.

`match` compares operands only for signal equality (node and polarity),
and a primary input stands for an arbitrary function. So a binding is
fixed by the equality pattern of its operand slots, and an identity that
holds over distinct inputs holds for every graph the matcher can bind.
The tests below build every such pattern: slot classes in first-occurrence
order (restricted-growth strings), each class positive where it first
appears (complementing an input gives an isomorphic case), other
occurrences in either polarity. Every binding `match` returns must apply,
keep the truth tables and pass `check()`, fanout index included.
"""

from itertools import permutations, product

import pytest

from migopt import rewrite as rw
from migopt.mig import Signal, new_graph
from migopt.rewrite import OmegaAction

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


def slot_patterns(n: int) -> list[tuple[Signal, ...]]:
    """Every equality pattern of n operand slots, over inputs 1..n."""
    out = []

    def grow(prefix: tuple, classes: int):
        if len(prefix) == n:
            out.append(prefix)
            return
        for c in range(classes + 1):
            fresh = c == classes
            for neg in (False,) if fresh else (False, True):
                grow(prefix + (Signal(c + 1, neg),), classes + fresh)

    grow((), 0)
    return out


PATTERNS = {n: slot_patterns(n) for n in range(3, 6)}


def test_slot_pattern_counts():
    # sum over k of S(n, k) * 2^(n - k): Stirling numbers of the second kind
    assert [len(PATTERNS[n]) for n in (3, 4, 5)] == [11, 49, 257]


def check_binding(g, root: int, action: OmegaAction) -> bool:
    """Apply `action` at `root` on a copy of g if it matches; True if it did."""
    trial = g.clone()
    trial.fanouts(0)  # build the index, so check() compares it with a rescan
    desc = rw.match(trial, root, action)
    if desc is None:
        return False
    before = trial.simulate_truth_tables()
    res = rw.apply_omega(trial, desc)
    assert res.applied, (action.name, g.nodes)
    assert trial.simulate_truth_tables() == before, (action.name, g.nodes)
    trial.check()
    return True


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
                fan[cp] = child.xor(child_neg)
                for port, neg in zip(others, second):
                    fan[port] = next(leaves) if neg is None else child.xor(neg)
                root = g.add_majority(*fan)
                g.set_outputs([root, child])
                yield g, root.node


def test_one_child_catalog_is_sound():
    hits = dict.fromkeys(ONE_CHILD_ACTIONS, 0)
    for g, root in one_child_roots():
        for action in ONE_CHILD_ACTIONS:
            hits[action] += check_binding(g, root, action)
    assert all(hits.values()), hits


def placed(ports, ops) -> list[Signal]:
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
    hits = 0
    for zp, a_neg, b_neg in product(range(3), (False, True), (False, True)):
        cpa, cpb = [p for p in range(3) if p != zp]
        for p, q, ua, vb, z in PATTERNS[5]:
            for a_ports, b_ports in product(a_arrangements, arrangements):
                g = new_graph(5)
                a = g.add_majority(*(s.xor(a_neg) for s in placed(a_ports, (p, q, ua))))
                b = g.add_majority(*(s.xor(b_neg) for s in placed(b_ports, (p, q, vb))))
                fan = [z, z, z]
                fan[cpa], fan[cpb] = a.xor(a_neg), b.xor(b_neg)
                root = g.add_majority(*fan)
                g.set_outputs([root, a, b])
                hits += check_binding(g, root.node, OmegaAction.DIST_RL)
    assert hits == 3 * 4 * len(PATTERNS[5]) * 3 * 6  # every case binds
