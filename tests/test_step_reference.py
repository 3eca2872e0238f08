"""Differential test of the environment step against a frozen copy.

`reference_step` and the functions below it are copies of `rewrite.match`,
`apply_omega`, `_sweep`, `lambda_fixpoint`, `delete_dead` and `step` as
they stood before matches became plain int tuples. They touch the graph
only through `MigGraph`'s public writers, so a change to the rewrite
engine or to the fanout index can be checked against them on random
graphs and random action sets, not only on the golden fixtures: the node
table, outputs, next id, step report and every node's fanouts must agree.

The second test runs whole rollouts and `greedy_rules` from start graphs
that still hold dead, collapsible and duplicate gates, against a chain of
reference steps that starts with `reference_delete_dead`. Its example
budget comes from the hypothesis profile in conftest.py.
"""

import random
from dataclasses import asdict, dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from migopt import rewrite as rw
from migopt import trainer
from migopt.datagen import RandomGraphSpec, SopSpec, random_mig, sop_decompose
from migopt.evaluate import greedy_rules
from migopt.mig import MigGraph, lit
from migopt.rewrite import OmegaAction, StepReport

from conftest import crude_random_graph

# -- frozen reference --------------------------------------------------

_COMM_PORTS = {
    OmegaAction.COMM01: (0, 1),
    OmegaAction.COMM02: (0, 2),
    OmegaAction.COMM12: (1, 2),
}


@dataclass(frozen=True, slots=True)
class PlanRef:
    idx: int


@dataclass(slots=True)
class MatchDescriptor:
    root: int
    action: OmegaAction
    footprint: frozenset
    new_root_fanins: tuple
    new_nodes: tuple = ()
    complements_root: bool = False


def _virtual_ops(node_fanins, edge):
    if edge & 1:
        a, b, c = node_fanins
        return a ^ 1, b ^ 1, c ^ 1
    return node_fanins


def reference_match(g, nid, action):
    fan = g.nodes.get(nid)
    if not fan:
        return None

    if action == OmegaAction.IDENTITY:
        return MatchDescriptor(nid, action, frozenset(), fan)

    if action in _COMM_PORTS:
        i, j = _COMM_PORTS[action]
        new = list(fan)
        new[i], new[j] = new[j], new[i]
        return MatchDescriptor(nid, action, frozenset((nid,)), tuple(new))

    if action == OmegaAction.INV_PROP:
        foot = frozenset([nid, *g.fanouts(nid)])
        inverted = tuple(s ^ 1 for s in fan)
        return MatchDescriptor(nid, action, foot, inverted, complements_root=True)

    if action in (OmegaAction.ASSOC, OmegaAction.COMPL_ASSOC):
        want_compl = action == OmegaAction.COMPL_ASSOC
        for cp in range(3):
            child_sig = fan[cp]
            child = g.nodes[child_sig >> 1]
            if not child:
                continue
            virt = _virtual_ops(child, child_sig)
            for up in range(3):
                if up == cp:
                    continue
                u = fan[up]
                needle = u ^ 1 if want_compl else u
                for uc in range(3):
                    if virt[uc] != needle:
                        continue
                    xp = 3 - cp - up
                    x = fan[xp]
                    rest = [p for p in range(3) if p != uc]
                    nc = [None, None, None]
                    new_root = list(fan)
                    if want_compl:
                        nc[uc] = x
                        nc[rest[0]] = virt[rest[0]]
                        nc[rest[1]] = virt[rest[1]]
                    else:
                        zc, yc = rest
                        nc[uc] = u
                        nc[yc] = virt[yc]
                        nc[zc] = x
                        new_root[xp] = virt[zc]
                    new_root[cp] = PlanRef(0)
                    foot = frozenset((nid, child_sig >> 1))
                    return MatchDescriptor(nid, action, foot, tuple(new_root), (tuple(nc),))
        return None

    if action == OmegaAction.DIST_LR:
        for cp in range(3):
            child_sig = fan[cp]
            child = g.nodes[child_sig >> 1]
            if not child:
                continue
            virt = _virtual_ops(child, child_sig)
            zc = 0
            pa, pb = 1, 2
            o0, o1 = [p for p in range(3) if p != cp]
            node_a = [None, None, None]
            node_b = [None, None, None]
            node_a[o0], node_a[o1], node_a[cp] = fan[o0], fan[o1], virt[pa]
            node_b[o0], node_b[o1], node_b[cp] = fan[o0], fan[o1], virt[pb]
            new_root = [None, None, None]
            new_root[o0] = PlanRef(0)
            new_root[o1] = PlanRef(1)
            new_root[cp] = virt[zc]
            foot = frozenset((nid, child_sig >> 1))
            new_nodes = (tuple(node_a), tuple(node_b))
            return MatchDescriptor(nid, action, foot, tuple(new_root), new_nodes)
        return None

    if action == OmegaAction.DIST_RL:
        for cpa, cpb in ((0, 1), (0, 2), (1, 2)):
            sa, sb = fan[cpa], fan[cpb]
            a, b = sa >> 1, sb >> 1
            na, nb = g.nodes[a], g.nodes[b]
            if not na or not nb:
                continue
            virt_a = _virtual_ops(na, sa)
            virt_b = _virtual_ops(nb, sb)
            zp = 3 - cpa - cpb
            z = fan[zp]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                p, q = virt_a[i], virt_a[j]
                for k in range(3):
                    if virt_b[k] != p:
                        continue
                    for l in range(3):
                        if l == k or virt_b[l] != q:
                            continue
                        ua = virt_a[3 - i - j]
                        vb = virt_b[3 - k - l]
                        new_root = [None, None, None]
                        new_root[cpa] = p
                        new_root[cpb] = q
                        new_root[zp] = PlanRef(0)
                        foot = frozenset((nid, a, b))
                        return MatchDescriptor(nid, action, foot, tuple(new_root), ((ua, vb, z),))
        return None

    raise AssertionError(f"unknown action {action}")


def reference_apply_omega(g, desc):
    """(applied, new ids)."""
    if desc.action == OmegaAction.IDENTITY:
        return True, []
    if desc.root not in g.nodes:
        return False, []

    new_ids = []

    def resolve(ps):
        return 2 * new_ids[ps.idx] if isinstance(ps, PlanRef) else ps

    for fanins in desc.new_nodes:
        new_ids.append(g.add_majority(*(resolve(e) for e in fanins)) >> 1)
    g.set_fanins(desc.root, tuple(resolve(ps) for ps in desc.new_root_fanins))

    if desc.complements_root:
        root = desc.root
        for cid in g.fanouts(root):
            flipped = tuple(s ^ 1 if s >> 1 == root else s for s in g.nodes[cid])
            g.set_fanins(cid, flipped)
        g.outputs = [s ^ 1 if s >> 1 == root else s for s in g.outputs]
    return True, new_ids


def _resolve_subst(subst, s):
    while s >> 1 in subst:
        s = subst[s >> 1] ^ (s & 1)
    return s


def _apply_subst(g, subst):
    users = {cid for nid in subst for cid in g.fanouts(nid)}.difference(subst)
    for cid in users:
        g.set_fanins(cid, tuple(_resolve_subst(subst, s) for s in g.nodes[cid]))
    g.outputs = [_resolve_subst(subst, s) for s in g.outputs]
    for nid in subst:
        g.remove(nid)


def reference_sweep(g, rule):
    total = 0
    while True:
        subst = {}
        seen = {}
        for nid, fanins in g.nodes.items():
            if not fanins:
                continue
            if subst:
                fanins = tuple(_resolve_subst(subst, s) for s in fanins)
            target = rule(nid, fanins, seen)
            if target is not None:
                subst[nid] = target
        if not subst:
            return total
        total += len(subst)
        _apply_subst(g, subst)


def _collapse(nid, fanins, seen):
    a, b, c = fanins
    if a >> 1 == b >> 1:
        return a if a == b else c
    if a >> 1 == c >> 1:
        return a if a == c else b
    if b >> 1 == c >> 1:
        return b if b == c else a
    return None


def _merge(nid, fanins, seen):
    other = seen.setdefault(fanins, nid)
    return None if other == nid else 2 * other


def reference_lambda_fixpoint(g):
    lm = lr = 0
    while True:
        lm += reference_sweep(g, _collapse)
        r = reference_sweep(g, _merge)
        lr += r
        if r == 0:
            return lm, lr


def reference_delete_dead(g):
    keep = g.reachable_nodes()
    live = []
    for nid in g.maj_ids():
        if nid in keep:
            live.append(nid)
        else:
            g.remove(nid)
    return live


def reference_step(g, actions, live=None):
    rep = StepReport()
    if live is None:
        reach_before = {n for n in g.reachable_nodes() if n > g.pi_count}
    else:
        reach_before = set(live)
    rep.size_before = len(reach_before)

    touched = set()
    for nid in sorted(actions):
        act = actions[nid]
        if not g.nodes.get(nid):
            rep.blocked_illegal += 1
            rep.outcomes[nid] = "blocked_illegal"
            continue
        if act == OmegaAction.IDENTITY:
            rep.identity_count += 1
            rep.outcomes[nid] = "identity"
            continue
        desc = reference_match(g, nid, act)
        if desc is None:
            rep.blocked_illegal += 1
            rep.outcomes[nid] = "blocked_illegal"
            continue
        if desc.footprint & touched:
            rep.blocked_collision += 1
            rep.outcomes[nid] = "blocked_collision"
            continue
        _, new_ids = reference_apply_omega(g, desc)
        rep.applied += 1
        rep.outcomes[nid] = "applied"
        touched |= desc.footprint
        touched.update(new_ids)

    rep.lambda_m_count, rep.lambda_r_count = reference_lambda_fixpoint(g)
    reach_after = set(reference_delete_dead(g))
    rep.size_after = len(reach_after)
    rep.nodes_added = len(reach_after - reach_before)
    rep.nodes_removed = len(reach_before - reach_after)
    return rep


def reference_greedy_rules(g):
    work = g.clone()
    size = reference_step(work, {}).size_after
    live = work.maj_ids()
    for _ in range(50):
        progress = False
        for nid in live:
            desc = reference_match(work, nid, OmegaAction.DIST_RL)
            if desc is None:
                continue
            trial = work.clone()
            reference_apply_omega(trial, desc)
            trial_size = reference_step(trial, {}, live).size_after
            if trial_size < size:
                work, size = trial, trial_size
                live = work.maj_ids()
                progress = True
        if not progress:
            break
    return work


# -- the differential tests ---------------------------------------------


def add_redundancy(g: MigGraph, seed: int):
    """Append gates, many of which the cleanup rules remove: copies of
    earlier gates (merge), M(x,x,z) and M(x,x',z) in any port order
    (collapse), and cascades where a merge enables a collapse that enables
    another merge. Two of the new gates become outputs, so live gates are
    redundant too."""
    rng = random.Random(seed)
    for _ in range(len(g.nodes)):
        pool = list(g.nodes)
        x, y, z = (lit(n, rng.random() < 0.5) for n in rng.sample(pool, 3))
        r = rng.random()
        if r < 0.1:  # a2 merges into a, then c collapses to z, then M(z,x,y) merges
            a = 2 * rng.choice(g.maj_ids())
            a2 = g.add_majority(*g.nodes[a >> 1])
            fanins = [a, a2 ^ 1, z]
            rng.shuffle(fanins)
            g.add_majority(g.add_majority(*fanins), x, y)
            fanins = [z, x, y]
        elif r < 0.4:
            fanins = list(g.nodes[rng.choice(g.maj_ids())])
        elif r < 0.6:
            fanins = [x, x ^ (rng.random() < 0.5), z]
            rng.shuffle(fanins)
        else:
            fanins = [x, y, z]
        g.add_majority(*fanins)
    g.set_outputs([*g.outputs, *(lit(n, rng.random() < 0.5) for n in rng.sample(g.maj_ids(), 2))])


def assert_same_graph(got: MigGraph, want: MigGraph):
    got.check()
    want.check()
    assert list(got.nodes.items()) == list(want.nodes.items())
    assert got.outputs == want.outputs
    assert got._next_id == want._next_id
    assert all(got.fanouts(n) == want.fanouts(n) for n in want.nodes)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    inputs=st.integers(2, 6),
    gates=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    redundant=st.booleans(),
    clean=st.booleans(),
    indexed=st.booleans(),
    data=st.data(),
)
def test_step_matches_the_frozen_reference(inputs, gates, seed, redundant, clean, indexed, data):
    g = crude_random_graph(inputs, gates, seed)  # dead gates unless cleaned
    if redundant:
        add_redundancy(g, seed)
    if clean:
        reference_step(g, {})
    want, got = g.clone(), g.clone()
    if indexed:  # start from a maintained index as well as a rescanned one
        want.fanouts(0)
        got.fanouts(0)
    for _ in range(data.draw(st.integers(1, 4), label="steps")):
        # centers: terminals, live and dead gates, and ids no node has yet
        ids = data.draw(
            st.lists(st.integers(0, want._next_id + 2), max_size=len(want.nodes) + 3),
            label="centers",
        )
        acts = data.draw(
            st.lists(st.sampled_from(OmegaAction), min_size=len(ids), max_size=len(ids)),
            label="actions",
        )
        actions = dict(zip(ids, acts))
        live = None
        if data.draw(st.booleans(), label="live given"):
            live = sorted(n for n in want.reachable_nodes() if n > want.pi_count)
        want_rep = reference_step(want, actions, live)
        got_rep = rw.step(got, actions)
        assert asdict(got_rep) == asdict(want_rep)
        assert_same_graph(got, want)


@settings(deadline=None)  # examples, derandomization and database from the profile
@given(
    kind=st.sampled_from(["crude", "sop3", "random_mig"]),
    inputs=st.integers(2, 6),
    gates=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
def test_rollouts_from_unclean_starts_match_a_chain_of_reference_steps(kind, inputs, gates, seed):
    if kind == "crude":  # dead gates, and collapsible and duplicate live ones
        g0 = crude_random_graph(inputs, gates, seed)
        add_redundancy(g0, seed)
    elif kind == "sop3":
        g0 = sop_decompose(SopSpec(3, seed % 256))
    else:
        g0 = random_mig(RandomGraphSpec(50, 3 * inputs, 2, seed))
    out, records = trainer.rollout(g0, 20, trainer.uniform_chooser(np.random.default_rng(seed)))
    want = g0.clone()
    live = reference_delete_dead(want)
    for rec in records:
        assert rec.centers == live
        want_rep = reference_step(want, dict(zip(rec.centers, rec.actions.tolist())), live)
        assert asdict(rec.report) == asdict(want_rep)
        live = want.maj_ids()
    assert_same_graph(out, want)
    assert_same_graph(greedy_rules(g0), reference_greedy_rules(g0))
