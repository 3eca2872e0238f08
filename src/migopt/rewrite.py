"""Local rewrite engine for majority-inverter graphs.

Two rule families:

* agent-selectable moves (commutativity, associativity, complementary
  associativity, both distributivity directions, inverter propagation,
  identity), matched with port-search so a pattern is found regardless of
  how operands happen to be arranged;
* always-applied cleanup rules: majority collapse M(x,x,z)=x /
  M(x,x',z)=z and redundancy merging of nodes with identical fanin
  triples.

Every agent move instantiates one of the Ω identities, which are sound
(Amarù, Gaillardon, De Micheli, "Majority-Inverter Graph", DAC 2014), and
`match` binds only where an identity's syntactic precondition holds. So a
matched move keeps the function without a local check; tests/test_catalog.py
proves every binding over every operand equality pattern. Callers check
whole graphs with `verify_equivalence` before any output is written or
scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from migopt.mig import MAJ, MigError, MigGraph, Signal


class OmegaAction(IntEnum):
    IDENTITY = 0
    COMM01 = 1
    COMM02 = 2
    COMM12 = 3
    ASSOC = 4
    COMPL_ASSOC = 5
    DIST_LR = 6
    DIST_RL = 7
    INV_PROP = 8


ACTION_COUNT = len(OmegaAction)

_COMM_PORTS = {
    OmegaAction.COMM01: (0, 1),
    OmegaAction.COMM02: (0, 2),
    OmegaAction.COMM12: (1, 2),
}


@dataclass(frozen=True, slots=True)
class PlanRef:
    """Reference to the idx-th node a matched rewrite will create."""

    idx: int


@dataclass(slots=True)
class MatchDescriptor:
    """One binding of `action` at `root`: the nodes to create, then the
    root's new fanins, both as triples of Signal | PlanRef."""

    root: int
    action: OmegaAction
    footprint: frozenset[int]
    new_root_fanins: tuple
    new_nodes: tuple[tuple, ...] = ()
    complements_root: bool = False


@dataclass(slots=True)
class ApplyResult:
    applied: bool
    new_ids: list[int] = field(default_factory=list)


@dataclass(slots=True)
class StepReport:
    applied: int = 0
    blocked_illegal: int = 0
    blocked_collision: int = 0
    identity_count: int = 0
    lambda_m_count: int = 0
    lambda_r_count: int = 0
    size_before: int = 0
    size_after: int = 0
    nodes_added: int = 0
    nodes_removed: int = 0
    outcomes: dict[int, str] = field(default_factory=dict)


def _virtual_ops(node_fanins, edge: Signal) -> tuple[Signal, Signal, Signal]:
    # Fold a complemented child edge into the child operands:
    # not M(a,b,c) == M(!a,!b,!c).
    if edge.neg:
        return tuple(s.invert() for s in node_fanins)
    return tuple(node_fanins)


def match(g: MigGraph, nid: int, action: OmegaAction) -> MatchDescriptor | None:
    """Find the first applicable binding for `action` at node `nid`.

    Search order is fixed (ascending ports, then ascending child ports),
    so the binding is deterministic for a given graph state. Returns None
    when the pattern does not occur; that is a normal outcome.
    """
    node = g.nodes.get(nid)
    if node is None or node.kind != MAJ:
        return None
    fan = node.fanins

    if action == OmegaAction.IDENTITY:
        return MatchDescriptor(nid, action, frozenset(), fan)

    if action in _COMM_PORTS:
        i, j = _COMM_PORTS[action]
        new = list(fan)
        new[i], new[j] = new[j], new[i]
        return MatchDescriptor(nid, action, frozenset((nid,)), tuple(new))

    if action == OmegaAction.INV_PROP:
        foot = frozenset([nid, *g.fanouts(nid)])
        inverted = tuple(s.invert() for s in fan)
        return MatchDescriptor(nid, action, foot, inverted, complements_root=True)

    if action in (OmegaAction.ASSOC, OmegaAction.COMPL_ASSOC):
        want_compl = action == OmegaAction.COMPL_ASSOC
        for cp in range(3):
            child_sig = fan[cp]
            child = g.nodes[child_sig.node]
            if child.kind != MAJ or child_sig.node == nid:
                continue
            virt = _virtual_ops(child.fanins, child_sig)
            for up in range(3):
                if up == cp:
                    continue
                u = fan[up]
                needle = u.invert() if want_compl else u
                for uc in range(3):
                    if virt[uc] != needle:
                        continue
                    xp = 3 - cp - up
                    x = fan[xp]
                    rest = [p for p in range(3) if p != uc]
                    nc = [None, None, None]
                    new_root = list(fan)
                    if want_compl:
                        # M(x,u,M(y,u',z)) = M(x,u,M(y,x,z))
                        nc[uc] = x
                        nc[rest[0]] = virt[rest[0]]
                        nc[rest[1]] = virt[rest[1]]
                    else:
                        # M(x,u,M(y,u,z)) = M(z,u,M(y,u,x)); z := lower rest port
                        zc, yc = rest
                        nc[uc] = u
                        nc[yc] = virt[yc]
                        nc[zc] = x
                        new_root[xp] = virt[zc]
                    new_root[cp] = PlanRef(0)
                    foot = frozenset((nid, child_sig.node))
                    return MatchDescriptor(nid, action, foot, tuple(new_root), (tuple(nc),))
        return None

    if action == OmegaAction.DIST_LR:
        # M(x,y,M(u,v,z)) = M(M(x,y,u),M(x,y,v),z)
        for cp in range(3):
            child_sig = fan[cp]
            child = g.nodes[child_sig.node]
            if child.kind != MAJ or child_sig.node == nid:
                continue
            virt = _virtual_ops(child.fanins, child_sig)
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
            foot = frozenset((nid, child_sig.node))
            new_nodes = (tuple(node_a), tuple(node_b))
            return MatchDescriptor(nid, action, foot, tuple(new_root), new_nodes)
        return None

    if action == OmegaAction.DIST_RL:
        # M(M(x,y,u),M(x,y,v),z) = M(x,y,M(u,v,z))
        for cpa, cpb in ((0, 1), (0, 2), (1, 2)):
            sa, sb = fan[cpa], fan[cpb]
            na, nb = g.nodes[sa.node], g.nodes[sb.node]
            if na.kind != MAJ or nb.kind != MAJ:
                continue
            if sa.node == nid or sb.node == nid:
                continue
            virt_a = _virtual_ops(na.fanins, sa)
            virt_b = _virtual_ops(nb.fanins, sb)
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
                        foot = frozenset((nid, sa.node, sb.node))
                        return MatchDescriptor(nid, action, foot, tuple(new_root), ((ua, vb, z),))
        return None

    raise MigError(f"unknown action {action}")


def apply_omega(g: MigGraph, desc: MatchDescriptor) -> ApplyResult:
    """Commit a rewrite that `match` returned for the current graph.

    A descriptor whose root is gone does not apply and leaves the graph
    bit-identical.
    """
    if desc.action == OmegaAction.IDENTITY:
        return ApplyResult(True)
    if desc.root not in g.nodes:
        return ApplyResult(False)

    new_ids: list[int] = []

    def resolve(ps) -> Signal:
        return Signal(new_ids[ps.idx]) if isinstance(ps, PlanRef) else ps

    for fanins in desc.new_nodes:
        sig = g.add_majority(*(resolve(e) for e in fanins))
        new_ids.append(sig.node)
    g.set_fanins(desc.root, tuple(resolve(ps) for ps in desc.new_root_fanins))

    if desc.complements_root:
        root = desc.root
        # once per consumer: one that reads the root on two ports flips both
        for cid in g.fanouts(root):
            flipped = tuple(s.invert() if s.node == root else s for s in g.nodes[cid].fanins)
            g.set_fanins(cid, flipped)
        g.outputs = [s.invert() if s.node == root else s for s in g.outputs]
    return ApplyResult(True, new_ids)


# -- always-applied cleanup rules --------------------------------------


def _resolve_subst(subst: dict[int, Signal], s: Signal) -> Signal:
    while s.node in subst:
        t = subst[s.node]
        s = Signal(t.node, t.neg ^ s.neg)
    return s


def _apply_subst(g: MigGraph, subst: dict[int, Signal]):
    users = {cid for nid in subst for cid in g.fanouts(nid)}.difference(subst)
    for cid in users:
        g.set_fanins(cid, tuple(_resolve_subst(subst, s) for s in g.nodes[cid].fanins))
    g.outputs = [_resolve_subst(subst, s) for s in g.outputs]
    for nid in subst:
        g.remove(nid)


def lambda_majority(g: MigGraph) -> int:
    """Collapse M(x,x,z) to x and M(x,x',z) to z, to fixpoint."""
    # one pass suffices: in topological order a node's fanins are final
    # (resolved through every collapse below it) before it is tested
    subst: dict[int, Signal] = {}
    for nid in g.topological_order():
        node = g.nodes[nid]
        if node.kind != MAJ:
            continue
        fanins = tuple(_resolve_subst(subst, s) for s in node.fanins)
        if fanins != node.fanins:
            g.set_fanins(nid, fanins)
        a, b, c = fanins
        if a == b or a == c:
            target = a
        elif b == c:
            target = b
        elif a.node == b.node:  # complementary pair
            target = c
        elif a.node == c.node:
            target = b
        elif b.node == c.node:
            target = a
        else:
            continue
        subst[nid] = target
    if subst:
        _apply_subst(g, subst)
    return len(subst)


def lambda_redundancy(g: MigGraph) -> int:
    """Merge nodes with identical fanin triples into the lowest-id survivor.

    Triples compare port-ordered including polarities.
    """
    total = 0
    while True:
        subst: dict[int, Signal] = {}
        seen: dict[tuple, int] = {}
        for nid in g.topological_order():
            node = g.nodes[nid]
            if node.kind != MAJ:
                continue
            fanins = tuple(_resolve_subst(subst, s) for s in node.fanins)
            if fanins != node.fanins:
                g.set_fanins(nid, fanins)
            other = seen.get(fanins)
            if other is None:
                seen[fanins] = nid
                continue
            if nid < other:
                subst[other] = Signal(nid)
                seen[fanins] = nid
            else:
                subst[nid] = Signal(other)
            total += 1
        if not subst:
            return total
        _apply_subst(g, subst)


def lambda_fixpoint(g: MigGraph) -> tuple[int, int]:
    """Run both cleanup rules alternately until neither fires."""
    lm = lr = 0
    while True:
        m = lambda_majority(g)
        r = lambda_redundancy(g)
        lm += m
        lr += r
        if m == 0 and r == 0:
            return lm, lr


def delete_dead(g: MigGraph) -> set[int]:
    """Drop majority nodes unreachable from the outputs; returns the
    reachable set (all node kinds), which the deletion leaves intact."""
    keep = g.reachable_nodes()
    dead = [nid for nid, n in g.nodes.items() if n.kind == MAJ and nid not in keep]
    for nid in dead:
        g.remove(nid)
    return keep


def step(g: MigGraph, actions: dict[int, OmegaAction]) -> StepReport:
    """Apply one simultaneous action set, then cleanup and dead-node removal.

    Acting nodes run in ascending id order. An action at a node that is
    not a live majority node, or that does not match there, is blocked as
    illegal; one whose footprint overlaps nodes already touched by an
    applied rewrite this step is blocked as a collision. Both leave the
    graph unchanged for that node.
    """
    rep = StepReport()
    reach_before = {n for n in g.reachable_nodes() if g.nodes[n].kind == MAJ}
    rep.size_before = len(reach_before)

    touched: set[int] = set()
    for nid in sorted(actions):
        act = actions[nid]
        node = g.nodes.get(nid)
        if node is None or node.kind != MAJ:
            rep.blocked_illegal += 1
            rep.outcomes[nid] = "blocked_illegal"
            continue
        if act == OmegaAction.IDENTITY:
            rep.identity_count += 1
            rep.outcomes[nid] = "identity"
            continue
        desc = match(g, nid, act)
        if desc is None:
            rep.blocked_illegal += 1
            rep.outcomes[nid] = "blocked_illegal"
            continue
        if desc.footprint & touched:
            rep.blocked_collision += 1
            rep.outcomes[nid] = "blocked_collision"
            continue
        res = apply_omega(g, desc)
        rep.applied += 1
        rep.outcomes[nid] = "applied"
        touched |= desc.footprint
        touched.update(res.new_ids)

    rep.lambda_m_count, rep.lambda_r_count = lambda_fixpoint(g)
    reach_after = {n for n in delete_dead(g) if g.nodes[n].kind == MAJ}
    rep.size_after = len(reach_after)
    rep.nodes_added = len(reach_after - reach_before)
    rep.nodes_removed = len(reach_before - reach_after)
    return rep


# -- equivalence -------------------------------------------------------


def check_equivalence_exact(g1: MigGraph, g2: MigGraph) -> bool:
    """True iff all output truth tables match (inputs must be <= 16)."""
    if g1.pi_count != g2.pi_count:
        raise MigError("graphs have different input counts")
    if len(g1.outputs) != len(g2.outputs):
        raise MigError("graphs have different output counts")
    return g1.simulate_truth_tables() == g2.simulate_truth_tables()


def verify_equivalence(g1: MigGraph, g2: MigGraph) -> tuple[bool, bool]:
    """Equivalence evidence for any input width.

    Returns (equivalent, proven): an exact truth-table comparison up to
    16 inputs, otherwise 256-bit random signatures under three fixed
    seeds (agreement is strong evidence but not proof).
    """
    if g1.pi_count != g2.pi_count:
        raise MigError("graphs have different input counts")
    if len(g1.outputs) != len(g2.outputs):
        raise MigError("graphs have different output counts")
    if g1.pi_count <= 16:
        return check_equivalence_exact(g1, g2), True
    for seed in (101, 202, 303):
        if g1.simulate_signatures(seed, 256) != g2.simulate_signatures(seed, 256):
            return False, True  # a mismatch is a definite counterexample
    return True, False
