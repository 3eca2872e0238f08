"""Local rewrite engine for majority-inverter graphs.

Two rule families:

* agent-selectable moves (commutativity, associativity, complementary
  associativity, both distributivity directions, inverter propagation,
  identity), matched with port-search so a pattern is found regardless of
  how operands happen to be arranged;
* always-applied cleanup rules: majority collapse M(x,x,z)=x /
  M(x,x',z)=z and redundancy merging of nodes with identical fanin
  triples. Each runs to its own fixpoint over a worklist: the nodes the
  graph's writers recorded since the last cleanup (all of them on a graph
  without cleanup state), then each reader a replacement rewrites. The
  fixpoint, counts and surviving ids are those of repeated full id-order
  passes, with no topological sort.

Every agent move instantiates one of the Ω identities, which are sound
(Amarù, Gaillardon, De Micheli, "Majority-Inverter Graph", DAC 2014), and
`match` binds only where an identity's syntactic precondition holds. So a
matched move keeps the function without a local check; tests/test_catalog.py
proves every binding over every operand equality pattern. Callers check
whole graphs with `verify_equivalence` before any output is written or
scored.

A binding is a plain tuple of ints, `(root, footprint, new nodes, root
fanins, complements_root)`: the ids the move reads or writes, the fanin
triples of the nodes to create, and the root's new fanins. No new node
reads another, so only the root fanins hold ``~k`` (a negative int, so no
literal), which names the k-th new node.

The engine writes the graph only through `MigGraph`'s writers: inverter
propagation is one `complement` call, which flips the root with its reader
edges and outputs and creates no node; every other move adds its new nodes
and sets the root's fanins; each λ replacement is one `redirect`. `step`
writes a swap or an inverter propagation itself, with no binding: neither
can miss, and each needs only the root's fanins or readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from migopt.mig import MigError, MigGraph


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

_IDENTITY = OmegaAction.IDENTITY.value  # plain ints: no enum class lookup per compare
_INV_PROP = OmegaAction.INV_PROP.value

# the root's new fanins per swap: the old ones at these ports, in order
_SWAP_PORTS = {
    OmegaAction.COMM01.value: (1, 0, 2),
    OmegaAction.COMM02.value: (2, 1, 0),
    OmegaAction.COMM12.value: (0, 2, 1),
}

Binding = tuple[int, tuple[int, ...], tuple[tuple[int, int, int], ...], tuple[int, int, int], bool]


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


def _virtual_ops(node_fanins, edge: int) -> tuple[int, int, int]:
    # Fold a complemented child edge into the child operands:
    # not M(a,b,c) == M(!a,!b,!c).
    if edge & 1:
        a, b, c = node_fanins
        return a ^ 1, b ^ 1, c ^ 1
    return node_fanins


def _identity(g: MigGraph, nid: int, fan: tuple) -> Binding:
    return nid, (), (), fan, False


def _commute(action: int):
    p, q, r = _SWAP_PORTS[action]

    def comm(g: MigGraph, nid: int, fan: tuple) -> Binding:
        return nid, (nid,), (), (fan[p], fan[q], fan[r]), False

    return comm


def _inv_prop(g: MigGraph, nid: int, fan: tuple) -> Binding:
    a, b, c = fan
    return nid, (nid, *g.fanouts(nid)), (), (a ^ 1, b ^ 1, c ^ 1), True


def _associate(want_compl: bool):
    flip = int(want_compl)

    def assoc(g: MigGraph, nid: int, fan: tuple) -> Binding | None:
        # a majority fanin (child port cp) whose operands, the child edge's
        # polarity folded in, hold another fanin u (its complement for
        # COMPL_ASSOC); the third fanin is x, at port xp. Ports ascend: cp,
        # then u's, then u's first place in the child
        nodes = g.nodes
        a, b, c = fan
        for cp, s, y, z in ((0, a, b, c), (1, b, a, c), (2, c, a, b)):
            child = nodes[s >> 1]
            if not child:
                continue
            pol = (s & 1) ^ flip
            if (y ^ pol) in child:
                u, xp = y, 1 if cp == 2 else 2
            elif (z ^ pol) in child:
                u, xp = z, 0 if cp else 1
            else:
                continue
            uc = child.index(u ^ pol)
            ops = list(_virtual_ops(child, s))
            root = list(fan)
            if want_compl:
                # M(x,u,M(y,u',z)) = M(x,u,M(y,x,z))
                ops[uc] = fan[xp]
            else:
                # M(x,u,M(y,u,z)) = M(z,u,M(y,u,x)), z at the lower port of the
                # two that do not hold u
                zc = int(uc == 0)
                root[xp], ops[zc] = ops[zc], fan[xp]
            root[cp] = ~0
            return nid, (nid, s >> 1), (tuple(ops),), tuple(root), False
        return None

    return assoc


def _distribute_lr(g: MigGraph, nid: int, fan: tuple) -> Binding | None:
    # M(x,y,M(z,u,v)) = M(M(x,y,u),M(x,y,v),z), at the first majority fanin
    nodes = g.nodes
    for cp, s in enumerate(fan):
        child = nodes[s >> 1]
        if child:
            z, u, v = _virtual_ops(child, s)
            node_a, node_b = list(fan), list(fan)
            node_a[cp], node_b[cp] = u, v
            root = [~0, ~1]
            root.insert(cp, z)
            return nid, (nid, s >> 1), (tuple(node_a), tuple(node_b)), tuple(root), False
    return None


def _distribute_rl(g: MigGraph, nid: int, fan: tuple) -> Binding | None:
    # M(M(x,y,u),M(x,y,v),z) = M(x,y,M(u,v,z)): the first pair of majority
    # fanins, then the first operand pair (x, y) of the first one, folded,
    # that the second one's folded operands also hold; taking out the first
    # place that holds x, then the first other place that holds y, leaves v
    nodes = g.nodes
    for cpa, cpb, zp in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        sa, sb = fan[cpa], fan[cpb]
        na, nb = nodes[sa >> 1], nodes[sb >> 1]
        if not na or not nb:
            continue
        x0, x1, x2 = _virtual_ops(na, sa)
        vb = _virtual_ops(nb, sb)
        for x, y, u in ((x0, x1, x2), (x0, x2, x1), (x1, x2, x0)):
            if x not in vb:
                continue
            rest = list(vb)
            rest.remove(x)
            if y in rest:
                rest.remove(y)
                root = [~0, ~0, ~0]
                root[cpa], root[cpb] = x, y
                return nid, (nid, sa >> 1, sb >> 1), ((u, rest[0], fan[zp]),), tuple(root), False
    return None


# one matcher per action value, so dispatch is a single int-keyed lookup
_MATCHERS = {
    OmegaAction.IDENTITY.value: _identity,
    OmegaAction.COMM01.value: _commute(OmegaAction.COMM01.value),
    OmegaAction.COMM02.value: _commute(OmegaAction.COMM02.value),
    OmegaAction.COMM12.value: _commute(OmegaAction.COMM12.value),
    OmegaAction.ASSOC.value: _associate(False),
    OmegaAction.COMPL_ASSOC.value: _associate(True),
    OmegaAction.DIST_LR.value: _distribute_lr,
    OmegaAction.DIST_RL.value: _distribute_rl,
    OmegaAction.INV_PROP.value: _inv_prop,
}


def match(g: MigGraph, nid: int, action: OmegaAction) -> Binding | None:
    """Find the first applicable binding for `action` at node `nid`.

    Search order is fixed (ascending ports, then ascending child ports),
    so the binding is deterministic for a given graph state. Returns None,
    a normal outcome, when `nid` is gone, a terminal, or holds no match.
    """
    fan = g.nodes.get(nid)
    if not fan:  # gone, or a terminal
        return None
    matcher = _MATCHERS.get(action)
    if matcher is None:
        raise MigError(f"unknown action {action}")
    return matcher(g, nid, fan)


def apply_omega(g: MigGraph, binding: Binding) -> ApplyResult:
    """Commit a rewrite that `match` returned for the current graph.

    A binding that complements its root (`INV_PROP`) creates no node: its
    root fanins are the root's own, flipped, and `MigGraph.complement`
    flips them with each edge and output that names the root. Any other
    binding creates its new nodes and gives the root its new fanins. A
    binding whose root is gone does not apply and leaves the graph
    bit-identical.
    """
    root, _, new_nodes, root_fanins, complements_root = binding
    if root not in g.nodes:
        return ApplyResult(False)
    if complements_root:
        g.complement(root)
        return ApplyResult(True)

    new: list[int] = []  # literals of the created nodes; ~k names new[k]
    for fanins in new_nodes:
        new.append(g.add_majority(*fanins))
    if new:
        root_fanins = tuple(new[~s] if s < 0 else s for s in root_fanins)
    g.set_fanins(root, root_fanins)
    return ApplyResult(True, [s >> 1 for s in new])


# -- always-applied cleanup rules --------------------------------------


def lambda_majority(g: MigGraph) -> int:
    """Collapse M(x,x,z) to x and M(x,x',z) to z, to this rule's fixpoint.

    Visits the pending nodes (every majority node on a graph without
    cleanup state), then each reader a collapse rewrites."""
    count = 0
    nodes = g.nodes
    todo = g.pending()[::-1]  # popped in ascending id order
    while todo:
        nid = todo.pop()
        fanins = nodes.get(nid)
        if fanins is None:
            continue
        a, b, c = fanins  # M(x,x,z) = x, M(x,x',z) = z
        if a >> 1 == b >> 1:
            target = a if a == b else c
        elif a >> 1 == c >> 1:
            target = a if a == c else b
        elif b >> 1 == c >> 1:
            target = b if b == c else a
        else:
            continue
        todo += g.redirect({nid: target})  # the readers it rewrote
        g.remove(nid)
        count += 1
    return count


def lambda_redundancy(g: MigGraph) -> int:
    """Merge nodes with identical port-ordered fanin triples (polarities
    included) into the lowest id, to this rule's fixpoint.

    Hashes the pending nodes, then each reader a merge rewrites; a node
    matches only nodes already hashed, and the lower id of a matching
    pair is hashed in the higher's place."""
    count = 0
    nodes, hash_node = g.nodes, g.hash_node
    todo = g.pending()[::-1]
    while todo:
        nid = todo.pop()
        if nid not in nodes:
            continue
        other = hash_node(nid)
        if other == nid:
            continue
        keep, drop = min(nid, other), max(nid, other)
        todo += g.redirect({drop: 2 * keep})
        g.remove(drop)
        todo.append(keep)  # hashed once `drop` left the table
        count += 1
    return count


def lambda_fixpoint(g: MigGraph) -> tuple[int, int]:
    """Run each cleanup rule to its own fixpoint, collapse first, and
    alternate until merge replaces nothing: then the graph is as the
    collapse fixpoint left it, and every pending node is settled; returns
    the (collapse, merge) counts."""
    lm = lr = 0
    while True:
        lm += lambda_majority(g)
        r = lambda_redundancy(g)
        lr += r
        if r == 0:
            g.settle()
            return lm, lr


def delete_dead(g: MigGraph) -> list[int]:
    """Drop majority nodes unreachable from the outputs; returns the
    majority ids left, ascending, all of them live.

    Deletes the nodes that nothing reads and no output names, starting
    from those the graph's writers recorded, and recursively the fanins
    each deletion orphans: in a DAG these are the unreachable ones."""
    g.remove_orphans()
    return g.maj_ids()


def step(g: MigGraph, actions: dict[int, int]) -> StepReport:
    """Apply one simultaneous action set, then cleanup and dead-node removal.

    The size before is that of `g.live_ids()`, which walks the graph only
    when its cleanup state shows a dead node. Afterwards every majority
    node left in the graph is reachable.

    Acting nodes run in ascending id order, each settled in one dispatch.
    A gone id or a terminal is blocked as illegal whatever its action, and
    IDENTITY at a live gate counts as identity; neither calls `match`. A
    swap or an inverter propagation always binds: its footprint is the
    root, with the root's readers for an inverter propagation, and it is
    written straight through `MigGraph.set_fanins` or `complement`. The
    other moves bind through `match` (an unknown action raises there) and
    commit through `apply_omega`; one that binds nothing is blocked as
    illegal. A move whose footprint overlaps nodes already touched by an
    applied rewrite this step is blocked as a collision. A blocked move
    leaves the graph unchanged for that node.
    """
    rep = StepReport()
    reach_before = g.live_ids()
    rep.size_before = len(reach_before)
    nodes = g.nodes

    touched: set[int] = set()
    outcomes = rep.outcomes
    for nid in sorted(actions):
        act = actions[nid]
        fan = nodes.get(nid)
        if not fan:  # gone, or a terminal
            outcome = "blocked_illegal"
        elif act == _IDENTITY:
            outcome = "identity"
        elif act in _SWAP_PORTS:
            if nid in touched:
                outcome = "blocked_collision"
            else:
                p, q, r = _SWAP_PORTS[act]
                g.set_fanins(nid, (fan[p], fan[q], fan[r]))
                touched.add(nid)
                outcome = "applied"
        elif act == _INV_PROP:
            # the readers include output positions (negative), which no
            # other move of a step writes, so they block nothing extra
            readers = g.readers(nid)
            if nid in touched or not touched.isdisjoint(readers):
                outcome = "blocked_collision"
            else:
                touched.add(nid)
                touched.update(readers)
                g.complement(nid)
                outcome = "applied"
        else:
            binding = match(g, nid, act)
            if binding is None:
                outcome = "blocked_illegal"
            elif not touched.isdisjoint(binding[1]):
                outcome = "blocked_collision"
            else:
                touched.update(binding[1])
                touched.update(apply_omega(g, binding).new_ids)
                outcome = "applied"
        outcomes[nid] = outcome
    counts = list(outcomes.values())
    rep.applied = counts.count("applied")
    rep.blocked_illegal = counts.count("blocked_illegal")
    rep.blocked_collision = counts.count("blocked_collision")
    rep.identity_count = counts.count("identity")

    rep.lambda_m_count, rep.lambda_r_count = lambda_fixpoint(g)
    g.remove_orphans()
    # every majority node left is live, and ids are never reused: a node of
    # reach_before is gone exactly when it is no longer in the graph
    rep.size_after = len(nodes) - g.pi_count - 1
    rep.nodes_removed = sum(n not in nodes for n in reach_before)
    rep.nodes_added = rep.size_after - rep.size_before + rep.nodes_removed
    return rep


# -- equivalence -------------------------------------------------------


def verify_equivalence(g1: MigGraph, g2: MigGraph) -> tuple[bool, bool]:
    """Equivalence evidence for any input width.

    Returns (equivalent, proven): an exact truth-table comparison up to
    16 inputs, otherwise 768-bit random signatures under one fixed seed,
    one simulation pass per graph (agreement is strong evidence but not
    proof).
    """
    if g1.pi_count != g2.pi_count:
        raise MigError("graphs have different input counts")
    if len(g1.outputs) != len(g2.outputs):
        raise MigError("graphs have different output counts")
    if g1.pi_count <= 16:
        return g1.simulate_truth_tables() == g2.simulate_truth_tables(), True
    if g1.simulate_signatures(101, 768) != g2.simulate_signatures(101, 768):
        return False, True  # a mismatch is a definite counterexample
    return True, False
