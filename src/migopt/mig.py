"""Majority-inverter graph core: nodes, signals, simulation, size.

A MIG is a DAG whose only gate is the 3-input majority function.
Inversion lives on edges, never as a separate node: a signal is the int
literal ``2 * node + neg`` (as in AIGER), so ``lit >> 1`` is its node and
``lit ^ 1`` its complement; ``~lit`` is negative and names no node.

A node is its fanin tuple: `MigGraph.nodes` maps each live id to its
fanin literals, ``()`` for a terminal. Its kind is given by its id, as in
AIGER: node 0 is the single constant-0 node, nodes 1..pi_count are the
primary inputs, and every id above is a majority gate. Node identifiers
grow monotonically and are never reused, even after deletion, so
`nodes` iterates in ascending id order.
"""

from __future__ import annotations

import random
from collections.abc import Set
from itertools import islice


def lit(node: int, neg: bool = False) -> int:
    """The literal of `node`, complemented when `neg` is set."""
    return 2 * node + neg


class MigError(Exception):
    pass


_NO_READERS: frozenset[int] = frozenset()


def _maj_word(a: int, b: int, c: int) -> int:
    return (a & b) | (a & c) | (b & c)


_PI_PATTERNS: dict[tuple[int, int], int] = {}


def pi_pattern(k: int, n: int) -> int:
    """Truth-table bits of primary input k (1-based) over n inputs.

    Row r of the table is the assignment where PI_j = bit (j-1) of r,
    so PI_1 toggles fastest (least significant).
    """
    key = (k, n)
    pat = _PI_PATTERNS.get(key)
    if pat is None:
        block = 1 << (k - 1)
        chunk = ((1 << block) - 1) << block  # `block` zeros then `block` ones
        pat = 0
        for off in range(0, 1 << n, block << 1):
            pat |= chunk << off
        _PI_PATTERNS[key] = pat
    return pat


class MigGraph:
    """DAG of 3-input majority nodes with complemented edges.

    Single-writer: all mutation must be serialized per graph, and nodes
    and outputs change only through `add_majority`, `set_fanins`,
    `complement`, `redirect`, `remove` and `set_outputs`, which keep the
    consumer index current: the readers of each node, where a reader is
    the id of a node that reads it or ``~i`` for output position ``i``
    that names it (negative, so never a node id; `fanouts` lists the
    node readers). Each writer touches only the nodes and output
    positions it changes. Reads (simulation, traversal) are safe on a
    graph that is not being mutated.

    Beside the index the writers keep the cleanup state that the λ rules
    and `delete_dead` work from: the majority ids written since the λ
    rules last settled them (`pending`), a structural hash from fanin
    triple to the id of each node they have hashed (`hash_node`), and the
    majority ids that were created or lost their last reader since dead
    removal last ran (`remove_orphans`). A graph without an index has no
    such state; building the index starts it with every majority node
    pending for both, and none hashed. Every other majority node has a
    reader, so `live_ids` and `size` walk the output cone only when an
    orphan has none. `clone` copies the index and the state with the
    nodes; code that keeps many graphs drops them with `drop_fanout_index`.
    """

    def __init__(self, pi_count: int):
        if pi_count < 0:
            raise MigError("pi_count must be non-negative")
        self.pi_count = pi_count
        self.nodes: dict[int, tuple[int, ...]] = dict.fromkeys(range(pi_count + 1), ())
        self._outputs: list[int] = []  # literals
        self._next_id = pi_count + 1
        self.drop_fanout_index()

    # -- construction -------------------------------------------------

    def const0(self) -> int:
        return 0

    def const1(self) -> int:
        return 1

    def pi(self, k: int) -> int:
        if not 1 <= k <= self.pi_count:
            raise MigError(f"no primary input x{k}")
        return 2 * k

    def _check_live(self, s: int):
        if s >> 1 not in self.nodes:
            raise MigError(f"literal {s} references a dead or unknown node")

    def add_majority(self, a: int, b: int, c: int) -> int:
        nodes = self.nodes
        if not (a >> 1 in nodes and b >> 1 in nodes and c >> 1 in nodes):
            for s in (a, b, c):  # name the first bad literal
                self._check_live(s)
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = (a, b, c)
        if self._fanouts is not None:
            self._link(nid, {a >> 1, b >> 1, c >> 1})
            self._dirty.add(nid)
            self._orphans.add(nid)  # nothing reads it yet
        return 2 * nid

    def add_and(self, a: int, b: int) -> int:
        return self.add_majority(a, b, 0)

    def add_or(self, a: int, b: int) -> int:
        return self.add_majority(a, b, 1)

    @property
    def outputs(self) -> list[int]:
        """The output literals. Assigning a list is `set_outputs`; an item
        written in place would bypass the consumer index."""
        return self._outputs

    @outputs.setter
    def outputs(self, sigs: list[int]):
        self.set_outputs(sigs)

    def set_outputs(self, sigs: list[int]):
        sigs = list(sigs)
        for s in sigs:
            self._check_live(s)
        if self._fanouts is not None:  # link first: a node that only moves position stays read
            old = self._outputs
            for i, s in enumerate(sigs):
                if i >= len(old) or old[i] >> 1 != s >> 1:
                    self._link(~i, {s >> 1})
            for i, s in enumerate(old):
                if i >= len(sigs) or sigs[i] >> 1 != s >> 1:
                    self._unlink(~i, {s >> 1})
        self._outputs = sigs

    def set_fanins(self, nid: int, fanins: tuple[int, int, int]):
        """Replace the fanins of majority node `nid` with three live literals,
        none of them `nid` itself. A longer cycle is left to `check()`:
        finding one would walk the cone on every write."""
        nodes = self.nodes
        old = nodes.get(nid)
        if not old:
            raise MigError(f"node {nid} is not a live majority node")
        fanins = tuple(fanins)
        if len(fanins) != 3:
            raise MigError(f"majority node {nid} needs 3 fanins, got {len(fanins)}")
        a, b, c = fanins
        pa, pb, pc = a >> 1, b >> 1, c >> 1
        if not (pa in nodes and pb in nodes and pc in nodes and nid not in (pa, pb, pc)):
            for s in fanins:  # name the first bad literal
                if s >> 1 not in nodes:
                    raise MigError(f"literal {s} references a dead or unknown node")
                if s >> 1 == nid:
                    raise MigError(f"node {nid} cannot read itself")
        if self._fanouts is not None:
            oa, ob, oc = old
            if oa >> 1 != pa or ob >> 1 != pb or oc >> 1 != pc:
                before = {oa >> 1, ob >> 1, oc >> 1}
                after = {pa, pb, pc}
                if before != after:  # a port swap keeps them
                    self._unlink(nid, before - after)
                    self._link(nid, after - before)
            if self._strash.get(old) == nid:
                del self._strash[old]
            self._dirty.add(nid)
        nodes[nid] = fanins  # same key, so id order holds

    def complement(self, nid: int):
        """Complement majority node `nid` where it stands: flip its fanins,
        and each reader edge and output position that names it, so every
        reader computes what it did. No node's readers change, so the
        consumer index stays as it is."""
        nodes = self.nodes
        fanins = nodes.get(nid)
        if not fanins:
            raise MigError(f"node {nid} is not a live majority node")
        index = self._index()
        strash, dirty = self._strash, self._dirty
        if strash.get(fanins) == nid:
            del strash[fanins]
        a, b, c = fanins
        nodes[nid] = (a ^ 1, b ^ 1, c ^ 1)
        dirty.add(nid)
        outputs = self._outputs
        for cid in index.get(nid, ()):  # flip the edges that name nid
            if cid < 0:  # output position ~cid
                outputs[~cid] ^= 1
                continue
            old = nodes[cid]
            if strash.get(old) == cid:
                del strash[old]
            a, b, c = old
            nodes[cid] = (a ^ (a >> 1 == nid), b ^ (b >> 1 == nid), c ^ (c >> 1 == nid))
            dirty.add(cid)

    def redirect(self, mapping: dict[int, int]) -> set[int]:
        """Point each reader of a node in `mapping` at `mapping[node]`,
        complemented where its edge was: the output positions that name
        it, and each consumer outside `mapping` once, however many ports
        move. Mapped nodes stay. Returns the consumers it rewrote."""
        for t in mapping.values():  # before any write
            self._check_live(t)
        index = self._index()
        users = {cid for n in mapping for cid in index.get(n, ()) if 0 <= cid not in mapping}
        # all read first: the mapping is applied at once
        moved = [(~r, n) for n in mapping for r in index.get(n, ()) if r < 0]
        # an unmapped node stands for itself: its positive literal
        for cid in users:
            self.set_fanins(cid, [mapping.get(s >> 1, s & ~1) ^ (s & 1) for s in self.nodes[cid]])
        outputs = self._outputs
        for i, n in moved:
            t = mapping[n]
            outputs[i] = t ^ (outputs[i] & 1)
            if t >> 1 != n:
                self._link(~i, {t >> 1})
                self._unlink(~i, {n})
        return users

    def remove(self, nid: int):
        """Delete majority node `nid`; nodes still reading it must go too,
        or be redirected."""
        fanins = self.nodes.get(nid)
        if not fanins:
            raise MigError(f"node {nid} is not a live majority node")
        del self.nodes[nid]
        if self._fanouts is not None:
            self._fanouts.pop(nid, None)
            self._unlink(nid, {s >> 1 for s in fanins})
            if self._strash.get(fanins) == nid:
                del self._strash[fanins]
            self._dirty.discard(nid)
            self._orphans.discard(nid)

    def _link(self, reader: int, producers: set[int]):
        for p in producers:
            self._fanouts.setdefault(p, set()).add(reader)

    def _unlink(self, reader: int, producers: set[int]):
        for p in producers:  # a producer may be gone already
            users = self._fanouts.get(p)
            if users is not None:
                users.discard(reader)
                if not users:
                    del self._fanouts[p]
                    if p > self.pi_count:
                        self._orphans.add(p)

    def _index(self) -> dict[int, set[int]]:
        """The consumer index, built with the cleanup state on first use."""
        if self._fanouts is None:
            self._fanouts = self._scan_fanouts()
            maj = self.maj_ids()
            self._dirty = set(maj)
            self._orphans = set(maj)
            self._strash = {}
        return self._fanouts

    def drop_fanout_index(self):
        """Free the consumer index and the cleanup state; `fanouts`,
        `complement`, `redirect` and the cleanup accessors rebuild them."""
        # readers per node that has any, one set per producer: consumer ids,
        # and ~i for each output position i; `fanouts` sorts a set on read,
        # so a write costs O(1)
        self._fanouts: dict[int, set[int]] | None = None
        self._dirty: set[int] | None = None  # written since the λ rules settled
        self._orphans: set[int] | None = None  # pending dead removal
        self._strash: dict[tuple[int, ...], int] | None = None  # fanin triple -> id

    def clone(self) -> "MigGraph":
        """An independent copy, with copies of the consumer index and the
        cleanup state, so its cleanup continues where this graph's left off
        instead of starting over with every node pending."""
        g = MigGraph.__new__(MigGraph)
        g.pi_count = self.pi_count
        g.nodes = dict(self.nodes)  # fanin tuples are immutable, so share them
        g._outputs = list(self._outputs)
        g._next_id = self._next_id
        if self._fanouts is None:
            g.drop_fanout_index()
        else:
            g._fanouts = {p: users.copy() for p, users in self._fanouts.items()}
            g._dirty = self._dirty.copy()
            g._orphans = self._orphans.copy()
            g._strash = self._strash.copy()  # keys and ids are immutable
        return g

    # -- cleanup state ------------------------------------------------

    def pending(self) -> list[int]:
        """Majority ids written since the λ rules last settled, ascending;
        every majority id on a graph without cleanup state."""
        self._index()
        return sorted(self._dirty)

    def hash_node(self, nid: int) -> int:
        """Enter majority node `nid` in the structural hash under its fanin
        triple; returns the id the hash already holds for that triple, or
        `nid` when it holds none. Call it after `pending`, which starts the
        cleanup state."""
        return self._strash.setdefault(self.nodes[nid], nid)

    def settle(self):
        """Mark every pending node clean. Only the λ rules call it, once
        each pending node is hashed and neither rule applies to it."""
        self._dirty.clear()

    def remove_orphans(self):
        """Delete each orphan pending dead removal (every majority node on a
        graph without cleanup state), a majority node that no node reads
        and no output names; `remove` makes each fanin that loses its last
        reader pending, so the deletion recurses. In a DAG every node left
        has a path to an output."""
        index, orphans = self._index(), self._orphans
        while orphans:
            nid = orphans.pop()
            if nid not in index:
                self.remove(nid)

    # -- traversal ----------------------------------------------------

    def fanouts(self, nid: int) -> list[int]:
        """Distinct ids of the nodes that read `nid`, in creation order."""
        if nid not in self.nodes:
            raise MigError(f"no live node {nid}")
        return sorted(r for r in self.readers(nid) if r >= 0)

    def readers(self, nid: int) -> Set[int]:
        """The readers of live node `nid` as the consumer index holds them,
        unsorted: the id of each node that reads it and ``~i`` for each
        output position ``i`` that names it. The index's own set, typed
        read-only: read it before the next write and never change it."""
        return self._index().get(nid, _NO_READERS)

    def _scan_fanouts(self) -> dict[int, set[int]]:
        fo: dict[int, set[int]] = {}
        for nid, fanins in self.nodes.items():
            for s in fanins:
                users = fo.get(s >> 1)
                if users is None:
                    fo[s >> 1] = {nid}
                else:
                    users.add(nid)
        for i, s in enumerate(self._outputs):
            fo.setdefault(s >> 1, set()).add(~i)
        return fo

    def maj_ids(self) -> list[int]:
        # the node table holds the constant and the inputs first, then the gates
        return list(islice(self.nodes, self.pi_count + 1, None))

    def live_ids(self) -> list[int]:
        """Majority ids in the output cone, ascending. Starts the cleanup
        state, and walks the cone only when an orphan has no reader (node
        or output): every other majority node has one, so in a DAG each
        then has a path to an output."""
        index, orphans = self._index(), self._orphans
        if orphans:
            if not all(n in index for n in orphans):
                reach = self.reachable_nodes()
                return [n for n in self.maj_ids() if n in reach]
        return self.maj_ids()

    def reachable_nodes(self) -> set[int]:
        """Transitive fanin closure of the outputs (all node kinds)."""
        seen: set[int] = set()
        stack = [s >> 1 for s in self.outputs]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            fanins = self.nodes.get(nid)
            if fanins is None:
                raise MigError(f"output cone references dead node {nid}")
            seen.add(nid)
            for s in fanins:
                if s >> 1 not in seen:
                    stack.append(s >> 1)
        return seen

    def topological_order(self) -> list[int]:
        """Live node ids, fanins before fanouts. Raises on a cycle.

        The order a port-order depth-first walk from each id in turn gives,
        in one ascending sweep: ids are a topological order except where a
        write made a node read a newer one, so a node whose fanins are all
        placed is placed at once, and only one that reads an unplaced id
        walks from itself."""
        nodes = self.nodes
        order: list[int] = []
        placed: set[int] = set()
        for root, fanins in nodes.items():  # ascending ids
            if root in placed:
                continue
            if not fanins:  # a terminal
                placed.add(root)
                order.append(root)
                continue
            if len(fanins) == 3:
                a, b, c = fanins
                if a >> 1 in placed and b >> 1 in placed and c >> 1 in placed:
                    placed.add(root)
                    order.append(root)
                    continue
            walking: set[int] = set()
            stack: list[tuple[int, int]] = [(root, 0)]
            while stack:
                nid, idx = stack.pop()
                walking.add(nid)
                fanins = nodes[nid]
                for i in range(idx, len(fanins)):
                    child = fanins[i] >> 1
                    if child in walking:
                        raise MigError(f"cycle through node {child}: graph corrupted")
                    if child not in placed:
                        if child not in nodes:
                            raise MigError(f"node {nid} references dead node {child}")
                        stack.append((nid, i + 1))
                        stack.append((child, 0))
                        break
                else:
                    walking.discard(nid)
                    placed.add(nid)
                    order.append(nid)
        return order

    def size(self) -> int:
        """Number of majority nodes in the output cone. A graph without
        cleanup state is walked and left without it."""
        if self._fanouts is not None:
            return len(self.live_ids())
        return sum(1 for nid in self.reachable_nodes() if nid > self.pi_count)

    # -- simulation ---------------------------------------------------

    def _eval_words(self, leaf_vals: dict[int, int], mask: int) -> dict[int, int]:
        vals = dict(leaf_vals)
        for nid in self.topological_order():
            if nid <= self.pi_count:
                continue
            a, b, c = self.nodes[nid]
            va = vals[a >> 1] ^ (mask if a & 1 else 0)
            vb = vals[b >> 1] ^ (mask if b & 1 else 0)
            vc = vals[c >> 1] ^ (mask if c & 1 else 0)
            vals[nid] = _maj_word(va, vb, vc)
        return vals

    def simulate_truth_tables(self) -> list[int]:
        """Exact truth table per output, as an int of 2^pi_count bits."""
        if self.pi_count > 16:
            raise MigError("exact truth tables limited to 16 inputs")
        n = self.pi_count
        mask = (1 << (1 << n)) - 1
        leaves = {0: 0}
        for k in range(1, n + 1):
            leaves[k] = pi_pattern(k, n)
        vals = self._eval_words(leaves, mask)
        return [vals[s >> 1] ^ (mask if s & 1 else 0) for s in self.outputs]

    def simulate_signatures(self, seed: int, width: int = 256) -> list[int]:
        """Per-output words of bit-parallel simulation under `width`
        pseudo-random PI patterns.

        Patterns depend only on (seed, width, PI index), so functionally
        equal graphs over the same inputs produce equal signatures.
        """
        if width < 64:
            raise MigError("signature width must be at least 64")
        rng = random.Random(seed)
        mask = (1 << width) - 1
        leaves = {0: 0}
        for k in range(1, self.pi_count + 1):
            leaves[k] = rng.getrandbits(width)
        vals = self._eval_words(leaves, mask)
        return [vals[s >> 1] ^ (mask if s & 1 else 0) for s in self.outputs]

    def check(self):
        """Structural invariant sweep; raises MigError on corruption."""
        if 0 not in self.nodes:
            raise MigError("node 0 must be the constant")
        for k in range(1, self.pi_count + 1):
            if k not in self.nodes:
                raise MigError(f"node {k} must be primary input x{k}")
        if list(self.nodes) != sorted(self.nodes):
            raise MigError("node ids out of order")
        for nid, fanins in self.nodes.items():
            if nid > self.pi_count and len(fanins) != 3:
                raise MigError(f"majority node {nid} needs 3 fanins")
            if nid <= self.pi_count and fanins:
                raise MigError(f"terminal node {nid} must have no fanins")
            for s in fanins:
                if s >> 1 not in self.nodes:
                    raise MigError(f"node {nid} references dead node {s >> 1}")
        for s in self.outputs:
            if s >> 1 not in self.nodes:
                raise MigError(f"output references dead node {s >> 1}")
        if self._fanouts is not None:
            if self._fanouts != self._scan_fanouts():
                raise MigError("fanout index disagrees with the fanins and outputs")
            maj = set(self.maj_ids())
            if not self._dirty <= maj or not self._orphans <= maj:
                raise MigError("cleanup state names a gone node")
            if any(self.nodes.get(n) != t for t, n in self._strash.items()):
                raise MigError("structural hash disagrees with the fanins")
            if any(self._strash.get(self.nodes[n]) != n for n in maj - self._dirty):
                raise MigError("a settled node is missing from the structural hash")
            if any(n not in self._fanouts for n in maj - self._orphans):
                raise MigError("a node nothing reads is not pending dead removal")
        self.topological_order()


def new_graph(pi_count: int) -> MigGraph:
    return MigGraph(pi_count)
