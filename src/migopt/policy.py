"""Per-node rewrite policy: full-graph message passing with per-center deltas.

Each acting node (a center) observes the graph within L undirected edge
hops of itself, L being the number of layers. Node features carry no
identifiers, only an is_self bit plus the node type, so the same
parameters run on graphs of any size. A layer's message concatenates six
slots: the three fanin feature vectors (each with a +1/-1 polarity
channel) and three fanout sums binned by the consuming input port. After
L layers the center's feature vector feeds a linear head and a softmax
over the action catalog.

One pass serves every center. The is_self bit is the only input that
depends on the center, and each layer moves information by one hop. So
at layer l a node more than l hops from center c has the features it has
in a *background* pass in which no node is a center; and only nodes
within L - l hops of c reach c's output. The engine runs the background
pass once over every node of the graph. Per center it recomputes *delta
rows* only for the nodes within min(l, L - l) hops at layer l. A delta
row reads a neighbor's delta row of the layer below where the neighbor
has one, and its background row otherwise. For L = 3 that is the center
and its 1-hop neighbors at layers 1 and 2, and the center alone at layer
3. Every row a delta row reads at layer L / 2 or above is itself a delta
row, so background rows exist only below L / 2. Every row that reaches
the center's output thus sees the same inputs over the same edges as
when the network runs on the center's L-hop neighborhood alone, and the
result is the same. Backward mirrors this: each center's adjoint flows
into its delta rows and into the shared background rows, whose pass is
then backpropagated once for all centers.

All arithmetic is float64. Each fanout bin sums its contributions in
consumer creation order (node id order). A center's distribution is
therefore a function of its neighborhood and of the relative creation
order of the nodes in it, not of node ids or of the rest of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from migopt.mig import MigError, MigGraph
from migopt.rewrite import ACTION_COUNT

BASE_FEATURES = 4  # [is_self, is_pi, is_const, is_majority]


@dataclass(slots=True)
class Hyperparams:
    layers: int = 3  # message-passing depth == neighborhood radius
    hidden: int = 16

    def validate(self):
        if self.layers < 1:
            raise MigError("need at least one layer")
        if self.hidden < 4:
            raise MigError("hidden width must be at least 4")


class PolicyParams:
    """Weights of the port-binned message-passing network plus action head."""

    def __init__(self, hp: Hyperparams, weights, biases, head_w, head_b):
        hp.validate()
        self.hp = hp
        self.weights = weights  # L arrays, hidden x 6*(h_in+1)
        self.biases = biases  # L arrays, hidden
        self.head_w = head_w  # ACTION_COUNT x hidden
        self.head_b = head_b  # ACTION_COUNT

    @staticmethod
    def layer_in_dim(hp: Hyperparams, layer: int) -> int:
        return BASE_FEATURES if layer == 0 else hp.hidden

    @classmethod
    def init(cls, hp: Hyperparams, seed: int = 0) -> "PolicyParams":
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for layer in range(hp.layers):
            fan_in = 6 * (cls.layer_in_dim(hp, layer) + 1)
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(hp.hidden, fan_in)))
            biases.append(np.zeros(hp.hidden))
        bound = 1.0 / np.sqrt(hp.hidden)
        head_w = rng.uniform(-bound, bound, size=(ACTION_COUNT, hp.hidden))
        head_b = np.zeros(ACTION_COUNT)
        return cls(hp, weights, biases, head_w, head_b)

    @classmethod
    def zeros(cls, hp: Hyperparams) -> "PolicyParams":
        weights = [
            np.zeros((hp.hidden, 6 * (cls.layer_in_dim(hp, i) + 1)))
            for i in range(hp.layers)
        ]
        biases = [np.zeros(hp.hidden) for _ in range(hp.layers)]
        return PolicyParams(
            hp, weights, biases, np.zeros((ACTION_COUNT, hp.hidden)), np.zeros(ACTION_COUNT)
        )

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"w{i}", w))
            out.append((f"b{i}", b))
        out.append(("head_w", self.head_w))
        out.append(("head_b", self.head_b))
        return out

    def param_count(self) -> int:
        return sum(a.size for _, a in self.arrays())

    @staticmethod
    def expected_param_count(hp: Hyperparams) -> int:
        h, L = hp.hidden, hp.layers
        return (
            6 * (BASE_FEATURES + 1) * h
            + h
            + (L - 1) * (6 * (h + 1) * h + h)
            + ACTION_COUNT * h
            + ACTION_COUNT
        )

    def clone(self) -> "PolicyParams":
        return PolicyParams(
            self.hp,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.head_w.copy(),
            self.head_b.copy(),
        )

    def add_scaled(self, grads: "PolicyParams", scale: float):
        for w, gw in zip(self.weights, grads.weights):
            w += scale * gw
        for b, gb in zip(self.biases, grads.biases):
            b += scale * gb
        self.head_w += scale * grads.head_w
        self.head_b += scale * grads.head_b


@dataclass(slots=True)
class _Layer:
    """Index arrays of one layer: its output rows, each reading input rows."""

    fanin_idx: np.ndarray  # (R, 3) input row or -1
    fanin_pol: np.ndarray  # (R, 3) +-1, 0 where absent
    edge_consumer: np.ndarray  # (E,) input row of the consuming node
    edge_bin: np.ndarray  # (E,) output row * 3 + port; a bin sums in edge order
    edge_pol: np.ndarray  # (E,)


@dataclass(slots=True)
class _Batch:
    """Background rows plus per-center delta rows, layer by layer."""

    x0: np.ndarray  # (N + C, 4): one row per graph node, then each center's
    layers: list[_Layer]
    centers: list[int] = field(default_factory=list)  # the caller's list, not a copy
    caches: list = field(default_factory=list)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of range(s, s + n) over the pairs (s, n)."""
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return offsets + np.arange(offsets.size, dtype=np.int64)


def _graph_arrays(g: MigGraph) -> tuple[np.ndarray, ...]:
    """Rows of g's nodes in id order, (ids, kind, fanin_idx, fanin_pol), and
    its edges (prod, port, cons, pol) by (producer, port), consumers in id
    order. g.nodes holds the constant, the inputs, then the majority nodes."""
    n = len(g.nodes)
    ids = np.fromiter(g.nodes, dtype=np.int64, count=n)
    first = g.pi_count + 1  # row of the first majority node
    kind = np.zeros((n, BASE_FEATURES))
    kind[0, 2] = kind[1:first, 1] = kind[first:, 3] = 1.0
    maj = islice(g.nodes.values(), first, None)
    lits = np.fromiter((s for fanins in maj for s in fanins), np.int64, 3 * (n - first))
    fanin_idx = np.full((n, 3), -1, dtype=np.int64)
    fanin_idx[first:] = np.searchsorted(ids, lits >> 1).reshape(-1, 3)
    fanin_pol = np.zeros((n, 3))
    fanin_pol[first:] = (1.0 - 2.0 * (lits & 1)).reshape(-1, 3)

    edge_prod = fanin_idx[first:].ravel()  # edge e is port e % 3 of row first + e // 3
    order = np.argsort(edge_prod * 3 + np.arange(edge_prod.size) % 3, kind="stable")
    pol = fanin_pol[first:].ravel()[order]
    return ids, kind, fanin_idx, fanin_pol, edge_prod[order], order % 3, first + order // 3, pol


def _build_batch(g: MigGraph, centers: list[int], depth: int) -> _Batch:
    ids, kind, fanin_idx, fanin_pol, prod, port, cons, pol = _graph_arrays(g)
    n = ids.size
    fo_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(prod, minlength=n), out=fo_ptr[1:])

    # (center, node) pairs within depth // 2 undirected hops, by center then hop
    wanted = np.asarray(centers, dtype=np.int64)
    cidx = np.minimum(np.searchsorted(ids, wanted), n - 1)
    if (ids[cidx] != wanted).any() or (kind[cidx, 3] == 0).any():
        raise MigError("every center must be a live majority node")
    pair_key = np.arange(cidx.size, dtype=np.int64) * n + cidx
    pair_dist = np.zeros(cidx.size, dtype=np.int64)
    if depth >= 2:
        both = np.unique(np.concatenate([prod * n + cons, cons * n + prod]))
        nbr_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(both // n, minlength=n), out=nbr_ptr[1:])
        nbr = both % n
        frontier, seen = pair_key, pair_key
        for hop in range(1, depth // 2 + 1):
            ci, v = np.divmod(frontier, n)
            lengths = nbr_ptr[v + 1] - nbr_ptr[v]
            reached = np.repeat(ci, lengths) * n + nbr[_ranges(nbr_ptr[v], lengths)]
            frontier = np.setdiff1d(reached, seen)
            seen = np.union1d(seen, frontier)
            pair_key = np.concatenate([pair_key, frontier])
            pair_dist = np.concatenate([pair_dist, np.full(frontier.size, hop)])
        order = np.lexsort((pair_key, pair_dist, pair_key // n))
        pair_key, pair_dist = pair_key[order], pair_dist[order]

    top = (depth - 1) // 2  # highest layer that keeps background rows
    x0 = np.concatenate([kind, kind[cidx]])
    x0[n:, 0] = 1.0
    below = pair_key[pair_dist == 0]  # delta keys of the input layer
    below_base = n
    layers = []
    for layer in range(1, depth + 1):
        keys = pair_key[pair_dist <= min(layer, depth - layer)]
        base = n if layer <= top else 0
        sorter = np.argsort(below)
        sorted_below = below[sorter]

        def input_rows(ci, v):
            """Input row of node v for center ci: its delta row, else background."""
            q = ci * n + v
            pos = np.minimum(np.searchsorted(sorted_below, q), sorted_below.size - 1)
            return np.where(sorted_below[pos] == q, below_base + sorter[pos], v)

        ci, v = np.divmod(keys, n)
        d_fanin = fanin_idx[v]
        present = d_fanin >= 0
        fanin_ci = np.broadcast_to(ci[:, None], d_fanin.shape)
        d_fanin[present] = input_rows(fanin_ci[present], d_fanin[present])
        lengths = fo_ptr[v + 1] - fo_ptr[v]
        flat = _ranges(fo_ptr[v], lengths)
        d_rows = np.repeat(base + np.arange(keys.size, dtype=np.int64), lengths)
        rows = (
            d_fanin,
            fanin_pol[v],
            input_rows(np.repeat(ci, lengths), cons[flat]),
            d_rows * 3 + port[flat],
            pol[flat],
        )
        if base:  # background rows first, in node order
            background = (fanin_idx, fanin_pol, cons, prod * 3 + port, pol)
            rows = tuple(np.concatenate(pair) for pair in zip(background, rows))
        layers.append(_Layer(*rows))
        below, below_base = keys, base
    return _Batch(x0, layers, centers=centers)


def _forward_batch(params: PolicyParams, batch: _Batch, keep_cache: bool = False):
    feats = batch.x0
    batch.caches = []
    for layer, lay in enumerate(batch.layers):
        rows = lay.fanin_idx.shape[0]
        h_in = feats.shape[1]
        slot = h_in + 1
        msg = np.empty((rows, 6, slot))
        msg[:, :3, :h_in] = feats[lay.fanin_idx]
        msg[:, :3, :h_in][lay.fanin_idx < 0] = 0.0
        msg[:, :3, h_in] = lay.fanin_pol
        # one sequential bincount per channel keeps each bin in edge order; a
        # single one over (bin, channel) keys, as in _scatter_add, made this
        # forward pass 25% slower on 500-gate graphs (edges x channels temporaries)
        sums = np.empty((slot, rows * 3))
        for k, column in enumerate(feats.T):
            sums[k] = np.bincount(lay.edge_bin, column[lay.edge_consumer], rows * 3)
        sums[h_in] = np.bincount(lay.edge_bin, lay.edge_pol, rows * 3)
        msg[:, 3:] = sums.T.reshape(rows, 3, slot)
        msg = msg.reshape(rows, 6 * slot)
        z = msg @ params.weights[layer].T + params.biases[layer]
        if keep_cache:
            batch.caches.append((feats, msg, z))
        feats = np.maximum(z, 0.0)

    logits = feats @ params.head_w.T + params.head_b
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    log_probs = logits - lse
    if keep_cache:
        batch.caches.append(feats)
    return np.exp(log_probs), log_probs


def _scatter_add(dst: np.ndarray, idx: np.ndarray, src: np.ndarray):
    """dst[idx[k]] += src[k], deterministic; bincount beats add.at in bulk.

    The bulk branch runs one bincount over (row, column) keys; each key
    still sums its values in the order of idx."""
    if idx.size > 192:
        n, k = dst.shape
        keys = (idx[:, None] * k + np.arange(k)).ravel()
        dst += np.bincount(keys, weights=src.ravel(), minlength=n * k).reshape(n, k)
    else:
        np.add.at(dst, idx, src)


def _backward_batch(
    params: PolicyParams,
    batch: _Batch,
    probs: np.ndarray,
    action_idx: np.ndarray,
    scales: np.ndarray,
    grads: PolicyParams,
    entropy_coef: float = 0.0,
):
    """Accumulate sum_i scales[i] * grad log pi(action_i | center_i).

    With entropy_coef set, also accumulates the gradient of
    entropy_coef * sum_i H(pi(.|center_i)).
    """
    feats_last = batch.caches[-1]

    dlogits = -probs * scales[:, None]
    dlogits[np.arange(len(action_idx)), action_idx] += scales
    if entropy_coef:
        logp = np.log(np.maximum(probs, 1e-300))
        ent = -(probs * logp).sum(axis=1, keepdims=True)
        dlogits += entropy_coef * (-probs * (logp + ent))

    grads.head_w += dlogits.T @ feats_last
    grads.head_b += dlogits.sum(axis=0)
    dfeats = dlogits @ params.head_w

    for layer in range(params.hp.layers - 1, -1, -1):
        feats_prev, msg, z = batch.caches[layer]
        dz = dfeats * (z > 0.0)
        grads.weights[layer] += dz.T @ msg
        grads.biases[layer] += dz.sum(axis=0)
        if layer == 0:
            break  # the layer-0 rows are inputs
        lay = batch.layers[layer]
        rows, h_in = msg.shape[0], feats_prev.shape[1]
        dmsg = (dz @ params.weights[layer]).reshape(rows, 6, h_in + 1)
        dfeats = np.zeros_like(feats_prev)
        valid = lay.fanin_idx >= 0
        _scatter_add(dfeats, lay.fanin_idx[valid], dmsg[:, :3, :h_in][valid])
        dfanout = dmsg[:, 3:, :h_in].reshape(rows * 3, h_in)
        _scatter_add(dfeats, lay.edge_consumer, dfanout[lay.edge_bin])


def batch_for(params: PolicyParams, g: MigGraph, centers: list[int]) -> _Batch:
    """Index arrays for a pass over the given majority nodes (at least one)."""
    return _build_batch(g, centers, params.hp.layers)


def sample_actions(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of probs, in row order; deterministic
    for a fixed rng."""
    cum = np.cumsum(probs, axis=1)
    idx = (cum < rng.random(len(probs))[:, None]).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)
