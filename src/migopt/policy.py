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
depends on the center, and a message reads a node's fanins and fanout
consumers, never the node itself. So a node's layer-l row can differ from
its row in a *background* pass, in which no node is a center, only if a
walk of exactly l undirected edges joins it to center c; and that row
reaches c's output only if a walk of exactly L - l edges leads back to c.
The engine runs the background pass once over every node of the graph.
Per center it computes *delta rows* at layer l only for the nodes at step
l of some closed walk of length L through c. A delta row reads a
neighbor's delta row of the layer below where the neighbor has one, and
its background row otherwise, so the layers below L keep their background
rows wherever such a read needs them. For L = 3 the delta rows at layers
1 and 2 are the neighbors of c that lie on a triangle through c, and at
layer 3 the center alone; a center on no triangle reads background rows
only, and its own is_self bit never reaches its output. Every row that
reaches the center's output thus sees the same inputs over the same edges
as when the network runs on the center's L-hop neighborhood alone, and
the result is the same. Backward mirrors this: each center's adjoint flows
into its delta rows and into the shared background rows, whose pass is
then backpropagated once for all centers.

All arithmetic is float64. Each fanout bin sums its contributions in
consumer creation order (node id order). A center's distribution is
therefore a function of its neighborhood and of the relative creation
order of the nodes in it, not of node ids or of the rest of the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice

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
    """Weights of the port-binned message-passing network plus action head,
    held as views into one float64 vector, `flat`.

    For each layer l, flat holds w{l} (hidden x 6*(h_in+1), h_in being
    BASE_FEATURES at layer 0 and hidden above) and then b{l} (hidden);
    after the last layer come head_w (ACTION_COUNT x hidden) and head_b
    (ACTION_COUNT). arrays() names these views in that order, the order
    checkpoints store them in. This class alone knows the layout; the
    trainer and the checkpoint parser work through `flat` and arrays().
    PolicyParams(hp) is all zeros; PolicyParams(hp, flat) keeps the given
    vector, of the layout's size, as its storage without copying it.
    """

    def __init__(self, hp: Hyperparams, flat: np.ndarray | None = None):
        hp.validate()
        self.hp = hp
        shapes = []
        for layer in range(hp.layers):
            h_in = BASE_FEATURES if layer == 0 else hp.hidden
            shapes += [(f"w{layer}", (hp.hidden, 6 * (h_in + 1))), (f"b{layer}", (hp.hidden,))]
        shapes += [("head_w", (ACTION_COUNT, hp.hidden)), ("head_b", (ACTION_COUNT,))]
        ends = list(accumulate(math.prod(shape) for _, shape in shapes))
        self.flat = flat = np.zeros(ends[-1]) if flat is None else flat
        self._arrays = [
            (name, flat[end - math.prod(shape) : end].reshape(shape))
            for (name, shape), end in zip(shapes, ends)
        ]
        views = [arr for _, arr in self._arrays]
        self.weights, self.biases = views[:-2:2], views[1:-2:2]
        self.head_w, self.head_b = views[-2:]

    @classmethod
    def init(cls, hp: Hyperparams, seed: int = 0) -> "PolicyParams":
        """Uniform weights in +-1/sqrt(fan_in), one draw per matrix in
        layer order and the head last; zero biases."""
        rng = np.random.default_rng(seed)
        params = cls(hp)
        for w in (*params.weights, params.head_w):
            bound = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        return params

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        return list(self._arrays)

    def clone(self) -> "PolicyParams":
        return PolicyParams(self.hp, self.flat.copy())

    def add_scaled(self, grads: "PolicyParams", scale: float):
        self.flat += scale * grads.flat


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
    maj = chain.from_iterable(islice(g.nodes.values(), first, None))
    lits = np.fromiter(maj, np.int64, 3 * (n - first))
    row = np.empty(ids[-1] + 1, dtype=np.int64)  # node id -> row
    row[ids] = np.arange(n, dtype=np.int64)
    fanin_idx = np.full((n, 3), -1, dtype=np.int64)
    fanin_idx[first:] = row[lits >> 1].reshape(-1, 3)
    fanin_pol = np.zeros((n, 3))
    fanin_pol[first:] = (1.0 - 2.0 * (lits & 1)).reshape(-1, 3)

    edge_prod = fanin_idx[first:].ravel()  # edge e is port e % 3 of row first + e // 3
    order = np.argsort(edge_prod * 3 + np.arange(edge_prod.size) % 3, kind="stable")
    pol = fanin_pol[first:].ravel()[order]
    return ids, kind, fanin_idx, fanin_pol, edge_prod[order], order % 3, first + order // 3, pol


def _find(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Index of an entry equal to each entry of q in the sorted keys, -1
    where there is none."""
    if not keys.size:
        return np.full(q.shape, -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, q), keys.size - 1)
    return np.where(keys[at] == q, at, -1)


def _build_batch(g: MigGraph, centers: list[int], depth: int) -> _Batch:
    ids, kind, fanin_idx, fanin_pol, prod, port, cons, pol = _graph_arrays(g)
    n = ids.size
    fo_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(prod, minlength=n), out=fo_ptr[1:])

    cidx = _find(ids, np.asarray(centers, dtype=np.int64))
    if (cidx <= g.pi_count).any():  # -1 for an absent id; rows 0..pi_count are terminals
        raise MigError("every center must be a live majority node")

    # (center, node) pairs keyed center * s + node, so a sorted key array
    # runs by center, then node; s = n + 1 keeps a fanin slot of -1 from
    # reading as another center's pair
    s = n + 1
    own = np.arange(cidx.size, dtype=np.int64) * s + cidx
    # reach[l]: the pairs joined by a walk of exactly l undirected edges.
    # delta[l]: the pairs at step l of a closed walk of length depth through
    # the center, so in reach[l] and reach[depth - l]; these are the delta
    # rows of layer l. Layer 0 keeps every center's own row, x0's is_self row
    reach = [own]
    delta = [own] * (depth + 1)
    both = np.concatenate([prod * n + cons, cons * n + prod])
    both.sort()
    distinct = np.ones(both.size, dtype=bool)
    np.not_equal(both[1:], both[:-1], out=distinct[1:])
    both = both[distinct]
    nbr_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(both // n, minlength=n), out=nbr_ptr[1:])
    nbr = both % n

    def neighbors(keys):  # key by key, with repeats
        ci, v = np.divmod(keys, s)
        lengths = nbr_ptr[v + 1] - nbr_ptr[v]
        return np.repeat(ci * s, lengths) + nbr[_ranges(nbr_ptr[v], lengths)]

    # a center's neighbors are sorted and distinct, so reach[1] is too
    for layer in range(1, max(depth // 2, depth - 2) + 1):
        step = neighbors(reach[-1])
        reach.append(step if layer == 1 else np.unique(step))
    for near in range(1, depth // 2 + 1):
        far = depth - near
        walks = np.sort(neighbors(reach[far - 1]))  # reach[far], with repeats
        delta[near] = delta[far] = reach[near][_find(walks, reach[near]) >= 0]

    x0 = np.concatenate([kind, kind[cidx]])
    x0[n:, 0] = 1.0
    background = (fanin_idx, fanin_pol, cons, prod * 3 + port, pol)
    layers = []
    base = 0  # row of the layer's first delta row: n below background rows
    for layer in range(depth, 0, -1):
        ci, v = np.divmod(delta[layer], s)
        lengths = fo_ptr[v + 1] - fo_ptr[v]
        flat = _ranges(fo_ptr[v], lengths)
        d_fanin, d_cons = fanin_idx[v], cons[flat]
        # a read takes its pair's delta row in the layer below, else the
        # background row; a fanin slot of -1 finds no pair and stays -1
        fanin_at = _find(delta[layer - 1], (ci * s)[:, None] + d_fanin)
        cons_at = _find(delta[layer - 1], np.repeat(ci * s, lengths) + d_cons)
        # the layer below keeps background rows where a read here or a
        # background row of this layer needs one; layer 0 (x0) always has them
        below = n if (
            layer == 1
            or base
            or ((fanin_at < 0) & (d_fanin >= 0)).any()
            or (cons_at < 0).any()
        ) else 0
        out = (
            np.where(fanin_at >= 0, fanin_at + below, d_fanin),
            fanin_pol[v],
            np.where(cons_at >= 0, cons_at + below, d_cons),
            (np.repeat(np.arange(v.size, dtype=np.int64), lengths) + base) * 3 + port[flat],
            pol[flat],
        )
        if base:  # background rows first, in node order
            out = tuple(np.concatenate(pair) for pair in zip(background, out))
        layers.append(_Layer(*out))
        base = below
    layers.reverse()
    return _Batch(x0, layers, centers=centers)


# Buffers of the no-cache forward pass, by name. Fresh per-layer arrays
# (0.1 to 0.7 MB each at 500 gates) go back to the kernel on free and are
# faulted in again by the next pass: with np.empty in their place, a
# 500-gate greedy step took a median of 294 minor page faults against 0,
# and 4.1 ms against 3.1 ms at the median (80 recorded steps, 10
# alternating rounds, the buffers faster in each; 2-core host, one BLAS
# thread). Each buffer grows to a quarter more than the largest pass
# seen and never shrinks: 1.7 MB in all after 20 greedy steps on each of
# four 500-gate graphs, and 5.6 MB after 20 on a 2000-gate graph
# (measured). Without the quarter, a 500-gate graph that gained a few gates
# per greedy step regrew them and took 300 to 1,400 faults on 8 of its
# first 11 steps after the first; with it, under 70 on each. Held at module
# level, like mig._PI_PATTERNS, so a checkpoint parsed anew reuses them;
# the pass is therefore not reentrant (one pass at a time, the
# single-threaded use that MigGraph already requires).
_SCRATCH: dict[str, np.ndarray] = {}


def _scratch(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous float64 view of buffer `name` with the given shape,
    holding whatever the previous pass left there."""
    size = math.prod(shape)
    buf = _SCRATCH.get(name)
    if buf is None or buf.size < size:
        buf = _SCRATCH[name] = np.empty(size + size // 4)
    return buf[:size].reshape(shape)


def _fresh(name: str, shape: tuple[int, ...]) -> np.ndarray:
    return np.empty(shape)


def _forward_batch(params: PolicyParams, batch: _Batch, keep_cache: bool = False):
    """Probabilities and log-probabilities, one row per center, in arrays
    of their own.

    Without keep_cache every array of a layer's size is a view of a
    _SCRATCH buffer, so a pass allocates only its input rows and
    temporaries of one value per fanout bin or edge. With keep_cache the
    message matrices, pre-activations and features are fresh, since
    batch.caches keeps them for _backward_batch. The arithmetic, and so
    every bit, is the same either way."""
    alloc = _fresh if keep_cache else _scratch
    # each layer's input rows plus one zero row, which fanin slot -1 reads
    feats = np.concatenate([batch.x0, np.zeros((1, BASE_FEATURES))])
    batch.caches = []
    for layer, lay in enumerate(batch.layers):
        rows = lay.fanin_idx.shape[0]
        h_in = feats.shape[1]
        slot = h_in + 1
        msg = alloc("msg", (rows, 6, slot))
        # np.take writes straight into a C-contiguous out only; given the
        # strided fanin slots of msg, or mode="raise", it goes through a
        # fresh copy. mode="wrap" reads slot -1 as the zero row. Gathering
        # all six slots into msg through a (rows, 6) index with the fanout
        # slots at -1 saved this copy but took about 25 us more per
        # 50-gate training pass
        fanin = _scratch("fanin", (rows, 3, h_in))
        np.take(feats, lay.fanin_idx, axis=0, out=fanin, mode="wrap")
        msg[:, :3, :h_in] = fanin
        msg[:, :3, h_in] = lay.fanin_pol
        # fanout sums: one sequential bincount per channel adds each bin's
        # edges in edge order, starting from zero. np.add.reduceat sums a bin
        # pairwise and changes last bits (2,531 of 6,768 sums in a check with
        # bins of 1-8 edges); a scipy.sparse CSR product keeps the bits but
        # made 48 rand50 training episodes 4-9% slower; one bincount over
        # (bin, channel) keys, as in _scatter_add, made this pass 25% slower
        # on 500-gate graphs (edges x channels temporaries). Writing each
        # channel's counts straight into its strided column of msg took
        # 1.58 ms at the 3,004-row layer of a 500-gate pass; this row-major
        # buffer plus one transposing copy took 1.08 ms
        sums = _scratch("sums", (slot, rows * 3))
        for k, column in enumerate(feats.T):
            sums[k] = np.bincount(lay.edge_bin, column[lay.edge_consumer], rows * 3)
        sums[h_in] = np.bincount(lay.edge_bin, lay.edge_pol, rows * 3)
        msg[:, 3:] = sums.T.reshape(rows, 3, slot)
        msg = msg.reshape(rows, 6 * slot)
        w = params.weights[layer]
        z = alloc("z", (rows, w.shape[0]))
        np.matmul(msg, w.T, out=z)
        z += params.biases[layer]
        if keep_cache:
            batch.caches.append((msg, z))
        feats = alloc(f"feats{layer % 2}", (rows + 1, w.shape[0]))
        np.maximum(z, 0.0, out=feats[:rows])
        feats[rows] = 0.0

    feats = feats[:-1]
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
    still sums its values in the order of idx. The branch choice is part of
    the bit contract: add.at adds each value into dst in turn, while the
    bulk branch sums a key's values from zero and then adds dst, and the
    two round differently wherever dst is not zero (43% of the touched
    entries in a check of 1,500 values into 400 nonzero rows). Moving the
    threshold changes gradient bits."""
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
        msg, z = batch.caches[layer]
        dz = dfeats * (z > 0.0)
        grads.weights[layer] += dz.T @ msg
        grads.biases[layer] += dz.sum(axis=0)
        if layer == 0:
            break  # the layer-0 rows are inputs
        lay = batch.layers[layer]
        rows, h_in = msg.shape[0], params.hp.hidden
        rows_in = batch.caches[layer - 1][1].shape[0]
        dmsg = (dz @ params.weights[layer]).reshape(rows, 6, h_in + 1)
        # each input row sums its fanin-slot adjoints from zero in slot order,
        # so one bincount gives the bits of either _scatter_add branch; slot
        # -1 lands in key row 0, which is dropped
        keys = ((lay.fanin_idx + 1)[:, :, None] * h_in + np.arange(h_in)).ravel()
        dfeats = np.bincount(keys, dmsg[:, :3, :h_in].ravel(), (rows_in + 1) * h_in)
        dfeats = dfeats.reshape(rows_in + 1, h_in)[1:]
        dfanout = dmsg[:, 3:, :h_in].reshape(rows * 3, h_in)
        _scatter_add(dfeats, lay.edge_consumer, dfanout[lay.edge_bin])


def batch_for(params: PolicyParams, g: MigGraph, centers: list[int]) -> _Batch:
    """Index arrays for a pass over any number of majority nodes (none: zero rows)."""
    return _build_batch(g, centers, params.hp.layers)


def sample_actions(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of probs, in row order; deterministic
    for a fixed rng."""
    cum = np.cumsum(probs, axis=1)
    idx = (cum < rng.random(len(probs))[:, None]).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)
