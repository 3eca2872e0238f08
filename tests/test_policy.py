import random
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from migopt import datagen
from migopt import policy as pol
from migopt import rewrite as rw
from migopt.mig import MigError, lit, new_graph
from migopt.policy import Hyperparams, PolicyParams

from conftest import acting_nodes, clean_random_graph, crude_random_graph, dists

GOLDEN = Path(__file__).parent / "data" / "policy_golden.npz"
# every depth at both widths; each depth sees both graph kinds
GOLDEN_CASES = [
    (layers, hidden, "random_mig" if (layers + (hidden == 16)) % 2 else "clean")
    for layers in (1, 2, 3, 4)
    for hidden in (5, 16)
]


@dataclass(slots=True)
class Neighborhood:
    """Nodes within d_adj undirected edge traversals of the center."""

    center: int
    nodes: list[int]  # breadth-first from the center


def extract_neighborhood(g, center: int, d_adj: int) -> Neighborhood:
    if center not in g.nodes:
        raise MigError(f"center {center} is not a live node")
    dist = {center: 0}
    order = [center]
    qi = 0
    while qi < len(order):
        nid = order[qi]
        qi += 1
        d = dist[nid]
        if d == d_adj:
            continue
        for s in g.nodes[nid]:
            if s >> 1 not in dist:
                dist[s >> 1] = d + 1
                order.append(s >> 1)
        for cid in g.fanouts(nid):
            if cid not in dist:
                dist[cid] = d + 1
                order.append(cid)
    return Neighborhood(center, order)


def reference_graph_arrays(g):
    """`policy._graph_arrays` as the per-edge loop over an id -> row dict
    that preceded reading the fanin literals into one array."""
    ids = list(g.nodes)
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    kind = np.zeros((n, pol.BASE_FEATURES))
    kind[np.arange(n), [2 if nid == 0 else 1 if nid <= g.pi_count else 3 for nid in ids]] = 1.0
    prod, port, cons, neg = [], [], [], []
    for i, fanins in enumerate(g.nodes.values()):
        for p, s in enumerate(fanins):
            prod.append(index[s >> 1])
            port.append(p)
            cons.append(i)
            neg.append(s & 1)
    prod, port, cons = (np.asarray(a, dtype=np.int64) for a in (prod, port, cons))
    polarity = 1.0 - 2.0 * np.asarray(neg, dtype=float)
    order = np.argsort(prod * 3 + port, kind="stable")
    prod, port, cons, polarity = prod[order], port[order], cons[order], polarity[order]
    fanin_idx = np.full((n, 3), -1, dtype=np.int64)
    fanin_idx[cons, port] = prod
    fanin_pol = np.zeros((n, 3))
    fanin_pol[cons, port] = polarity
    return np.asarray(ids), kind, fanin_idx, fanin_pol, prod, port, cons, polarity


def hop_ball_build_batch(g, centers, depth):
    """The build before the reach rule, byte for byte: delta rows for every
    node within min(l, depth - l) hops of the center at layer l, and
    background rows at the layers up to (depth - 1) // 2. Written as a hop
    expansion through `setdiff1d`/`union1d`, a `lexsort`, and one sorted
    search per layer and read kind."""
    ids, kind, fanin_idx, fanin_pol, prod, port, cons, polarity = reference_graph_arrays(g)
    n = ids.size
    fo_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(prod, minlength=n), out=fo_ptr[1:])

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
            reached = np.repeat(ci, lengths) * n + nbr[pol._ranges(nbr_ptr[v], lengths)]
            frontier = np.setdiff1d(reached, seen)
            seen = np.union1d(seen, frontier)
            pair_key = np.concatenate([pair_key, frontier])
            pair_dist = np.concatenate([pair_dist, np.full(frontier.size, hop)])
        order = np.lexsort((pair_key, pair_dist, pair_key // n))
        pair_key, pair_dist = pair_key[order], pair_dist[order]

    top = (depth - 1) // 2
    x0 = np.concatenate([kind, kind[cidx]])
    x0[n:, 0] = 1.0
    below = pair_key[pair_dist == 0]
    below_base = n
    layers = []
    for layer in range(1, depth + 1):
        keys = pair_key[pair_dist <= min(layer, depth - layer)]
        base = n if layer <= top else 0
        sorter = np.argsort(below)
        sorted_below = below[sorter]

        def input_rows(ci, v):
            q = ci * n + v
            at = np.minimum(np.searchsorted(sorted_below, q), sorted_below.size - 1)
            return np.where(sorted_below[at] == q, below_base + sorter[at], v)

        ci, v = np.divmod(keys, n)
        d_fanin = fanin_idx[v]
        present = d_fanin >= 0
        fanin_ci = np.broadcast_to(ci[:, None], d_fanin.shape)
        d_fanin[present] = input_rows(fanin_ci[present], d_fanin[present])
        lengths = fo_ptr[v + 1] - fo_ptr[v]
        flat = pol._ranges(fo_ptr[v], lengths)
        d_rows = np.repeat(base + np.arange(keys.size, dtype=np.int64), lengths)
        rows = (
            d_fanin,
            fanin_pol[v],
            input_rows(np.repeat(ci, lengths), cons[flat]),
            d_rows * 3 + port[flat],
            polarity[flat],
        )
        if base:
            background = (fanin_idx, fanin_pol, cons, prod * 3 + port, polarity)
            rows = tuple(np.concatenate(pair) for pair in zip(background, rows))
        layers.append(pol._Layer(*rows))
        below, below_base = keys, base
    return pol._Batch(x0, layers, centers=centers)


def reference_build_batch(g, centers, depth):
    """`policy._build_batch` one center at a time in plain Python.

    A_0 = {c} and A_l = N(A_{l-1}): the nodes a walk of exactly l undirected
    edges joins to center c. D_depth = {c} and D_l = A_l & N(D_{l+1}). Layer
    l holds a delta row for (c, v) for each v in D_l, by center, then node;
    layer 0 holds every center's own row. A read takes the pair's delta row
    in the layer below, else the node's background row; a layer below the
    top holds background rows, first and in node order, where a read of the
    layer above finds no delta row or where the layer above holds them."""
    ids, kind, fanin_idx, fanin_pol, prod, port, cons, polarity = reference_graph_arrays(g)
    n = ids.size
    index = {nid: i for i, nid in enumerate(ids.tolist())}
    if any(c not in index or kind[index[c], 3] == 0 for c in centers):
        raise MigError("every center must be a live majority node")
    nbrs = [set() for _ in range(n)]
    fanouts = [[] for _ in range(n)]  # edge numbers, in edge order
    for e, (p, c) in enumerate(zip(prod.tolist(), cons.tolist())):
        nbrs[p].add(c)
        nbrs[c].add(p)
        fanouts[p].append(e)

    def hop(nodes):
        return set().union(*(nbrs[v] for v in nodes))

    own = [(i, index[c]) for i, c in enumerate(centers)]
    delta = [own] + [[] for _ in range(1, depth)] + [own]
    for i, c in enumerate(centers):
        reach = [{index[c]}]
        for _ in range(1, depth):
            reach.append(hop(reach[-1]))
        d = {index[c]}
        for layer in range(depth - 1, 0, -1):
            d = reach[layer] & hop(d)
            delta[layer] += [(i, v) for v in sorted(d)]

    x0 = np.concatenate([kind, kind[[index[c] for c in centers]]])
    x0[n:, 0] = 1.0
    layers = []
    base = 0
    for layer in range(depth, 0, -1):
        rows_below = {pair: k for k, pair in enumerate(delta[layer - 1])}
        reads = [
            (i, u)
            for i, v in delta[layer]
            for u in [*fanin_idx[v].tolist(), *(int(cons[e]) for e in fanouts[v])]
            if u >= 0
        ]
        below = n if layer == 1 or base or any(r not in rows_below for r in reads) else 0

        def row(i, u):
            k = rows_below.get((i, u))
            return u if k is None else below + k

        d_fanin, d_pol, e_cons, e_bin, e_pol = [], [], [], [], []
        for k, (i, v) in enumerate(delta[layer]):
            d_fanin += [row(i, u) if u >= 0 else -1 for u in fanin_idx[v].tolist()]
            d_pol += fanin_pol[v].tolist()
            for e in fanouts[v]:
                e_cons.append(row(i, int(cons[e])))
                e_bin.append((base + k) * 3 + int(port[e]))
                e_pol.append(polarity[e])
        out = (
            np.array(d_fanin, dtype=np.int64).reshape(-1, 3),
            np.array(d_pol, dtype=float).reshape(-1, 3),
            np.array(e_cons, dtype=np.int64),
            np.array(e_bin, dtype=np.int64),
            np.array(e_pol, dtype=float),
        )
        if base:
            background = (fanin_idx, fanin_pol, cons, prod * 3 + port, polarity)
            out = tuple(np.concatenate(pair) for pair in zip(background, out))
        layers.append(pol._Layer(*out))
        base = below
    return pol._Batch(x0, layers[::-1], centers=centers)


def reference_forward_batch(params, batch):
    """`policy._forward_batch` as it stood before it padded its input rows
    with a zero row for the absent fanin slots; keeps its caches."""
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
        sums = np.empty((slot, rows * 3))
        for k, column in enumerate(feats.T):
            sums[k] = np.bincount(lay.edge_bin, column[lay.edge_consumer], rows * 3)
        sums[h_in] = np.bincount(lay.edge_bin, lay.edge_pol, rows * 3)
        msg[:, 3:] = sums.T.reshape(rows, 3, slot)
        msg = msg.reshape(rows, 6 * slot)
        z = msg @ params.weights[layer].T + params.biases[layer]
        batch.caches.append((feats, msg, z))
        feats = np.maximum(z, 0.0)
    logits = feats @ params.head_w.T + params.head_b
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    log_probs = logits - lse
    batch.caches.append(feats)
    return np.exp(log_probs), log_probs


def reference_scatter_add(dst, idx, src):
    """`policy._scatter_add`, kept apart so that a change to its branch
    shows up as a difference from the reference."""
    if idx.size > 192:
        n, k = dst.shape
        keys = (idx[:, None] * k + np.arange(k)).ravel()
        dst += np.bincount(keys, weights=src.ravel(), minlength=n * k).reshape(n, k)
    else:
        np.add.at(dst, idx, src)


def reference_backward_batch(params, batch, probs, action_idx, scales, grads, entropy_coef=0.0):
    """`policy._backward_batch` as it stood before the fanin slots were
    summed by one bincount over all three slots of every row."""
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
            break
        lay = batch.layers[layer]
        rows, h_in = msg.shape[0], feats_prev.shape[1]
        dmsg = (dz @ params.weights[layer]).reshape(rows, 6, h_in + 1)
        dfeats = np.zeros_like(feats_prev)
        valid = lay.fanin_idx >= 0
        reference_scatter_add(dfeats, lay.fanin_idx[valid], dmsg[:, :3, :h_in][valid])
        dfanout = dmsg[:, 3:, :h_in].reshape(rows * 3, h_in)
        reference_scatter_add(dfeats, lay.edge_consumer, dfanout[lay.edge_bin])


def motif_graph(junk_nodes=0, filler_nodes=0, pis=8):
    """Fixed 4-node motif; optional id offset and far-away filler."""
    g = new_graph(pis)
    for _ in range(junk_nodes):
        g.add_majority(g.pi(7), g.pi(8), g.pi(7) ^ 1)
    a = g.add_majority(g.pi(1), g.pi(2) ^ 1, g.pi(3))
    b = g.add_majority(g.pi(2), g.pi(4), g.pi(5) ^ 1)
    c = g.add_majority(a, b ^ 1, g.pi(6))
    d = g.add_majority(c, g.pi(1), g.pi(3) ^ 1)
    outs = [d]
    if filler_nodes:
        f = g.add_majority(g.pi(7), g.pi(8) ^ 1, g.pi(7 if pis < 9 else 9))
        for k in range(filler_nodes - 1):
            f = g.add_majority(f, g.pi(7 + (k % 2)), g.pi(8) ^ 1)
        outs.append(f)
    g.set_outputs(outs)
    return g, c >> 1


def test_hyperparams_validation():
    with pytest.raises(MigError):
        Hyperparams(layers=0).validate()
    with pytest.raises(MigError):
        Hyperparams(hidden=2).validate()


def test_param_count_formula():
    def expected_param_count(hp):
        h, L = hp.hidden, hp.layers
        return (
            6 * (pol.BASE_FEATURES + 1) * h
            + h
            + (L - 1) * (6 * (h + 1) * h + h)
            + rw.ACTION_COUNT * h
            + rw.ACTION_COUNT
        )

    for layers, hidden in [(1, 4), (2, 8), (3, 16), (4, 5)]:
        hp = Hyperparams(layers=layers, hidden=hidden)
        params = PolicyParams.init(hp, seed=0)
        assert sum(a.size for _, a in params.arrays()) == expected_param_count(hp)
    hp = Hyperparams()  # defaults
    assert expected_param_count(hp) == 6 * 5 * 16 + 16 + 2 * (
        6 * 17 * 16 + 16
    ) + 9 * 16 + 9


def test_arrays_are_views_of_flat_in_checkpoint_order():
    hp = Hyperparams(layers=3, hidden=5)
    params = PolicyParams(hp)
    names = [name for name, _ in params.arrays()]
    assert names == ["w0", "b0", "w1", "b1", "w2", "b2", "head_w", "head_b"]
    params.flat[:] = np.arange(params.flat.size)
    start = 0
    for name, arr in params.arrays():
        assert np.shares_memory(arr, params.flat), name
        assert np.array_equal(arr.ravel(), np.arange(start, start + arr.size)), name
        start += arr.size
    assert start == params.flat.size
    assert params.weights[2] is params.arrays()[4][1] and params.head_b is params.arrays()[7][1]


def test_clone_shares_no_memory():
    params = PolicyParams.init(Hyperparams(layers=2, hidden=6), seed=1)
    twin = params.clone()
    assert not np.shares_memory(params.flat, twin.flat)
    for (name, a), (_, b) in zip(params.arrays(), twin.arrays()):
        assert not np.shares_memory(a, b), name
        assert a.tobytes() == b.tobytes(), name


def test_add_scaled_matches_per_array_update_bit_for_bit():
    hp = Hyperparams(layers=3, hidden=7)
    params = PolicyParams.init(hp, seed=2)
    grads = PolicyParams(hp, np.random.default_rng(5).normal(size=params.flat.size))
    want = [(name, a.copy()) for name, a in params.arrays()]
    for (_, w), (_, g) in zip(want, grads.arrays()):
        w += 0.37 * g
    params.add_scaled(grads, 0.37)
    for (name, a), (_, b) in zip(params.arrays(), want):
        assert a.tobytes() == b.tobytes(), name


def test_zero_params_give_uniform_distribution():
    g, center = motif_graph()
    params = PolicyParams(Hyperparams(layers=2, hidden=5))
    probs = dists(params, g, [center])[0][0]
    assert np.allclose(probs, 1.0 / 9.0)
    assert abs(probs.sum() - 1.0) < 1e-9


def test_forward_deterministic():
    g, center = motif_graph()
    params = PolicyParams.init(Hyperparams(layers=3, hidden=16), seed=4)
    p1, _ = dists(params, g, [center])
    p2, _ = dists(params, g, [center])
    assert np.array_equal(p1, p2)


def test_forward_relabeling_invariance_bitwise():
    params = PolicyParams.init(Hyperparams(layers=2, hidden=8), seed=11)
    g1, c1 = motif_graph(junk_nodes=0)
    g2, c2 = motif_graph(junk_nodes=7)
    n1 = extract_neighborhood(g1, c1, 2)
    n2 = extract_neighborhood(g2, c2, 2)
    assert len(n1.nodes) == len(n2.nodes)
    p1, _ = dists(params, g1, [c1])
    p2, _ = dists(params, g2, [c2])
    assert np.array_equal(p1, p2)


def test_forward_sensitive_to_edge_polarity():
    params = PolicyParams.init(Hyperparams(layers=2, hidden=8), seed=11)
    g1, c1 = motif_graph()
    p1, _ = dists(params, g1, [c1])
    g2, c2 = motif_graph()
    f = list(g2.nodes[c2])
    f[1] = f[1] ^ 1
    g2.nodes[c2] = tuple(f)
    p2, _ = dists(params, g2, [c2])
    assert not np.array_equal(p1, p2)


def test_distribution_normalization_random_graphs():
    params = PolicyParams.init(Hyperparams(), seed=1)
    for seed in range(4):
        g = clean_random_graph(6, 15, seed)
        for probs in dists(params, g, acting_nodes(g))[0]:
            assert abs(probs.sum() - 1.0) < 1e-9
            assert (probs >= 0).all()


def test_neighborhood_chain_radius():
    # chain links use disjoint primary inputs so no shared node shortcuts it
    g = new_graph(9)
    n1 = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    n2 = g.add_majority(n1, g.pi(4), g.pi(5))
    n3 = g.add_majority(n2, g.pi(6), g.pi(7))
    n4 = g.add_majority(n3, g.pi(8), g.pi(9))
    g.set_outputs([n4])
    members = set(extract_neighborhood(g, n1 >> 1, 2).nodes)
    assert {n1 >> 1, n2 >> 1, n3 >> 1} <= members
    assert n4 >> 1 not in members


def test_neighborhood_isolated_pi():
    g = new_graph(3)
    g.set_outputs([g.pi(1)])
    nb = extract_neighborhood(g, 2, 2)
    assert nb.nodes == [2]


def test_forward_all_matches_single_forward():
    params = PolicyParams.init(Hyperparams(layers=3, hidden=16), seed=2)
    g = clean_random_graph(7, 18, 8)
    centers = acting_nodes(g)
    probs, _ = dists(params, g, centers)
    for nid, row in zip(centers, probs):
        single = dists(params, g, [nid])[0][0]
        assert np.allclose(single, row, atol=1e-12)


def batch_graphs():
    """Graphs with dead nodes, with gaps in the ids, and with a node that
    reads one producer on two ports."""
    out = []
    for seed in range(6):
        g = crude_random_graph(5 + seed, 12 + 4 * seed, seed)
        assert len(g.maj_ids()) > g.size()  # dead nodes
        out.append(g)
        stepped = g.clone()
        rw.step(stepped, {n: rw.OmegaAction.DIST_LR for n in stepped.maj_ids()})
        assert len(stepped.maj_ids()) < stepped._next_id - stepped.pi_count - 1  # gaps
        out.append(stepped)
        twice = g.clone()
        a = twice.outputs[0]
        twice.set_outputs([twice.add_majority(a, a ^ 1, twice.pi(1)), *twice.outputs])
        out.append(twice)
    return out


def test_batch_build_matches_the_per_edge_loop(monkeypatch):
    for g in batch_graphs():
        for depth in (1, 2, 3, 4):
            got = pol._build_batch(g, g.maj_ids(), depth)
            with monkeypatch.context() as m:
                m.setattr(pol, "_graph_arrays", reference_graph_arrays)
                want = pol._build_batch(g, g.maj_ids(), depth)
            assert np.array_equal(got.x0, want.x0)
            assert len(got.layers) == len(want.layers) == depth
            for lg, lw in zip(got.layers, want.layers):
                for name in lg.__slots__:
                    a, b = getattr(lg, name), getattr(lw, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), name


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def center_sets(g):
    """Every majority node, every other one, every third in descending id
    order, and the newest one alone."""
    maj = g.maj_ids()
    return [maj, maj[::2], maj[::-3], maj[-1:]]


def assert_same_batch(got, want):
    assert same_bits(got.x0, want.x0)
    for lg, lw in zip(got.layers, want.layers, strict=True):
        for name in lg.__slots__:
            assert same_bits(getattr(lg, name), getattr(lw, name)), name


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_build_matches_the_reach_rule_reference(depth):
    big = crude_random_graph(12, 120, 6)
    for g in [*batch_graphs(), big]:
        for centers in center_sets(g):
            assert_same_batch(pol._build_batch(g, centers, depth), reference_build_batch(g, centers, depth))


@given(
    inputs=st.integers(2, 8),
    gates=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    depth=st.integers(1, 4),
    stepped=st.booleans(),
    data=st.data(),
)
def test_build_matches_the_reach_rule_reference_on_random_graphs(inputs, gates, seed, depth, stepped, data):
    """Graphs with dead nodes and, once stepped, gaps in the ids; centers in
    any order."""
    g = crude_random_graph(inputs, gates, seed)
    if stepped:
        rw.step(g, {n: rw.OmegaAction.DIST_LR for n in g.maj_ids()})
        assume(g.maj_ids())
    centers = data.draw(st.lists(st.sampled_from(g.maj_ids()), min_size=1, unique=True), label="centers")
    assert_same_batch(pol._build_batch(g, centers, depth), reference_build_batch(g, centers, depth))


# A product whose matrix has M rows with M * hidden <= 1200 takes OpenBLAS's
# small-matrix kernel, which rounds some rows differently from the kernel
# of larger matrices (measured at 6 * (h_in + 1) = 54 and 102 columns)
SMALL_KERNEL = 1200


@pytest.mark.parametrize("depth,hidden", [(d, h) for d in (1, 2, 3, 4) for h in (5, 16)])
def test_policy_pass_matches_the_reference_bit_for_bit(depth, hidden):
    """Log-probs and gradients (entropy term included) equal the reference
    functions' byte for byte, so no summation order changed; and they agree
    with the hop-ball build's: log-probs to the bit where every layer's
    product either runs the large-matrix kernel on both builds or multiplies
    the same matrix, and within 1e-14 elsewhere; gradients within 1e-14 of
    each array's largest entry where the log-probs agree to the bit."""
    seed = 100 * depth + hidden
    params = PolicyParams.init(Hyperparams(layers=depth, hidden=hidden), seed=seed)
    rng = np.random.default_rng(seed)
    scatter_sizes = []
    exact = 0
    big = crude_random_graph(12, 120, 6)  # its center layer has over 192 fanout edges
    for g in [*batch_graphs(), big]:
        for centers in center_sets(g):
            got = pol._build_batch(g, centers, depth)
            probs, logp = pol._forward_batch(params, got, keep_cache=True)
            twin = pol._Batch(got.x0, got.layers, centers=centers)  # its own caches
            want = reference_forward_batch(params, twin)
            assert same_bits(logp, want[1]) and same_bits(probs, want[0])
            old = hop_ball_build_batch(g, centers, depth)
            old_probs, old_logp = pol._forward_batch(params, old, keep_cache=True)
            if all(
                min(a.shape[0], b.shape[0]) * hidden > SMALL_KERNEL or same_bits(a, b)
                for (a, _), (b, _) in zip(got.caches[:-1], old.caches[:-1])
            ):
                exact += 1
                assert same_bits(logp, old_logp)
            assert np.max(np.abs(logp - old_logp)) <= 1e-14
            # each weight gradient sums other rows in another grouping; where a
            # log-prob moved by an ulp, the softmax terms' cancellation took
            # the gap to 9.5e-14 of an array's largest entry
            tol = 1e-14 if same_bits(logp, old_logp) else 1e-12
            actions = rng.integers(rw.ACTION_COUNT, size=len(centers))
            scales = rng.normal(size=len(centers))
            scales[::3] = 0.0
            grads, want_grads, old_grads = (PolicyParams(params.hp) for _ in range(3))
            pol._backward_batch(params, got, probs, actions, scales, grads, entropy_coef=0.01)
            reference_backward_batch(
                params, twin, want[0], actions, scales, want_grads, entropy_coef=0.01
            )
            pol._backward_batch(params, old, old_probs, actions, scales, old_grads, entropy_coef=0.01)
            for (name, a), (_, b), (_, c) in zip(grads.arrays(), want_grads.arrays(), old_grads.arrays()):
                assert same_bits(a, b), name
                assert np.max(np.abs(a - c)) <= tol * np.max(np.abs(c)), name
            scatter_sizes += [lay.edge_consumer.size for lay in got.layers[1:]]
    if hidden == 16:  # the big graph's layers run the large-matrix kernel
        assert exact
    if depth > 1:  # the fanout _scatter_add ran on both sides of its branch
        assert min(scatter_sizes) <= 192 < max(scatter_sizes)


def on_triangle(g, nid):
    """Whether two neighbors of nid neighbor each other."""
    nbrs = {m: {s >> 1 for s in g.nodes[m]} | set(g.fanouts(m)) for m in g.nodes}
    return any(nbrs[u] & nbrs[nid] for u in nbrs[nid])


def test_is_self_bit_reaches_a_center_only_through_a_triangle():
    """At L = 3 a center's delta rows below the top are its neighbors on a
    triangle through it. So zeroing every is_self bit in x0 leaves exactly
    the centers on no triangle as they were; on a triangle-free graph, whose
    layers below the top hold background rows only, that is every center."""
    rng = random.Random(3)
    layered = new_graph(6)  # each gate reads the layer below only: no triangle
    below = [layered.pi(i) for i in range(1, 7)]
    for width in (5, 5, 4, 3):
        below = [
            layered.add_majority(*(s ^ (rng.random() < 0.5) for s in rng.sample(below, 3)))
            for _ in range(width)
        ]
    layered.set_outputs(below)
    params = PolicyParams.init(Hyperparams(), seed=9)
    for g in (layered, clean_random_graph(6, 30, 2)):
        centers = acting_nodes(g)
        batch = pol.batch_for(params, g, centers)
        logp = pol._forward_batch(params, batch)[1]
        batch.x0[len(g.nodes) :, 0] = 0.0
        zeroed = pol._forward_batch(params, batch)[1]
        moved = [c for c, a, b in zip(centers, logp, zeroed) if not same_bits(a, b)]
        assert moved == [c for c in centers if on_triangle(g, c)]
        if g is layered:
            assert not moved
            assert [lay.fanin_idx.shape[0] for lay in batch.layers] == [len(g.nodes)] * 2 + [len(centers)]
        else:
            assert moved


def test_no_cache_results_survive_later_passes():
    """The no-cache pass writes its layers into module buffers, but the
    arrays it returns are its own: they share no memory with the buffers,
    and a later pass on a smaller graph, which reuses the buffers, or on a
    larger one, which grows them, leaves them as they were."""
    params = PolicyParams.init(Hyperparams(), seed=5)
    mid, big, small = (clean_random_graph(8, n, 3) for n in (40, 120, 12))
    probs, logp = dists(params, mid, mid.maj_ids())
    assert not any(
        np.shares_memory(out, buf) for out in (probs, logp) for buf in pol._SCRATCH.values()
    )
    kept = probs.copy(), logp.copy()
    for g in (small, big, small):
        dists(params, g, g.maj_ids())
        assert same_bits(probs, kept[0]) and same_bits(logp, kept[1])


def test_scratch_buffers_leave_room_to_grow(monkeypatch):
    """A pass a little larger than every earlier one reuses the buffers, so
    a graph that gains a few gates per greedy step does not regrow them."""
    monkeypatch.setattr(pol, "_SCRATCH", {})
    params = PolicyParams.init(Hyperparams(), seed=5)
    g = clean_random_graph(8, 120, 3)
    centers = g.maj_ids()
    dists(params, g, centers[:-3])
    first = dict(pol._SCRATCH)
    dists(params, g, centers)
    assert pol._SCRATCH.keys() == first.keys()
    assert all(pol._SCRATCH[name] is buf for name, buf in first.items())


@pytest.mark.parametrize("depth,hidden", [(d, h) for d in (1, 2, 3, 4) for h in (5, 16)])
def test_no_cache_pass_matches_keep_cache_bit_for_bit(depth, hidden):
    """Both paths run the same arithmetic, the no-cache one in buffers that
    a larger pass left dirty."""
    params = PolicyParams.init(Hyperparams(layers=depth, hidden=hidden), seed=depth + hidden)
    big = crude_random_graph(12, 120, 6)
    dists(params, big, big.maj_ids())
    for g in batch_graphs():
        for centers in center_sets(g):
            batch = pol.batch_for(params, g, centers)
            probs, logp = pol._forward_batch(params, batch)
            want_probs, want_logp = pol._forward_batch(params, batch, keep_cache=True)
            assert same_bits(probs, want_probs) and same_bits(logp, want_logp)


def test_repeated_no_cache_pass_allocates_less_than_a_fanin_gather():
    """Once its buffers have grown, a no-cache pass allocates only its input
    rows and small per-channel temporaries: its traced peak stays below the
    size of one layer's fanin gather, which is under half of that layer's
    message matrix (a pass that allocated its layers afresh peaked at about
    twice the message matrix)."""
    g = datagen.random_mig(datagen.RandomGraphSpec(200, pi_count=100, po_count=2, seed=1))
    params = PolicyParams.init(Hyperparams(), seed=0)
    batch = pol.batch_for(params, g, g.maj_ids())
    pol._forward_batch(params, batch)
    tracemalloc.start()
    try:
        pol._forward_batch(params, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gather_bytes = batch.layers[1].fanin_idx.size * params.hp.hidden * 8
    assert peak < gather_bytes


def test_batch_for_rejects_centers_that_are_not_live_majority_nodes():
    g = crude_random_graph(6, 20, 1)
    params = PolicyParams.init(Hyperparams(layers=2, hidden=4), seed=0)
    gone = g.add_majority(g.pi(1), g.pi(2), g.pi(3)) >> 1
    g.add_majority(g.pi(1), g.pi(2), g.pi(4))
    g.remove(gone)  # leaves a gap in the ids: a search would land on a neighbour
    g.check()
    for bad in (gone, 0, 1, g.pi_count, g._next_id, g._next_id + 5, -1):
        with pytest.raises(MigError):
            pol.batch_for(params, g, [g.maj_ids()[0], bad])


def test_sample_actions_degenerate_and_deterministic():
    probs = np.zeros(9)
    probs[int(rw.OmegaAction.IDENTITY)] = 1.0
    acts = pol.sample_actions(probs[None], np.random.default_rng(0))
    assert acts[0] == rw.OmegaAction.IDENTITY

    g, center = motif_graph()
    params = PolicyParams.init(Hyperparams(layers=2, hidden=8), seed=0)
    probs, _ = dists(params, g, acting_nodes(g))
    a1 = pol.sample_actions(probs, np.random.default_rng(7))
    a2 = pol.sample_actions(probs, np.random.default_rng(7))
    assert np.array_equal(a1, a2)


def test_sample_actions_frequencies():
    rng = np.random.default_rng(123)
    n = 100_000
    # n rows in one call draw the same stream as n one-row calls
    counts = np.bincount(pol.sample_actions(np.full((n, 9), 1.0 / 9.0), rng), minlength=9)
    p = 1.0 / 9.0
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) < 3 * sigma + 1e-12)


def backward_one(params, g, center, action, scale, grads):
    """Accumulate scale * grad log pi(action | center) through one batch."""
    batch = pol.batch_for(params, g, [center])
    probs, _ = pol._forward_batch(params, batch, keep_cache=True)
    pol._backward_batch(params, batch, probs, np.array([int(action)]), np.array([scale]), grads)


def test_backward_zero_scale():
    g, center = motif_graph()
    hp = Hyperparams(layers=2, hidden=5)
    params = PolicyParams.init(hp, seed=0)
    grads = PolicyParams(hp)
    backward_one(params, g, center, rw.OmegaAction.ASSOC, 0.0, grads)
    assert max(float(np.max(np.abs(a))) for _, a in grads.arrays()) == 0.0


def test_backward_head_bias_is_softmax_identity():
    # d log p(a) / d head_bias_k == 1{k==a} - p_k, exactly
    g, center = motif_graph()
    hp = Hyperparams(layers=2, hidden=5)
    params = PolicyParams.init(hp, seed=5)
    probs = dists(params, g, [center])[0][0]
    grads = PolicyParams(hp)
    action = rw.OmegaAction.DIST_RL
    backward_one(params, g, center, action, 1.0, grads)
    want = -probs.copy()
    want[int(action)] += 1.0
    assert np.allclose(grads.head_b, want, atol=1e-12)


def fd_gradient_check(seed, layers, hidden, stride, centers="one"):
    """Worst relative gap between the analytic gradient and central differences.

    centers="one": log pi(a | c) at one random center, through backward_one
    and a one-center forward. centers="all": every majority node is a
    center with its own action and scale plus an entropy term, through one
    batch, so the centers' adjoints meet in the shared background rows.
    """
    rng = np.random.default_rng(seed)
    hp = Hyperparams(layers=layers, hidden=hidden)
    params = PolicyParams.init(hp, seed=int(rng.integers(1 << 30)))
    g = new_graph(3)
    sigs = [g.pi(1), g.pi(2), g.pi(3), g.const0()]
    for _ in range(4):
        ids = rng.choice(len(sigs), size=3, replace=False)
        g_sig = g.add_majority(
            *(lit(sigs[i] >> 1, bool(rng.integers(2))) for i in ids)
        )
        sigs.append(g_sig)
    g.set_outputs([sigs[-1]])
    maj = g.maj_ids()
    grads = PolicyParams(hp)
    if centers == "one":
        center = maj[int(rng.integers(len(maj)))]
        action = rw.OmegaAction(int(rng.integers(9)))
        backward_one(params, g, center, action, 1.0, grads)

        def objective():
            return float(dists(params, g, [center])[1][0][int(action)])

    else:
        actions = rng.integers(9, size=len(maj))
        scales = rng.normal(size=len(maj))
        coef = 0.3
        batch = pol.batch_for(params, g, maj)
        probs, _ = pol._forward_batch(params, batch, keep_cache=True)
        pol._backward_batch(params, batch, probs, actions, scales, grads, entropy_coef=coef)

        def objective():
            total = 0.0
            for c, a, s in zip(maj, actions, scales):
                probs, logp = (row[0] for row in dists(params, g, [c]))
                total += s * logp[a] - coef * float((probs * logp).sum())
            return total

    eps = 1e-5
    worst = 0.0
    for (_, arr), (_, garr) in zip(params.arrays(), grads.arrays()):
        flat, gflat = arr.ravel(), garr.ravel()
        for k in range(0, flat.size, stride):
            orig = flat[k]
            flat[k] = orig + eps
            lp1 = objective()
            flat[k] = orig - eps
            lp0 = objective()
            flat[k] = orig
            fd = (lp1 - lp0) / (2 * eps)
            rel = abs(gflat[k] - fd) / max(abs(gflat[k]), abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


def test_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(6):
        worst = max(worst, fd_gradient_check(seed, 2, 5, stride=17))
    assert worst < 1e-4


def test_multi_center_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(3):
        worst = max(worst, fd_gradient_check(seed, 3, 5, stride=7, centers="all"))
    assert worst < 1e-4


def test_entropy_gradient_matches_finite_differences():
    g, center = motif_graph()
    hp = Hyperparams(layers=2, hidden=5)
    params = PolicyParams.init(hp, seed=8)
    batch = pol.batch_for(params, g, [center])
    probs, _ = pol._forward_batch(params, batch, keep_cache=True)
    grads = PolicyParams(hp)
    action = np.array([int(rw.OmegaAction.IDENTITY)])
    pol._backward_batch(params, batch, probs, action, np.zeros(1), grads, entropy_coef=1.0)

    def entropy():
        probs, logp = dists(params, g, [center])
        return float(-(probs * logp).sum())

    eps = 1e-6
    worst = 0.0
    for (_, arr), (_, garr) in zip(params.arrays(), grads.arrays()):
        flat, gflat = arr.ravel(), garr.ravel()
        for k in range(0, flat.size, 23):
            orig = flat[k]
            flat[k] = orig + eps
            h1 = entropy()
            flat[k] = orig - eps
            h0 = entropy()
            flat[k] = orig
            fd = (h1 - h0) / (2 * eps)
            rel = abs(gflat[k] - fd) / max(abs(gflat[k]), abs(fd), 1e-5)
            worst = max(worst, rel)
    assert worst < 1e-3


def test_identical_neighborhood_across_graph_sizes():
    params = PolicyParams.init(Hyperparams(layers=3, hidden=16), seed=13)
    small, c_small = motif_graph(filler_nodes=46, pis=9)
    big, c_big = motif_graph(junk_nodes=11, filler_nodes=400, pis=9)
    huge, c_huge = motif_graph(junk_nodes=5, filler_nodes=2000, pis=9)  # deployment scale
    assert small.size() < big.size() < 2000 <= huge.size()
    p_small, _ = dists(params, small, [c_small])
    p_big, _ = dists(params, big, [c_big])
    p_huge, _ = dists(params, huge, [c_huge])
    assert np.array_equal(p_small, p_big)
    assert np.array_equal(p_small, p_huge)


def golden_values(layers, hidden, kind):
    """Log-probs at every acting node, and the gradient summed over all
    centers with mixed scales and entropy, on a seeded graph.

    tests/data/policy_golden.npz holds these values as computed by the
    per-center neighborhood batches that preceded the full-graph engine."""
    seed = 100 * layers + hidden
    if kind == "random_mig":
        g = datagen.random_mig(datagen.RandomGraphSpec(24, pi_count=10, po_count=2, seed=seed))
    else:
        g = clean_random_graph(6, 18, seed)
    params = PolicyParams.init(Hyperparams(layers=layers, hidden=hidden), seed=seed)
    centers = acting_nodes(g)
    batch = pol.batch_for(params, g, centers)
    probs, logp = pol._forward_batch(params, batch, keep_cache=True)
    out = {"centers": np.asarray(centers), "logp": logp}
    rng = np.random.default_rng(seed)
    actions = rng.integers(rw.ACTION_COUNT, size=len(centers))
    scales = rng.normal(size=len(centers))
    scales[::3] = 0.0
    grads = PolicyParams(params.hp)
    pol._backward_batch(params, batch, probs, actions, scales, grads, entropy_coef=0.01)
    out.update(grads.arrays())
    return out


@pytest.mark.parametrize("layers,hidden,kind", GOLDEN_CASES)
def test_golden_parity(layers, hidden, kind):
    want = np.load(GOLDEN)
    got = golden_values(layers, hidden, kind)
    prefix = f"L{layers}h{hidden}{kind}/"
    assert np.array_equal(got["centers"], want[prefix + "centers"])
    assert np.max(np.abs(got["logp"] - want[prefix + "logp"])) <= 1e-12
    for name, arr in got.items():
        if name in ("centers", "logp"):
            continue
        ref = want[prefix + name]
        assert np.max(np.abs(arr - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1e-300), name
