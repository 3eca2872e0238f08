from pathlib import Path

import numpy as np
import pytest

from migopt import datagen
from migopt import policy as pol
from migopt import rewrite as rw
from migopt.mig import MigError, Signal, new_graph
from migopt.policy import Hyperparams, PolicyGradients, PolicyParams

from conftest import clean_random_graph

GOLDEN = Path(__file__).parent / "data" / "policy_golden.npz"
# every depth at both widths; each depth sees both graph kinds
GOLDEN_CASES = [
    (layers, hidden, "random_mig" if (layers + (hidden == 16)) % 2 else "clean")
    for layers in (1, 2, 3, 4)
    for hidden in (5, 16)
]


def motif_graph(junk_nodes=0, filler_nodes=0, pis=8):
    """Fixed 4-node motif; optional id offset and far-away filler."""
    g = new_graph(pis)
    for _ in range(junk_nodes):
        g.add_majority(g.pi(7), g.pi(8), ~g.pi(7))
    a = g.add_majority(g.pi(1), ~g.pi(2), g.pi(3))
    b = g.add_majority(g.pi(2), g.pi(4), ~g.pi(5))
    c = g.add_majority(a, ~b, g.pi(6))
    d = g.add_majority(c, g.pi(1), ~g.pi(3))
    outs = [d]
    if filler_nodes:
        f = g.add_majority(g.pi(7), ~g.pi(8), g.pi(7 if pis < 9 else 9))
        for k in range(filler_nodes - 1):
            f = g.add_majority(f, g.pi(7 + (k % 2)), ~g.pi(8))
        outs.append(f)
    g.set_outputs(outs)
    return g, c.node


def test_hyperparams_validation():
    with pytest.raises(MigError):
        Hyperparams(layers=0).validate()
    with pytest.raises(MigError):
        Hyperparams(hidden=2).validate()
    with pytest.raises(MigError):
        Hyperparams(actions=5).validate()


def test_param_count_formula():
    for layers, hidden in [(1, 4), (2, 8), (3, 16), (4, 5)]:
        hp = Hyperparams(layers=layers, hidden=hidden)
        params = PolicyParams.init(hp, seed=0)
        assert params.param_count() == PolicyParams.expected_param_count(hp)
    hp = Hyperparams()  # defaults
    assert PolicyParams.expected_param_count(hp) == 6 * 5 * 16 + 16 + 2 * (
        6 * 17 * 16 + 16
    ) + 9 * 16 + 9


def test_zero_params_give_uniform_distribution():
    g, center = motif_graph()
    params = PolicyParams.zeros(Hyperparams(layers=2, hidden=5))
    d = pol.forward(params, g, center)
    assert np.allclose(d.probs, 1.0 / 9.0)
    assert abs(d.probs.sum() - 1.0) < 1e-9


def test_forward_deterministic():
    g, center = motif_graph()
    params = PolicyParams.init(Hyperparams(layers=3, hidden=16), seed=4)
    d1 = pol.forward(params, g, center)
    d2 = pol.forward(params, g, center)
    assert np.array_equal(d1.probs, d2.probs)


def test_forward_rejects_non_majority_center():
    g, _ = motif_graph()
    params = PolicyParams.init(Hyperparams(layers=1, hidden=4), seed=0)
    with pytest.raises(MigError):
        pol.forward(params, g, 1)  # a primary input


def test_forward_relabeling_invariance_bitwise():
    params = PolicyParams.init(Hyperparams(layers=2, hidden=8), seed=11)
    g1, c1 = motif_graph(junk_nodes=0)
    g2, c2 = motif_graph(junk_nodes=7)
    n1 = pol.extract_neighborhood(g1, c1, 2)
    n2 = pol.extract_neighborhood(g2, c2, 2)
    assert len(n1.nodes) == len(n2.nodes)
    d1 = pol.forward(params, g1, c1)
    d2 = pol.forward(params, g2, c2)
    assert np.array_equal(d1.probs, d2.probs)


def test_forward_sensitive_to_edge_polarity():
    params = PolicyParams.init(Hyperparams(layers=2, hidden=8), seed=11)
    g1, c1 = motif_graph()
    d1 = pol.forward(params, g1, c1)
    g2, c2 = motif_graph()
    node = g2.nodes[c2]
    f = list(node.fanins)
    f[1] = f[1].invert()
    node.fanins = tuple(f)
    d2 = pol.forward(params, g2, c2)
    assert not np.array_equal(d1.probs, d2.probs)


def test_distribution_normalization_random_graphs():
    params = PolicyParams.init(Hyperparams(), seed=1)
    for seed in range(4):
        g = clean_random_graph(6, 15, seed)
        for d in pol.forward_all(params, g).values():
            assert abs(d.probs.sum() - 1.0) < 1e-9
            assert (d.probs >= 0).all()


def test_neighborhood_chain_radius():
    # chain links use disjoint primary inputs so no shared node shortcuts it
    g = new_graph(9)
    n1 = g.add_majority(g.pi(1), g.pi(2), g.pi(3))
    n2 = g.add_majority(n1, g.pi(4), g.pi(5))
    n3 = g.add_majority(n2, g.pi(6), g.pi(7))
    n4 = g.add_majority(n3, g.pi(8), g.pi(9))
    g.set_outputs([n4])
    members = set(pol.extract_neighborhood(g, n1.node, 2).nodes)
    assert {n1.node, n2.node, n3.node} <= members
    assert n4.node not in members


def test_neighborhood_isolated_pi():
    g = new_graph(3)
    g.set_outputs([g.pi(1)])
    nb = pol.extract_neighborhood(g, 2, 2)
    assert nb.nodes == [2]


def test_forward_all_coverage():
    params = PolicyParams.init(Hyperparams(layers=1, hidden=4), seed=0)
    g = new_graph(2)
    g.set_outputs([g.pi(1)])
    assert pol.forward_all(params, g) == {}

    h = clean_random_graph(6, 15, 3)
    dists = pol.forward_all(params, h)
    reach = {n for n in h.reachable_nodes() if h.nodes[n].kind == "maj"}
    assert set(dists) == reach
    # the dead node below must receive no distribution
    h.add_majority(h.pi(1), h.pi(2), h.const0())
    assert set(pol.forward_all(params, h)) == reach


def test_forward_all_matches_single_forward():
    params = PolicyParams.init(Hyperparams(layers=3, hidden=16), seed=2)
    g = clean_random_graph(7, 18, 8)
    fanouts = pol.graph_fanouts(g)
    for nid, d in pol.forward_all(params, g).items():
        single = pol.forward(params, g, nid, fanouts)
        assert np.allclose(single.probs, d.probs, atol=1e-12)


def test_sample_actions_degenerate_and_deterministic():
    probs = np.zeros(9)
    probs[int(rw.OmegaAction.IDENTITY)] = 1.0
    dist = pol.ActionDistribution(probs, np.log(np.maximum(probs, 1e-300)))
    acts = pol.sample_actions({5: dist}, np.random.default_rng(0))
    assert acts[5][0] == rw.OmegaAction.IDENTITY

    g, center = motif_graph()
    params = PolicyParams.init(Hyperparams(layers=2, hidden=8), seed=0)
    dists = pol.forward_all(params, g)
    a1 = pol.sample_actions(dists, np.random.default_rng(7))
    a2 = pol.sample_actions(dists, np.random.default_rng(7))
    assert a1 == a2


def test_sample_actions_frequencies():
    probs = np.full(9, 1.0 / 9.0)
    dist = pol.ActionDistribution(probs, np.log(probs))
    rng = np.random.default_rng(123)
    n = 100_000
    counts = np.zeros(9)
    dists = {0: dist}
    for _ in range(n):
        a, _ = pol.sample_actions(dists, rng)[0]
        counts[int(a)] += 1
    p = 1.0 / 9.0
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) < 3 * sigma + 1e-12)


def test_backward_zero_scale():
    g, center = motif_graph()
    hp = Hyperparams(layers=2, hidden=5)
    params = PolicyParams.init(hp, seed=0)
    grads = PolicyGradients(hp)
    pol.backward(params, g, center, rw.OmegaAction.ASSOC, 0.0, grads)
    assert grads.max_abs() == 0.0


def test_backward_head_bias_is_softmax_identity():
    # d log p(a) / d head_bias_k == 1{k==a} - p_k, exactly
    g, center = motif_graph()
    hp = Hyperparams(layers=2, hidden=5)
    params = PolicyParams.init(hp, seed=5)
    d = pol.forward(params, g, center)
    grads = PolicyGradients(hp)
    action = rw.OmegaAction.DIST_RL
    pol.backward(params, g, center, action, 1.0, grads)
    want = -d.probs.copy()
    want[int(action)] += 1.0
    assert np.allclose(grads.head_b, want, atol=1e-12)


def fd_gradient_check(seed, layers, hidden, stride, centers="one"):
    """Worst relative gap between the analytic gradient and central differences.

    centers="one": log pi(a | c) at one random center, through backward and
    log_prob_of. centers="all": every majority node is a center with its own
    action and scale plus an entropy term, through one batch, so the
    centers' adjoints meet in the shared background rows.
    """
    rng = np.random.default_rng(seed)
    hp = Hyperparams(layers=layers, hidden=hidden)
    params = PolicyParams.init(hp, seed=int(rng.integers(1 << 30)))
    g = new_graph(3)
    sigs = [g.pi(1), g.pi(2), g.pi(3), g.const0()]
    for _ in range(4):
        ids = rng.choice(len(sigs), size=3, replace=False)
        g_sig = g.add_majority(
            *(Signal(sigs[i].node, bool(rng.integers(2))) for i in ids)
        )
        sigs.append(g_sig)
    g.set_outputs([sigs[-1]])
    maj = g.maj_ids()
    grads = PolicyGradients(hp)
    if centers == "one":
        center = maj[int(rng.integers(len(maj)))]
        action = rw.OmegaAction(int(rng.integers(9)))
        pol.backward(params, g, center, action, 1.0, grads)

        def objective():
            return pol.log_prob_of(params, g, center, action)

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
                d = pol.forward(params, g, c)
                total += s * d.log_probs[a] - coef * float((d.probs * d.log_probs).sum())
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
    grads = PolicyGradients(hp)
    action = np.array([int(rw.OmegaAction.IDENTITY)])
    pol._backward_batch(params, batch, probs, action, np.zeros(1), grads, entropy_coef=1.0)

    def entropy():
        d = pol.forward(params, g, center)
        return float(-(d.probs * d.log_probs).sum())

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
    d_small = pol.forward(params, small, c_small)
    d_big = pol.forward(params, big, c_big)
    d_huge = pol.forward(params, huge, c_huge)
    assert np.array_equal(d_small.probs, d_big.probs)
    assert np.array_equal(d_small.probs, d_huge.probs)


def golden_values(layers, hidden, kind):
    """Per-center log-probs of forward_all, and the gradient summed over all
    centers with mixed scales and entropy, on a seeded graph.

    tests/data/policy_golden.npz holds these values as computed by the
    per-center neighborhood batches that preceded the full-graph engine."""
    seed = 100 * layers + hidden
    if kind == "random_mig":
        g = datagen.random_mig(datagen.RandomGraphSpec(24, pi_count=10, po_count=2, seed=seed))
    else:
        g = clean_random_graph(6, 18, seed)
    params = PolicyParams.init(Hyperparams(layers=layers, hidden=hidden), seed=seed)
    dists = pol.forward_all(params, g)
    centers = sorted(dists)
    out = {
        "centers": np.asarray(centers),
        "logp": np.stack([dists[c].log_probs for c in centers]),
    }
    rng = np.random.default_rng(seed)
    actions = rng.integers(rw.ACTION_COUNT, size=len(centers))
    scales = rng.normal(size=len(centers))
    scales[::3] = 0.0
    batch = pol.batch_for(params, g)
    assert list(batch.centers) == centers
    probs, _ = pol._forward_batch(params, batch, keep_cache=True)
    grads = PolicyGradients(params.hp)
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
