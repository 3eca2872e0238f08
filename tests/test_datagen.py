import itertools
import random

import pytest

from migopt import datagen as dg
from migopt import formats as fmt
from migopt import rewrite as rw
from migopt.mig import MAX_INPUTS, MigError, pi_pattern


def test_random_mig_deterministic():
    a = dg.random_mig(dg.RandomGraphSpec(size=30, pi_count=20, seed=11))
    b = dg.random_mig(dg.RandomGraphSpec(size=30, pi_count=20, seed=11))
    assert fmt.emit_mig(a) == fmt.emit_mig(b)
    c = dg.random_mig(dg.RandomGraphSpec(size=30, pi_count=20, seed=12))
    assert fmt.emit_mig(c) != fmt.emit_mig(a)


def test_random_mig_exact_size_and_clean():
    for seed in range(6):
        spec = dg.RandomGraphSpec(size=25, pi_count=12, po_count=2, seed=seed)
        g = dg.random_mig(spec)
        assert g.size() == 25
        assert g.pi_count == 12
        assert len(g.outputs) == 2
        assert rw.lambda_fixpoint(g) == (0, 0)
        g.check()


def test_random_mig_rand500_shape():
    g = dg.random_mig(dg.RandomGraphSpec(size=500, pi_count=100, po_count=2, seed=3))
    assert g.size() == 500
    assert g.pi_count == 100


def test_random_mig_rejects_bad_size():
    with pytest.raises(MigError):
        dg.random_mig(dg.RandomGraphSpec(size=0, seed=1))


def test_random_mig_checks_the_input_bound_before_drawing(monkeypatch):
    def refuse(rng, n):
        raise AssertionError("drew a fanin triple")

    monkeypatch.setattr(dg, "_draw3", refuse)
    with pytest.raises(MigError, match=f"at most {MAX_INPUTS} inputs"):
        dg.random_mig(dg.RandomGraphSpec(size=10, pi_count=MAX_INPUTS + 1, seed=1))


def test_sop_projection_and_constants():
    g = dg.sop_decompose(dg.SopSpec(3, 0xAA))
    assert g.size() == 0
    assert g.outputs == [g.pi(1)]

    g0 = dg.sop_decompose(dg.SopSpec(3, 0x00))
    assert g0.size() == 0 and g0.simulate_truth_tables() == [0]
    g1 = dg.sop_decompose(dg.SopSpec(3, 0xFF))
    assert g1.size() == 0 and g1.simulate_truth_tables() == [0xFF]

    gneg = dg.sop_decompose(dg.SopSpec(3, 0x55))
    assert gneg.size() == 0 and gneg.simulate_truth_tables() == [0x55]


def test_sop_majority_function():
    # 4 minterms -> 8 and-chain nodes + 3 or-chain nodes, minus one
    # cleanup merge of the shared AND(x1,x2) prefix of rows 011 and 111
    g = dg.sop_decompose(dg.SopSpec(3, 0xE8))
    assert g.simulate_truth_tables() == [0xE8]
    assert g.size() == 10


def test_sop_and3():
    g = dg.sop_decompose(dg.SopSpec(3, 0x80))
    assert g.simulate_truth_tables() == [0x80]
    assert g.size() == 2


def test_sop_round_trips_all_256():
    for table in range(256):
        g = dg.sop_decompose(dg.SopSpec(3, table))
        assert g.simulate_truth_tables() == [table], hex(table)
        assert rw.lambda_fixpoint(g) == (0, 0)


def test_enumerate_sop3():
    items = dg.enumerate_sop3()
    assert len(items) == 256
    names = [n for n, _ in items]
    assert len(set(names)) == 256


def test_sop3_graphs_carry_no_fanout_index():
    # the cleanup builds the index; a dataset held for a whole run must not keep it
    assert all(g._fanouts is None for _, g in dg.enumerate_sop3())


def test_enumerate_sop4_deterministic():
    a = dg.enumerate_sop4(30, seed=5)
    b = dg.enumerate_sop4(30, seed=5)
    assert [n for n, _ in a] == [n for n, _ in b]
    for (_, ga), (_, gb) in zip(a, b):
        assert fmt.emit_mig(ga) == fmt.emit_mig(gb)
    with pytest.raises(MigError):
        dg.enumerate_sop4(70000, seed=0)


def test_sop4_tables_round_trip():
    for name, g in dg.enumerate_sop4(40, seed=2):
        table = int(name.split("_")[1], 16)
        assert g.simulate_truth_tables() == [table]


def test_optimal_size_examples():
    assert dg.optimal_size_3(0xAA) == 0
    assert dg.optimal_size_3(0xE8) == 1
    assert dg.optimal_size_3(0x80) == 2
    for bad in (-1, 0x100):
        with pytest.raises(MigError):
            dg.optimal_size_3(bad)


# -- the reference search that `datagen._OPTIMAL3` was written out from ---

_BASES = (0x00, 0xAA, 0xCC, 0xF0)  # const0, x1, x2, x3
_FULL3 = 0xFF


def _maj8(a: int, b: int, c: int) -> int:
    return (a & b) | (a & c) | (b & c)


_MAX_SIZE = 6  # search bound; the search fails if a function needs more


def _search_exact(max_size: int = _MAX_SIZE) -> list[int]:
    """Minimum majority-node count for every 3-input function.

    Iterative-deepening enumeration of all majority networks over
    {0, x1, x2, x3} with complemented edges. Within a network, node
    tables are kept distinct from everything already available (a
    duplicate node can always be dropped from a minimal network), and
    independent nodes are forced into a canonical creation order.
    """
    best = [-1] * 256
    for t in _BASES:
        best[t] = 0
        best[t ^ _FULL3] = 0

    def enumerate_size(s: int):
        pool = list(_BASES)  # tables of available operands
        used = [True] * 4  # bases never need consuming

        def node_candidates():
            out = []
            npool = len(pool)
            for combo in itertools.combinations(range(npool), 3):
                for pols in range(4):  # first operand uncomplemented
                    ops = []
                    for slot, idx in enumerate(combo):
                        v = pool[idx]
                        if slot and (pols >> (slot - 1)) & 1:
                            v ^= _FULL3
                        ops.append(v)
                    table = _maj8(*ops)
                    out.append((combo, pols, table))
            return out

        def rec(depth: int, prev_key):
            remaining = s - depth
            unused = used.count(False)
            if unused > 3 * remaining:
                return
            for combo, pols, table in node_candidates():
                if any(pool[i] == table or pool[i] == (table ^ _FULL3) for i in range(len(pool))):
                    continue
                key = (combo, pols)
                uses_last = len(pool) - 1 in combo and len(pool) > 4
                if prev_key is not None and not uses_last and key <= prev_key:
                    continue
                if depth + 1 == s:
                    if unused - sum(1 for i in combo if not used[i]) > 0:
                        continue
                    if best[table] < 0:
                        best[table] = s
                    if best[table ^ _FULL3] < 0:
                        best[table ^ _FULL3] = s
                    continue
                pool.append(table)
                used.append(False)
                saved = [used[i] for i in combo]
                for i in combo:
                    used[i] = True
                rec(depth + 1, key)
                for i, u in zip(combo, saved):
                    used[i] = u
                used.pop()
                pool.pop()

        rec(0, None)

    for s in range(1, max_size + 1):
        if all(v >= 0 for v in best):
            break
        enumerate_size(s)
    if any(v < 0 for v in best):
        raise MigError(f"exact search incomplete at max size {max_size}")
    return best


def test_exhaustive_search_reproduces_the_table():
    assert tuple(_search_exact()) == dg._OPTIMAL3


def test_optimal_size_lower_bound_for_and3():
    # independent check that no single majority node realizes x1&x2&x3
    bases = [0x00, 0xAA, 0xCC, 0xF0]
    lits = bases + [b ^ 0xFF for b in bases]
    reachable = set()
    for a, b, c in itertools.product(lits, repeat=3):
        t = (a & b) | (a & c) | (b & c)
        reachable |= {t, t ^ 0xFF}
    assert 0x80 not in reachable


def test_oracle_agrees_with_unpruned_brute_force_small_sizes():
    bases = [0x00, 0xAA, 0xCC, 0xF0]
    lits = bases + [b ^ 0xFF for b in bases]

    def maj(a, b, c):
        return (a & b) | (a & c) | (b & c)

    size0 = set(lits)
    size1 = set()
    for a, b, c in itertools.product(lits, repeat=3):
        t = maj(a, b, c)
        size1 |= {t, t ^ 0xFF}
    size1 -= size0
    size2 = set()
    for a, b, c in itertools.product(lits, repeat=3):
        n1 = maj(a, b, c)
        pool = lits + [n1, n1 ^ 0xFF]
        for d, e, f in itertools.product(pool, repeat=3):
            t = maj(d, e, f)
            size2 |= {t, t ^ 0xFF}
    size2 -= size1 | size0

    for t in range(256):
        v = dg.optimal_size_3(t)
        assert (v == 0) == (t in size0)
        assert (v == 1) == (t in size1)
        assert (v == 2) == (t in size2)


def test_optimal_is_lower_bound_for_sop_sizes():
    for name, g in dg.enumerate_sop3():
        table = int(name.split("_")[1], 16)
        assert g.size() >= dg.optimal_size_3(table)


def test_oracle_ceiling_value():
    # frozen from the exhaustive search; the figure the learning gate uses
    assert abs(dg.sop3_oracle_ceiling() - 6.921875) < 1e-12


def test_pi_pattern_values():
    assert pi_pattern(1, 2) == 0b1010
    assert pi_pattern(2, 2) == 0b1100


def test_draw3_draws_as_sample_does():
    # random_mig's datasets depend on every draw: the helper must consume
    # the generator exactly as `sample(range(n), 3)` does, on both of
    # sample's branches (a copied pool up to 21, a set of taken ids above)
    for n in [*range(3, 201), 255, 256, 257, 1000, 4097, 65537, 10**6]:
        for seed in range(3):
            want, got = random.Random(seed), random.Random(seed)
            for _ in range(10):
                assert dg._draw3(got, n) == tuple(want.sample(range(n), 3)), (n, seed)
            assert got.random() == want.random(), (n, seed)
