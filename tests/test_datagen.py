import itertools

import pytest

from migopt import datagen as dg
from migopt import formats as fmt
from migopt import rewrite as rw
from migopt.mig import MigError, pi_pattern


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


def test_optimal_size_examples(tmp_path, monkeypatch):
    monkeypatch.setenv("MIGOPT_CACHE", str(tmp_path))
    dg._OPTIMAL3 = None
    assert dg.optimal_size_3(0xAA) == 0
    assert dg.optimal_size_3(0xE8) == 1
    assert dg.optimal_size_3(0x80) == 2
    # cache file round-trips
    assert (tmp_path / "optimal_sizes_3.txt").exists()
    dg._OPTIMAL3 = None
    assert dg.optimal_size_3(0x80) == 2


@pytest.mark.parametrize(
    "cached",
    ["garbage\n", "9 " * 256, "1 " * 255],
    ids=["unparsable", "out-of-range", "short"],
)
def test_optimal_size_recomputes_corrupt_cache(tmp_path, monkeypatch, cached):
    (tmp_path / "optimal_sizes_3.txt").write_text(cached)
    monkeypatch.setenv("MIGOPT_CACHE", str(tmp_path))
    monkeypatch.setattr(dg, "_OPTIMAL3", None)
    monkeypatch.setattr(dg, "_search_exact", lambda: [3] * 256)
    assert dg.optimal_size_3(0x00) == 3
    assert (tmp_path / "optimal_sizes_3.txt").read_text() == " ".join(["3"] * 256) + "\n"


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
