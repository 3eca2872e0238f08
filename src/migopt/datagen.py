"""Dataset builders: random graphs, sum-of-products circuits, exact oracle.

The random generator follows a draw-and-retry recipe: majority nodes are
created one at a time with fanins drawn uniformly from everything built so
far, triples that the cleanup rules would immediately collapse are
rejected, and output signals are redrawn until the cleaned reachable size
hits the target exactly.

`optimal_size_3` is an independent exhaustive search over all small
majority networks, used as the reduction ceiling for 3-input functions.
It deliberately shares no code with the graph data structure.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from migopt import rewrite as rw
from migopt.mig import MigError, MigGraph, lit, new_graph, pi_pattern

_MAX_ATTEMPTS = 400  # pool-size corrections before `random_mig` gives up


@dataclass(slots=True)
class RandomGraphSpec:
    size: int
    pi_count: int = 100
    po_count: int = 2
    seed: int = 0


@dataclass(slots=True)
class SopSpec:
    input_count: int
    table: int


def random_mig(spec: RandomGraphSpec) -> MigGraph:
    """Random MIG with exactly `spec.size` reachable majority nodes."""
    if spec.size < 1:
        raise MigError("target size must be at least 1")
    if spec.pi_count < 2 or spec.po_count < 1:  # fanins are 3 distinct nodes of 0 and the PIs
        raise MigError("random graphs need at least 2 inputs and 1 output")
    rng = random.Random(spec.seed)
    pool_target = max(spec.size + 2, int(spec.size * 1.6))
    for _ in range(_MAX_ATTEMPTS):
        g = new_graph(spec.pi_count)
        pool = list(range(spec.pi_count + 1))
        for _ in range(pool_target):
            ids = rng.sample(pool, 3)
            fanins = tuple(lit(i, rng.random() < 0.5) for i in ids)
            pool.append(g.add_majority(*fanins) >> 1)
        maj = pool[spec.pi_count + 1 :]
        sizes = []
        for _ in range(30):
            outs = [
                lit(rng.choice(maj), rng.random() < 0.5)
                for _ in range(spec.po_count)
            ]
            # uncleaned size first; cleanup rarely changes it because
            # collapse triples were rejected during construction
            g.set_outputs(outs)
            s = g.size()
            if s == spec.size:
                cleaned = g.clone()
                s = rw.step(cleaned, {}).size_after
                if s == spec.size:
                    cleaned.check()
                    return cleaned
            sizes.append(s)
        mean = sum(sizes) / len(sizes)
        step = int(round((spec.size - mean) * 1.2))
        if step == 0:
            step = 1 if mean < spec.size else -1
        pool_target = max(spec.size + 2, pool_target + step)
    raise MigError(f"could not hit target size {spec.size} after {_MAX_ATTEMPTS} attempts")


def sop_decompose(spec: SopSpec) -> MigGraph:
    """Sum-of-products construction: OR of minterm AND chains.

    Constant and single-literal tables come out as a bare output signal
    (size 0). Cleanup rules run on the result, so shared AND prefixes
    across minterms are merged.
    """
    k, table = spec.input_count, spec.table
    rows = 1 << k
    full = (1 << rows) - 1
    if table < 0 or table > full:
        raise MigError("truth table out of range")
    g = new_graph(k)
    if table == 0:
        g.set_outputs([g.const0()])
        return g
    if table == full:
        g.set_outputs([g.const1()])
        return g
    for j in range(1, k + 1):
        pat = pi_pattern(j, k)
        if table == pat:
            g.set_outputs([g.pi(j)])
            return g
        if table == pat ^ full:
            g.set_outputs([g.pi(j) ^ 1])
            return g

    minterms = []
    for r in range(rows):
        if not (table >> r) & 1:
            continue
        lits = [lit(j, not ((r >> (j - 1)) & 1)) for j in range(1, k + 1)]
        acc = lits[0]
        for x in lits[1:]:
            acc = g.add_and(acc, x)
        minterms.append(acc)
    out = minterms[0]
    for m in minterms[1:]:
        out = g.add_or(out, m)
    g.set_outputs([out])
    rw.step(g, {})
    g.drop_fanout_index()  # the cleanup built it; callers keep these graphs
    return g


def enumerate_sop3() -> list[tuple[str, MigGraph]]:
    return [
        (f"sop3_{t:02x}", sop_decompose(SopSpec(3, t))) for t in range(256)
    ]


def enumerate_sop4(sample_count: int = 10000, seed: int = 0) -> list[tuple[str, MigGraph]]:
    if sample_count > 1 << 16:
        raise MigError("only 65536 distinct 4-input tables exist")
    rng = random.Random(seed)
    tables = rng.sample(range(1 << 16), sample_count)
    return [(f"sop4_{t:04x}", sop_decompose(SopSpec(4, t))) for t in tables]


# -- exact-size oracle for 3-input functions ---------------------------

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
            for combo in combinations(range(npool), 3):
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


_OPTIMAL3: list[int] | None = None


def _cache_path() -> Path:
    root = os.environ.get("MIGOPT_CACHE")
    base = Path(root) if root else Path.home() / ".cache" / "migopt"
    return base / "optimal_sizes_3.txt"


def _read_cache(path: Path) -> list[int] | None:
    """The cached sizes, or None when the file is absent or corrupt."""
    try:
        vals = [int(x) for x in path.read_text().split()]
    except (OSError, ValueError):
        return None
    if len(vals) != 256 or not all(0 <= v <= _MAX_SIZE for v in vals):
        return None
    return vals


def optimal_size_3(table: int) -> int:
    """Exact minimum majority-node count realizing a 3-input function."""
    if not 0 <= table <= 0xFF:
        raise MigError("need an 8-bit truth table")
    global _OPTIMAL3
    if _OPTIMAL3 is None:
        path = _cache_path()
        _OPTIMAL3 = _read_cache(path)
        if _OPTIMAL3 is None:
            _OPTIMAL3 = _search_exact()
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(" ".join(str(v) for v in _OPTIMAL3) + "\n")
    return _OPTIMAL3[table]


def sop3_oracle_ceiling() -> float:
    """Mean achievable reduction over the full 3-input dataset."""
    total = 0
    for name, g in enumerate_sop3():
        table = int(name.split("_")[1], 16)
        total += g.size() - optimal_size_3(table)
    return total / 256.0
