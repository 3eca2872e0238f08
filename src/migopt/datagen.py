"""Dataset builders: random graphs, sum-of-products circuits, exact oracle.

The random generator follows a draw-and-retry recipe: majority nodes are
created one at a time with three distinct fanins drawn uniformly from
everything built so far, so no triple collapses, and output signals are
redrawn until the cleaned reachable size hits the target exactly. An
attempt is only a list of fanin triples, each output draw is sized by a
walk over it, and a graph is built only for a draw that hits the target.

`optimal_size_3` reads a constant table of exact minimum sizes for the
256 3-input functions, the reduction ceiling for sop3. The tests
recompute it with an exhaustive search over all small majority networks
that shares no code with the graph data structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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


def _draw3(rng: random.Random, n: int) -> tuple[int, int, int]:
    """Three distinct ids below `n`, drawn draw for draw as
    `rng.sample(range(n), 3)` draws them, without its set for n > 21."""
    if n <= 21:  # sample's pool branch
        return tuple(rng.sample(range(n), 3))
    # sample's set branch: redraw an index that is out of range or taken
    bits, k = rng.getrandbits, n.bit_length()
    a = bits(k)
    while a >= n:
        a = bits(k)
    b = bits(k)
    while b >= n or b == a:
        b = bits(k)
    c = bits(k)
    while c >= n or c == a or c == b:
        c = bits(k)
    return a, b, c


def _cone(triples: list[tuple[int, int, int]], first: int, outs: list[int]) -> set[int]:
    """Majority ids in the fanin cone of `outs`, where `triples[i]` holds
    the fanin literals of node `first + i` and ids below `first` are
    terminals."""
    seen: set[int] = set()
    stack = list(outs)
    while stack:
        nid = stack.pop() >> 1
        if nid >= first and nid not in seen:
            seen.add(nid)
            stack.extend(triples[nid - first])
    return seen


def random_mig(spec: RandomGraphSpec) -> MigGraph:
    """Random MIG with exactly `spec.size` reachable majority nodes."""
    if spec.size < 1:
        raise MigError("target size must be at least 1")
    if spec.pi_count < 2 or spec.po_count < 1:  # fanins are 3 distinct nodes of 0 and the PIs
        raise MigError("random graphs need at least 2 inputs and 1 output")
    rng = random.Random(spec.seed)
    rand = rng.random
    first = spec.pi_count + 1  # id of the first majority node
    pool_target = max(spec.size + 2, int(spec.size * 1.6))
    for _ in range(_MAX_ATTEMPTS):
        # an attempt is only fanin triples; the graph is built for a hit
        triples = []  # fanin literals of node first + i
        for n in range(first, first + pool_target):
            a, b, c = _draw3(rng, n)
            triples.append((2 * a + (rand() < 0.5), 2 * b + (rand() < 0.5), 2 * c + (rand() < 0.5)))
        maj = range(first, first + pool_target)
        sizes = []
        for _ in range(30):
            outs = [lit(rng.choice(maj), rand() < 0.5) for _ in range(spec.po_count)]
            # uncleaned size first; cleanup rarely changes it, since no
            # triple collapses (a merge of twin triples can)
            s = len(_cone(triples, first, outs))
            if s == spec.size:
                g = new_graph(spec.pi_count)
                for t in triples:
                    g.add_majority(*t)
                g.set_outputs(outs)
                s = rw.step(g, {}).size_after
                if s == spec.size:
                    g.check()
                    g.drop_fanout_index()  # the cleanup built it
                    return g
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
    rw.step(g, {})  # merges the shared AND prefixes
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

# Minimum majority-node count realizing each 3-input function, indexed by
# its 8-bit truth table (x1 = 0xAA, x2 = 0xCC, x3 = 0xF0). Written out from
# an exhaustive search over all majority networks with complemented edges;
# tests/test_datagen.py keeps that search and checks it reproduces this
# table entry for entry.
_OPTIMAL3 = (
    0, 2, 2, 1, 2, 1, 3, 2, 2, 3, 1, 2, 1, 2, 2, 0,  # 0x00
    2, 1, 3, 2, 3, 2, 4, 1, 4, 4, 4, 3, 4, 3, 4, 2,  # 0x10
    2, 3, 1, 2, 4, 4, 4, 3, 3, 4, 2, 1, 4, 4, 3, 2,  # 0x20
    1, 2, 2, 0, 4, 3, 4, 2, 4, 4, 3, 2, 3, 4, 4, 1,  # 0x30
    2, 3, 4, 4, 1, 2, 4, 3, 3, 4, 4, 4, 2, 1, 3, 2,  # 0x40
    1, 2, 4, 3, 2, 0, 4, 2, 4, 4, 3, 4, 3, 2, 4, 1,  # 0x50
    3, 4, 4, 4, 4, 4, 3, 4, 4, 3, 4, 4, 4, 4, 4, 3,  # 0x60
    2, 1, 3, 2, 3, 2, 4, 1, 4, 4, 4, 3, 4, 3, 4, 2,  # 0x70
    2, 4, 3, 4, 3, 4, 4, 4, 1, 4, 2, 3, 2, 3, 1, 2,  # 0x80
    3, 4, 4, 4, 4, 4, 3, 4, 4, 3, 4, 4, 4, 4, 4, 3,  # 0x90
    1, 4, 2, 3, 4, 3, 4, 4, 2, 4, 0, 2, 3, 4, 2, 1,  # 0xa0
    2, 3, 1, 2, 4, 4, 4, 3, 3, 4, 2, 1, 4, 4, 3, 2,  # 0xb0
    1, 4, 4, 3, 2, 3, 4, 4, 2, 4, 3, 4, 0, 2, 2, 1,  # 0xc0
    2, 3, 4, 4, 1, 2, 4, 3, 3, 4, 4, 4, 2, 1, 3, 2,  # 0xd0
    2, 4, 3, 4, 3, 4, 4, 4, 1, 4, 2, 3, 2, 3, 1, 2,  # 0xe0
    0, 2, 2, 1, 2, 1, 3, 2, 2, 3, 1, 2, 1, 2, 2, 0,  # 0xf0
)


def optimal_size_3(table: int) -> int:
    """Exact minimum majority-node count realizing a 3-input function."""
    if not 0 <= table <= 0xFF:
        raise MigError("need an 8-bit truth table")
    return _OPTIMAL3[table]


def sop3_oracle_ceiling() -> float:
    """Mean achievable reduction over the full 3-input dataset."""
    total = 0
    for name, g in enumerate_sop3():
        table = int(name.split("_")[1], 16)
        total += g.size() - optimal_size_3(table)
    return total / 256.0
