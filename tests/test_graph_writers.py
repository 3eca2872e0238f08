"""Only `migopt.mig` writes `MigGraph` state: outside mig.py no module in
src/migopt assigns to, augments or deletes a graph's node table, outputs,
input count, consumer index or id counter, whole or by item, or calls a
mutating method on one of them or on a set that `MigGraph.readers`
returns, which is the consumer index's own. So the tables kept beside the
nodes (the consumer index, the pending and orphan sets, the structural
hash) need updating in `MigGraph`'s writers alone. Nor does such a module read one of
the private attributes, so what it learns of those tables (a node's
readers, the pending ids) comes through a public method."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = {
    "nodes", "outputs", "_outputs", "pi_count", "_fanouts", "_next_id", "_dirty", "_orphans",
    "_strash",
}
PRIVATE = {"_index", "_fanouts", "_strash", "_dirty", "_orphans", "_next_id", "_outputs"}
MUTATORS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
    "remove", "reverse", "setdefault", "sort", "update",
}


def _modules_beside_mig() -> list[Path]:
    return sorted(p for p in (ROOT / "src" / "migopt").glob("*.py") if p.name != "mig.py")


def _leaves(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _leaves(elt)
    elif isinstance(target, ast.Starred):
        yield from _leaves(target.value)
    else:
        yield target


def _state_attr(target) -> str | None:
    """The state attribute that `target` writes: `g.nodes`, `g.nodes[k]`,
    ..., and `g.readers(k)`, a set of the consumer index `_fanouts`."""
    while isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Call)
        and isinstance(target.func, ast.Attribute)
        and target.func.attr == "readers"
    ):
        return "_fanouts"
    if isinstance(target, ast.Attribute) and target.attr in STATE:
        return target.attr
    return None


def state_writes(source: str) -> list[tuple[int, str]]:
    """(line, attribute) of each write to graph state in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
        ):
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            for leaf in _leaves(target):
                attr = _state_attr(leaf)
                if attr is not None:
                    found.append((node.lineno, attr))
    return sorted(found)


def test_state_writes_are_flagged():
    source = (
        "def f(g, h, x):\n"
        "    g.outputs = [x]\n"
        "    g.nodes[5] = (0, 2, 4)\n"
        "    g._next_id += 1\n"
        "    del h.nodes[5]\n"
        "    a, g.pi_count = 1, 2\n"
        "    g._fanouts[3].add(5)\n"
        "    g._outputs[0] = 4\n"
        "    g.readers(5).discard(x)\n"
        "    n: int = len(g.nodes) + len(g.readers(5))\n"
        "    g.set_outputs(list(g.outputs))\n"
        "    g.remove(5)\n"
        "    return g.nodes.get(x), sorted(g.outputs), n, g.readers(x).isdisjoint(h.readers(x))\n"
    )
    assert state_writes(source) == [
        (2, "outputs"), (3, "nodes"), (4, "_next_id"), (5, "nodes"), (6, "pi_count"),
        (7, "_fanouts"), (8, "_outputs"), (9, "_fanouts"),
    ]


def test_only_mig_writes_graph_state():
    found = [
        f"{path.relative_to(ROOT)}:{line}: .{attr}"
        for path in _modules_beside_mig()
        for line, attr in state_writes(path.read_text())
    ]
    assert not found, "graph state written outside mig.py: " + ", ".join(found)


def private_reads(source: str) -> list[tuple[int, str]]:
    """(line, attribute) of each use of a private `MigGraph` attribute."""
    found = [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE
    ]
    return sorted(found)


def test_private_reads_are_flagged():
    source = (
        "def f(g, nid):\n"
        "    users = g._index().get(nid, ())\n"
        "    n = len(g._fanouts) + g._next_id\n"
        "    pending = sorted(g._dirty | g._orphans)\n"
        "    other = g._strash.get(g.nodes[nid])\n"
        "    return users, n, pending, other, g._outputs[0], g.readers(nid), g.outputs\n"
    )
    assert private_reads(source) == [
        (2, "_index"), (3, "_fanouts"), (3, "_next_id"), (4, "_dirty"), (4, "_orphans"),
        (5, "_strash"), (6, "_outputs"),
    ]


def test_only_mig_reads_private_graph_state():
    found = [
        f"{path.relative_to(ROOT)}:{line}: .{attr}"
        for path in _modules_beside_mig()
        for line, attr in private_reads(path.read_text())
    ]
    assert not found, "private graph state read outside mig.py: " + ", ".join(found)
