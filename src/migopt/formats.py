"""Persistence: native MIG text files, AIGER-ASCII ingestion, checkpoints.

MIG text format::

    mig <pi_count> <po_count> <maj_count>
    n1 = M(x1,!x2,0)
    po0 = !n1

Node lines appear in topological order with dense 1-based file ids; a
signal is an optional ``!`` followed by ``x<j>`` (1-based primary input),
``n<id>``, or ``0`` (the constant). Emission renumbers nodes, so
re-emitting a parsed file is idempotent.

Checkpoints are line-oriented text with full-precision decimal weights
and a sha256 integrity checksum over the payload.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from migopt.mig import MAX_INPUTS, MigError, MigGraph, new_graph
from migopt.policy import Hyperparams, PolicyParams
from migopt.rewrite import ACTION_COUNT


# -- native MIG text ----------------------------------------------------


def emit_mig(g: MigGraph) -> str:
    pi_count, nodes = g.pi_count, g.nodes
    name = {0: "0"}  # node id -> its name in the file, set as it is placed
    neg = ("", "!")
    gate_lines = []
    for nid in g.topological_order():
        if nid > pi_count:
            a, b, c = nodes[nid]
            name[nid] = n = f"n{len(gate_lines) + 1}"
            gate_lines.append(
                f"{n} = M({neg[a & 1]}{name[a >> 1]},{neg[b & 1]}{name[b >> 1]},"
                f"{neg[c & 1]}{name[c >> 1]})"
            )
        elif nid:
            name[nid] = f"x{nid}"
    lines = [f"mig {pi_count} {len(g.outputs)} {len(gate_lines)}", *gate_lines]
    for k, s in enumerate(g.outputs):
        lines.append(f"po{k} = {neg[s & 1]}{name[s >> 1]}")
    return "\n".join(lines) + "\n"


# a signal, with the whitespace around it, is an optional `!` and then
# `x<j>`, `n<k>` or `0`; node and output lines are each matched whole
_SIG = r"\s*(!?)(?:x(\d+)|n(\d+)|0)\s*"
_NODE_RE = re.compile(rf"n(\d+)\s*=\s*M\({_SIG},{_SIG},{_SIG}\)")
_PO_RE = re.compile(rf"po(\d+)\s*={_SIG}")


class ParseError(MigError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _sig_lit(
    neg: str, x: str | None, n: str | None, lineno: int, pi_count: int, defined: int
) -> int:
    """The literal of a matched signal: `!`, then input `x`, node `n` or the constant."""
    if x is not None:
        j = int(x)
        if not 1 <= j <= pi_count:
            raise ParseError(lineno, f"input x{j} out of range")
        s = 2 * j
    elif n is not None:
        k = int(n)
        if not 1 <= k <= defined:
            raise ParseError(lineno, f"reference to undefined node n{k}")
        s = 2 * (pi_count + k)
    else:
        s = 0
    return s + (neg == "!")


def parse_mig(text: str) -> MigGraph:
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise ParseError(1, "empty file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "mig":
        raise ParseError(lineno, "header must be 'mig <pi> <po> <maj>'")
    try:
        pi_count, po_count, maj_count = (int(x) for x in parts[1:])
    except ValueError:
        raise ParseError(lineno, "non-integer header field") from None
    if min(pi_count, po_count, maj_count) < 0 or po_count == 0:
        raise ParseError(lineno, "bad header counts")
    if pi_count > MAX_INPUTS:
        raise ParseError(lineno, f"more than {MAX_INPUTS} inputs")

    body = lines[1:]
    if len(body) != maj_count + po_count:
        raise ParseError(
            lines[-1][0], f"expected {maj_count} node and {po_count} output lines"
        )
    g = new_graph(pi_count)
    try:
        for k in range(maj_count):
            lineno, ln = body[k]
            m = _NODE_RE.fullmatch(ln)
            if not m:
                raise ParseError(lineno, f"bad node line {ln!r}")
            nid, na, xa, ka, nb, xb, kb, nc, xc, kc = m.groups()
            if int(nid) != k + 1:
                raise ParseError(lineno, f"expected node n{k + 1}, got n{nid}")
            g.add_majority(
                _sig_lit(na, xa, ka, lineno, pi_count, k),
                _sig_lit(nb, xb, kb, lineno, pi_count, k),
                _sig_lit(nc, xc, kc, lineno, pi_count, k),
            )
        outputs = []
        for k in range(po_count):
            lineno, ln = body[maj_count + k]
            m = _PO_RE.fullmatch(ln)
            if not m:
                raise ParseError(lineno, f"bad output line {ln!r}")
            pid, neg, x, n = m.groups()
            if int(pid) != k:
                raise ParseError(lineno, f"expected output po{k}, got po{pid}")
            outputs.append(_sig_lit(neg, x, n, lineno, pi_count, maj_count))
    except ValueError:  # an index too long for int(): sys.get_int_max_str_digits()
        raise ParseError(lineno, "index has too many digits") from None
    g.set_outputs(outputs)
    g.check()
    return g


def load_mig(path) -> MigGraph:
    return parse_mig(Path(path).read_text())


def save_mig(g: MigGraph, path):
    Path(path).write_text(emit_mig(g))


# -- AIGER ASCII --------------------------------------------------------


def parse_aiger_ascii(text: str) -> MigGraph:
    """Translate an ASCII AIGER (`aag`) combinational circuit into a MIG.

    Each AND gate becomes M(a, b, const0); literal polarity maps to edge
    complementation (odd literal = complemented). Latches are rejected.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "aag":
        raise ParseError(1, "header must be 'aag M I L O A'")
    try:
        maxvar, n_in, n_latch, n_out, n_and = (int(x) for x in head[1:])
    except ValueError:
        raise ParseError(1, "non-integer header field") from None
    if n_latch != 0:
        raise ParseError(1, "latches are not supported")
    if min(maxvar, n_in, n_out, n_and) < 0 or n_out == 0:  # the .mig rule, so convert round-trips
        raise ParseError(1, "bad header counts")
    if n_in > MAX_INPUTS:
        raise ParseError(1, f"more than {MAX_INPUTS} inputs")

    def literal(tok: str, lineno: int) -> int:
        try:
            lit = int(tok)
        except ValueError:
            raise ParseError(lineno, f"bad literal {tok!r}") from None
        if lit < 0 or lit > 2 * maxvar + 1:
            raise ParseError(lineno, f"literal {lit} out of range")
        return lit

    idx = 1

    def literal_line(what: str) -> int:
        nonlocal idx
        if idx >= len(lines):
            raise ParseError(len(lines), f"missing {what} line")
        toks = lines[idx].split()
        idx += 1
        if not toks:
            raise ParseError(idx, f"blank {what} line")
        return literal(toks[0], idx)

    pi_var: dict[int, int] = {}
    for k in range(n_in):
        lit = literal_line("input")
        if lit & 1 or lit == 0:
            raise ParseError(idx, f"input literal {lit} must be even nonzero")
        if lit >> 1 in pi_var:
            raise ParseError(idx, f"input literal {lit} repeats an input")
        pi_var[lit >> 1] = k + 1
    out_lits = [literal_line("output") for _ in range(n_out)]
    and_def: dict[int, tuple[int, int]] = {}
    and_order: list[int] = []
    for _ in range(n_and):
        if idx >= len(lines):
            raise ParseError(len(lines), "missing and-gate line")
        toks = lines[idx].split()
        if len(toks) != 3:
            raise ParseError(idx + 1, "and line needs 3 literals")
        lhs, rhs0, rhs1 = (literal(t, idx + 1) for t in toks)
        if lhs & 1:
            raise ParseError(idx + 1, f"and output literal {lhs} must be even")
        var = lhs >> 1
        if var in pi_var or var == 0 or var in and_def:
            raise ParseError(idx + 1, f"literal {lhs} redefines a variable")
        and_def[var] = (rhs0, rhs1)
        and_order.append(var)
        idx += 1
    # anything after the gate section is symbols/comments; ignored

    g = new_graph(n_in)
    built: dict[int, int] = {0: g.const0()}  # AIGER variable -> MIG literal
    built.update((var, g.pi(k)) for var, k in pi_var.items())

    def signal(lit: int) -> int:
        return built[lit >> 1] ^ (lit & 1)

    def resolve(top: int):
        # post-order walk, first fanin first, on an explicit stack so deep
        # netlists parse; gates are created in the order recursion would
        stack = [top]
        visiting: set[int] = set()  # open walks; reaching one again is a cycle
        while stack:
            var = stack[-1]
            if var in built:
                stack.pop()
                continue
            if var not in and_def:
                raise ParseError(1, f"variable {var} is never defined")
            visiting.add(var)
            pending = [lit >> 1 for lit in and_def[var] if lit >> 1 not in built]
            if pending:
                if pending[0] in visiting:
                    raise ParseError(1, f"combinational cycle through variable {pending[0]}")
                stack.append(pending[0])
                continue
            stack.pop()
            visiting.discard(var)
            built[var] = g.add_majority(*map(signal, and_def[var]), g.const0())

    for var in and_order:
        resolve(var)
    for lit in out_lits:
        resolve(lit >> 1)
    g.set_outputs([signal(lit) for lit in out_lits])
    g.check()
    return g


def load_aiger(path) -> MigGraph:
    return parse_aiger_ascii(Path(path).read_text())


# -- policy checkpoints --------------------------------------------------


def checkpoint_text(params: PolicyParams, rng_state=None) -> str:
    hp = params.hp
    lines = [
        "migckpt 1",
        f"layers {hp.layers}",
        f"hidden {hp.hidden}",
        f"actions {ACTION_COUNT}",
    ]
    if rng_state is not None:
        lines.append("rngstate " + json.dumps(rng_state))
    for name, arr in params.arrays():
        a2 = np.atleast_2d(arr)
        lines.append(f"array {name} {a2.shape[0]} {a2.shape[1]}")
        for row in a2:
            lines.append(" ".join(repr(float(v)) for v in row))
    payload = "\n".join(lines) + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return payload + f"checksum {digest}\n"


def parse_checkpoint(text: str):
    """Returns (PolicyParams, rng_state or None); verifies the checksum."""
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("checksum "):
        raise MigError("checkpoint missing checksum line")
    digest = lines[-1].split()[1]
    payload = "\n".join(lines[:-1]) + "\n"
    if hashlib.sha256(payload.encode()).hexdigest() != digest:
        raise MigError("checkpoint checksum mismatch")
    if lines[0] != "migckpt 1":
        raise MigError("unsupported checkpoint version")
    try:
        return _checkpoint_payload(lines)
    except (KeyError, IndexError, ValueError, MemoryError) as exc:
        raise MigError(f"malformed checkpoint payload: {exc!r}") from None


def _checkpoint_payload(lines: list[str]):
    fields = {}
    idx = 1
    while idx < len(lines) - 1 and not lines[idx].startswith("array "):
        key, _, val = lines[idx].partition(" ")
        if key not in ("layers", "hidden", "actions", "rngstate") or key in fields:
            raise MigError(f"unknown or repeated checkpoint key {key!r}")
        fields[key] = val
        idx += 1
    hp = Hyperparams(layers=int(fields["layers"]), hidden=int(fields["hidden"]))
    if int(fields["actions"]) != ACTION_COUNT:
        raise MigError(f"action head must have {ACTION_COUNT} outputs")
    rng_state = json.loads(fields["rngstate"]) if "rngstate" in fields else None
    # a layer is hidden + 3 lines (w{l} and b{l}, headers included) and the
    # head ACTION_COUNT + 3: check the count before allocating the arrays
    want = hp.layers * (hp.hidden + 3) + ACTION_COUNT + 3
    if len(lines) - 1 - idx != want:
        raise MigError(f"checkpoint has {len(lines) - 1 - idx} array lines, want {want}")

    # each array must come in the order checkpoint_text writes it, with the
    # shape of the view it fills; a vector is written as one row
    params = PolicyParams(hp)
    for name, arr in params.arrays():
        rows = np.atleast_2d(arr)
        want = ["array", name, *map(str, rows.shape)]
        if lines[idx].split() != want:
            raise MigError(f"checkpoint array header {lines[idx]!r}, want {' '.join(want)!r}")
        for r, row in enumerate(rows):
            idx += 1
            vals = lines[idx].split()
            if len(vals) != row.size:
                raise MigError(f"array {name} row {r} has {len(vals)} values")
            row[:] = [float(v) for v in vals]
        idx += 1
    if idx != len(lines) - 1:
        raise MigError(f"unexpected checkpoint line after the arrays: {lines[idx]!r}")
    return params, rng_state


def save_checkpoint(params: PolicyParams, path, rng_state=None):
    Path(path).write_text(checkpoint_text(params, rng_state))


def load_checkpoint(path) -> PolicyParams:
    params, _ = parse_checkpoint(Path(path).read_text())
    return params


# -- dataset directories -------------------------------------------------


def save_dataset(dirpath, items: list[tuple[str, MigGraph]], meta: dict):
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    names = []
    for name, g in items:
        fname = f"{name}.mig"
        save_mig(g, d / fname)
        names.append(fname)
    manifest = dict(meta)
    manifest["count"] = len(items)
    manifest["items"] = names
    (d / "dataset.manifest").write_text(json.dumps(manifest, indent=1) + "\n")


def load_dataset(dirpath) -> tuple[list[tuple[str, MigGraph]], dict]:
    d = Path(dirpath)
    try:
        manifest = json.loads((d / "dataset.manifest").read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise MigError(f"dataset.manifest is not UTF-8 JSON: {exc}") from None
    names = manifest.get("items") if isinstance(manifest, dict) else None
    # a bare name, so every item is read from inside the dataset directory
    if not isinstance(names, list) or not all(
        isinstance(n, str) and n not in ("", ".", "..") and Path(n).name == n for n in names
    ):
        raise MigError("dataset.manifest needs an object whose 'items' lists bare file names")
    items = []
    for fname in names:
        g = load_mig(d / fname)
        items.append((fname.removesuffix(".mig"), g))
    return items, manifest
