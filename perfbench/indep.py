"""Independent reader and simulator for the `.mig` text format.

The benchmark checks the optimizer's outputs with this module instead of
with `migopt`, so a bug in the program's own simulator or equivalence
check cannot hide a wrong output. It shares no code with `migopt`.

Format: a header `mig <inputs> <outputs> <gates>`, then one line per gate
`n<k> = M(a,b,c)` in topological order, then one line per output
`po<k> = s`. A signal is `0`, `x<j>` or `n<k>`, optionally prefixed `!`.
"""

from __future__ import annotations

import random
import re

_GATE = re.compile(r"n(\d+) = M\(([^,]+),([^,]+),([^)]+)\)")
_OUT = re.compile(r"po(\d+) = (\S+)")
_SIG = re.compile(r"(!?)(0|x(\d+)|n(\d+))")


class CheckError(Exception):
    """The text is not a well-formed `.mig` circuit."""


class Circuit:
    """A parsed `.mig` text: signals are (index, negated) pairs where
    index 0 is the constant, 1..inputs the inputs, and inputs+k gate k."""

    def __init__(self, text: str):
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise CheckError("empty text")
        head = lines[0].split()
        if len(head) != 4 or head[0] != "mig":
            raise CheckError(f"bad header {lines[0]!r}")
        self.inputs, n_out, n_gates = (int(v) for v in head[1:])
        if len(lines) != 1 + n_gates + n_out:
            raise CheckError("line count does not match the header")
        self.gates: list[tuple] = []
        for k, ln in enumerate(lines[1 : 1 + n_gates]):
            m = _GATE.fullmatch(ln)
            if not m or int(m.group(1)) != k + 1:
                raise CheckError(f"bad gate line {ln!r}")
            self.gates.append(tuple(self._sig(m.group(i), k) for i in (2, 3, 4)))
        self.outputs = []
        for k, ln in enumerate(lines[1 + n_gates :]):
            m = _OUT.fullmatch(ln)
            if not m or int(m.group(1)) != k:
                raise CheckError(f"bad output line {ln!r}")
            self.outputs.append(self._sig(m.group(2), n_gates))

    def _sig(self, tok: str, defined: int) -> tuple[int, bool]:
        m = _SIG.fullmatch(tok.strip())
        if not m:
            raise CheckError(f"bad signal {tok!r}")
        neg = m.group(1) == "!"
        if m.group(3) is not None:
            j = int(m.group(3))
            if not 1 <= j <= self.inputs:
                raise CheckError(f"input {tok!r} out of range")
            return j, neg
        if m.group(4) is not None:
            k = int(m.group(4))
            if not 1 <= k <= defined:
                raise CheckError(f"gate {tok!r} used before definition")
            return self.inputs + k, neg
        return 0, neg

    def size(self) -> int:
        """Gates in the transitive fanin of the outputs."""
        seen: set[int] = set()
        stack = [i for i, _ in self.outputs]
        while stack:
            i = stack.pop()
            if i in seen or i <= self.inputs:
                continue
            seen.add(i)
            stack.extend(j for j, _ in self.gates[i - self.inputs - 1])
        return len(seen)

    def simulate(self, input_words: list[int], mask: int) -> list[int]:
        """Output words for one bit-parallel word per input."""
        vals = [0] + list(input_words)
        for fanins in self.gates:
            a, b, c = (vals[i] ^ (mask if neg else 0) for i, neg in fanins)
            vals.append((a & b) | (a & c) | (b & c))
        return [vals[i] ^ (mask if neg else 0) for i, neg in self.outputs]


# Row r of a 3-input truth table sets x_j to bit j-1 of r.
_ROWS3 = (0xAA, 0xCC, 0xF0)


def truth_table3(text: str) -> int:
    """8-row truth table of a single-output, 3-input circuit."""
    c = Circuit(text)
    if c.inputs != 3 or len(c.outputs) != 1:
        raise CheckError("not a single-output 3-input circuit")
    return c.simulate(list(_ROWS3), 0xFF)[0]


def same_function(text_a: str, text_b: str, seed: int, words: int = 4, width: int = 256) -> bool:
    """Compare two circuits on `words` rounds of seeded random input patterns.

    Agreement is evidence, not proof; a disagreement is a definite
    counterexample.
    """
    a, b = Circuit(text_a), Circuit(text_b)
    if a.inputs != b.inputs or len(a.outputs) != len(b.outputs):
        return False
    rng = random.Random(seed)
    mask = (1 << width) - 1
    for _ in range(words):
        pats = [rng.getrandbits(width) for _ in range(a.inputs)]
        if a.simulate(pats, mask) != b.simulate(pats, mask):
            return False
    return True


def flip_first_output(text: str) -> str:
    """The same text with the polarity of output po0 flipped."""
    lines = text.splitlines()
    for k, ln in enumerate(lines):
        m = _OUT.fullmatch(ln.strip())
        if m and m.group(1) == "0":
            sig = m.group(2)
            lines[k] = f"po0 = {sig[1:] if sig.startswith('!') else '!' + sig}"
            return "\n".join(lines) + "\n"
    raise CheckError("no output po0")
