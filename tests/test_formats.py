import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migopt import formats as fmt
from migopt.mig import MigError
from migopt.policy import Hyperparams, PolicyParams

from conftest import acting_nodes, clean_random_graph, dists


def test_parse_and_graph():
    g = fmt.parse_mig("mig 2 1 1\nn1 = M(x1,x2,0)\npo0 = n1\n")
    assert g.size() == 1
    assert g.simulate_truth_tables() == [0b1000]


def test_emit_parse_idempotent():
    g = clean_random_graph(6, 20, 1)
    text = fmt.emit_mig(g)
    assert fmt.emit_mig(fmt.parse_mig(text)) == text


def test_inverter_only_circuit():
    g = fmt.parse_mig("mig 1 1 0\npo0 = !x1\n")
    assert g.size() == 0
    assert g.simulate_truth_tables() == [0b01]


def test_round_trip_preserves_function_and_size():
    for seed in range(25):
        g = clean_random_graph(8, 18, seed)
        h = fmt.parse_mig(fmt.emit_mig(g))
        assert h.size() == g.size()
        assert g.simulate_truth_tables() == h.simulate_truth_tables()


def test_parse_errors_carry_line_numbers():
    cases = [
        ("zzz 1 1 0\npo0 = x1\n", 1, "header"),
        ("mig 2 1 1\nn1 = M(x1,n2,0)\npo0 = n1\n", 2, "undefined"),
        ("mig 2 1 1\nn1 = M(x1,x9,0)\npo0 = n1\n", 2, "out of range"),
        ("mig 2 1 1\nn2 = M(x1,x2,0)\npo0 = n2\n", 2, "expected node"),
        ("mig 2 1 1\nn1 = M(x1,x2,0)\npo0 = qq\n", 3, "bad signal"),
        ("mig 2 1 1\nn1 = M(x1,qq,0)\npo0 = n1\n", 2, "bad node line"),
        ("mig 2 0 0\n", 1, "counts"),
        # indices longer than int() converts (sys.get_int_max_str_digits())
        (f"mig 2 1 1\nn1 = M(x{'9' * 5000},x2,0)\npo0 = n1\n", 2, "digits"),
        (f"mig 2 1 1\nn{'1' * 5000} = M(x1,x2,0)\npo0 = n1\n", 2, "digits"),
        (f"mig 2 1 1\nn1 = M(x1,x2,0)\npo{'0' * 5000} = n1\n", 3, "digits"),
    ]
    for text, lineno, frag in cases:
        with pytest.raises(fmt.ParseError) as err:
            fmt.parse_mig(text)
        assert err.value.lineno == lineno
        assert frag in str(err.value)


_REF_NODE_RE = re.compile(r"^n(\d+)\s*=\s*M\(([^,()]+),([^,()]+),([^,()]+)\)$")
_REF_SIG_RE = re.compile(r"^(!?)(0|x(\d+)|n(\d+))$")


def reference_parse_node_lines(text):
    """Frozen node-line parse: the line's regex, then each token stripped and
    matched alone. Returns (nodes, outputs) with nodes by file id."""
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]
    pi_count, po_count, maj_count = (int(x) for x in lines[0][1].split()[1:])

    def sig(tok, lineno, defined):
        m = _REF_SIG_RE.match(tok.strip())
        if not m:
            raise fmt.ParseError(lineno, f"bad signal {tok!r}")
        neg = m.group(1) == "!"
        if m.group(2) == "0":
            return int(neg)
        if m.group(3) is not None:
            j = int(m.group(3))
            if not 1 <= j <= pi_count:
                raise fmt.ParseError(lineno, f"input x{j} out of range")
            return 2 * j + neg
        k = int(m.group(4))
        if not 1 <= k <= defined:
            raise fmt.ParseError(lineno, f"reference to undefined node n{k}")
        return 2 * (pi_count + k) + neg

    body = lines[1:]
    nodes = {}
    for k in range(maj_count):
        lineno, ln = body[k]
        m = _REF_NODE_RE.match(ln)
        if not m:
            raise fmt.ParseError(lineno, f"bad node line {ln!r}")
        if int(m.group(1)) != k + 1:
            raise fmt.ParseError(lineno, f"expected node n{k + 1}, got n{m.group(1)}")
        nodes[pi_count + k + 1] = tuple(sig(m.group(i), lineno, k) for i in (2, 3, 4))
    outputs = []
    for k in range(po_count):
        lineno, ln = body[maj_count + k]
        m = fmt._PO_RE.match(ln)
        if not m:
            raise fmt.ParseError(lineno, f"bad output line {ln!r}")
        outputs.append(sig(m.group(2), lineno, maj_count))
    return nodes, outputs


_WS = st.sampled_from(["", " ", "  ", "\t", "\u3000", " \t"])
# ASCII digits, a leading zero, Arabic-Indic and fullwidth digits
_ARABIC_INDIC = {ord("0") + d: 0x660 + d for d in range(10)}
_FULLWIDTH = {ord("0") + d: 0xFF10 + d for d in range(10)}
_DIGITS = st.sampled_from(
    [str] * 3
    + ["0{}".format, "00{}".format, lambda i: str(i).translate(_ARABIC_INDIC), lambda i: str(i).translate(_FULLWIDTH)]
)
_MALFORMED = ["00", "x", "!!x1", "! x1", "n-1", "", "x1 x2", "0x1", "!", "x+1"]


@st.composite
def _signal(draw, pi_count, defined):
    kind = draw(st.sampled_from(["0", "x", "x", "x", "n", "n", "n", "n", "n", "malformed"]))
    if kind == "malformed":
        return draw(st.sampled_from(_MALFORMED))
    neg = draw(st.sampled_from(["", "!"]))
    if kind == "0":
        return neg + "0"
    if kind == "n" and not defined:
        kind = "x"  # no node is defined yet; out-of-range indices are drawn below
    top = pi_count if kind == "x" else defined
    if draw(st.integers(0, 7)):
        index = draw(st.integers(1, top))
    else:
        index = draw(st.sampled_from([0, top + 1]))
    return f"{neg}{kind}{draw(_DIGITS)(index)}"


@settings(deadline=None)  # examples, derandomization and database from the profile
@given(data=st.data(), pi_count=st.integers(1, 4), maj_count=st.integers(0, 5), po_count=st.integers(1, 3))
def test_node_lines_parse_as_the_token_reference(data, pi_count, maj_count, po_count):
    lines = [f"mig {pi_count} {po_count} {maj_count}"]
    for k in range(maj_count):
        sigs = (data.draw(_WS) + data.draw(_signal(pi_count, k)) + data.draw(_WS) for _ in range(3))
        nid = data.draw(st.sampled_from([f"{k + 1}"] * 4 + [f"0{k + 1}", f"{k + 2}"]), label="id")
        lines.append(f"n{nid} = M({','.join(sigs)})")
    for k in range(po_count):
        lines.append(f"po{k} = {data.draw(_signal(pi_count, maj_count))}")
    text = "\n".join(lines) + "\n"
    try:
        want = reference_parse_node_lines(text)
    except fmt.ParseError as exc:
        with pytest.raises(fmt.ParseError) as err:
            fmt.parse_mig(text)
        assert err.value.lineno == exc.lineno
        # the declared message change: a node line with a malformed signal
        # fails as a whole, before its id and its other signals are checked
        ln = text.splitlines()[exc.lineno - 1]
        m = _REF_NODE_RE.match(ln)
        if m and not all(_REF_SIG_RE.match(m.group(i).strip()) for i in (2, 3, 4)):
            assert str(err.value) == f"line {exc.lineno}: bad node line {ln!r}"
        else:
            assert str(err.value) == str(exc)
        return
    g = fmt.parse_mig(text)
    assert {n: f for n, f in g.nodes.items() if f} == want[0]
    assert g.outputs == want[1]


def test_parse_rejects_wrong_body_length():
    with pytest.raises(fmt.ParseError):
        fmt.parse_mig("mig 2 1 2\nn1 = M(x1,x2,0)\npo0 = n1\n")


def test_parse_checks_body_length_before_allocating(monkeypatch):
    # the header's input count must not size an allocation for a bad body
    def refuse(pi_count):
        raise AssertionError(f"allocated a {pi_count}-input graph")

    monkeypatch.setattr(fmt, "new_graph", refuse)
    with pytest.raises(fmt.ParseError):
        fmt.parse_mig("mig 200000 1 0\npo0 = 0\nextra\n")


# -- AIGER ---------------------------------------------------------------


def eval_aig(text, assignment):
    """Independent AIG evaluator used as the conversion oracle."""
    lines = text.splitlines()
    _, m, i, l, o, a = lines[0].split()
    m, i, l, o, a = int(m), int(i), int(l), int(o), int(a)
    assert l == 0
    inputs = [int(lines[1 + k]) for k in range(i)]
    outputs = [int(lines[1 + i + k]) for k in range(o)]
    ands = [tuple(map(int, lines[1 + i + o + k].split())) for k in range(a)]
    val = {0: 0}
    for k, lit in enumerate(inputs):
        val[lit >> 1] = assignment[k]

    def resolve(lit):
        v = val[lit >> 1]
        return v ^ (lit & 1)

    for lhs, r0, r1 in ands:
        val[lhs >> 1] = resolve(r0) & resolve(r1)
    return [resolve(lit) for lit in outputs]


def aig_truth_tables(text, n_inputs):
    tables = None
    for row in range(1 << n_inputs):
        assignment = [(row >> k) & 1 for k in range(n_inputs)]
        outs = eval_aig(text, assignment)
        if tables is None:
            tables = [0] * len(outs)
        for k, v in enumerate(outs):
            tables[k] |= v << row
    return tables


AND_AAG = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"


def test_aiger_and_gate():
    g = fmt.parse_aiger_ascii(AND_AAG)
    assert g.size() == 1
    assert g.simulate_truth_tables() == aig_truth_tables(AND_AAG, 2) == [0b1000]


def test_aiger_complemented_output():
    text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n"
    g = fmt.parse_aiger_ascii(text)
    assert g.simulate_truth_tables() == aig_truth_tables(text, 2) == [0b0111]


def test_aiger_inverter_only():
    text = "aag 1 1 0 1 0\n2\n3\n"
    g = fmt.parse_aiger_ascii(text)
    assert g.size() == 0
    assert g.simulate_truth_tables() == [0b01]


def test_aiger_rejects_latches_and_bad_literals():
    with pytest.raises(fmt.ParseError):
        fmt.parse_aiger_ascii("aag 3 2 1 1 1\n2\n4\n6\n6 2 4\n")
    with pytest.raises(fmt.ParseError):
        fmt.parse_aiger_ascii("aag 3 2 0 1 1\n2\n4\n6\n6 2 99\n")
    with pytest.raises(fmt.ParseError):
        fmt.parse_aiger_ascii("aag 3 2 0 1 1\n2\n4\n6\n7 2 4\n")
    with pytest.raises(fmt.ParseError, match="line 2: blank input line"):
        fmt.parse_aiger_ascii("aag 5 2 0 1 3\n\n4\n11\n6 2 4\n8 6 3\n10 8 5\n")
    with pytest.raises(fmt.ParseError, match="line 4: blank output line"):
        fmt.parse_aiger_ascii("aag 3 2 0 1 1\n2\n4\n \n6 2 4\n")
    with pytest.raises(fmt.ParseError, match="cycle through variable 3"):
        fmt.parse_aiger_ascii("aag 4 1 0 1 2\n2\n8\n6 2 8\n8 6 2\n")
    with pytest.raises(fmt.ParseError, match="cycle through variable 3"):
        fmt.parse_aiger_ascii("aag 3 1 0 1 1\n2\n6\n6 6 2\n")
    with pytest.raises(fmt.ParseError, match="variable 4 is never defined"):
        fmt.parse_aiger_ascii("aag 4 1 0 1 1\n2\n6\n6 2 8\n")
    with pytest.raises(fmt.ParseError, match="line 3: input literal 2 repeats an input"):
        fmt.parse_aiger_ascii("aag 1 2 0 1 0\n2\n2\n2\n")


def random_aag(n_inputs, n_ands, seed):
    import random

    rng = random.Random(seed)
    lits = [2 * (k + 1) for k in range(n_inputs)]
    lines = []
    var = n_inputs
    for _ in range(n_ands):
        var += 1
        a = rng.choice(lits) ^ rng.randrange(2)
        b = rng.choice(lits) ^ rng.randrange(2)
        lines.append(f"{2 * var} {a} {b}")
        lits.append(2 * var)
    out = lits[-1] ^ rng.randrange(2)
    head = f"aag {var} {n_inputs} 0 1 {n_ands}"
    ins = [str(2 * (k + 1)) for k in range(n_inputs)]
    return "\n".join([head] + ins + [str(out)] + lines) + "\n"


def test_aiger_matches_independent_evaluator():
    for seed in range(10):
        text = random_aag(5, 12, seed)
        g = fmt.parse_aiger_ascii(text)
        assert g.simulate_truth_tables() == aig_truth_tables(text, 5)


def chain_aag(n_ands: int, reverse: bool) -> str:
    # gate k reads gate k-1 (complemented every third) and x1 or x2
    ands = ["6 2 4"]
    for var in range(4, n_ands + 3):
        ands.append(f"{2 * var} {2 * var - 2 + (var % 3 == 0)} {2 + 2 * (var % 2)}")
    if reverse:
        ands.reverse()
    last = 2 * (n_ands + 2)
    return "\n".join([f"aag {n_ands + 2} 2 0 1 {n_ands}", "2", "4", str(last + 1)] + ands) + "\n"


def test_aiger_deep_chain_in_any_line_order():
    forward = fmt.parse_aiger_ascii(chain_aag(3000, reverse=False))
    backward = fmt.parse_aiger_ascii(chain_aag(3000, reverse=True))
    assert backward.simulate_truth_tables() == forward.simulate_truth_tables()
    assert fmt.emit_mig(backward) == fmt.emit_mig(forward)  # same creation order


def test_aiger_signatures_match_evaluator_wide():
    # wide circuit: spot-check signature columns against the oracle
    text = random_aag(20, 60, 3)
    g = fmt.parse_aiger_ascii(text)
    import random

    for seed in (11, 22):
        width = 64
        sig = g.simulate_signatures(seed=seed, width=width)
        rng = random.Random(seed)
        pi_bits = [rng.getrandbits(width) for _ in range(20)]
        for j in range(0, width, 7):
            assignment = [(pi_bits[k] >> j) & 1 for k in range(20)]
            outs = eval_aig(text, assignment)
            got = [(bits >> j) & 1 for bits in sig]
            assert got == outs


@pytest.mark.parametrize(
    "header", ["aag 2 2 0 0 0", "aag 2 2 0 -1 0", "aag 2 -1 0 1 0", "aag 2 2 0 1 -3"]
)
def test_aiger_header_counts_follow_the_mig_rule(header):
    # .mig needs an output and no negative count, so a converted circuit
    # without one could not be read back
    with pytest.raises(fmt.ParseError, match="line 1: bad header counts"):
        fmt.parse_aiger_ascii(header + "\n2\n4\n2\n")


# -- checkpoints ----------------------------------------------------------


def test_checkpoint_round_trip_bit_identical():
    hp = Hyperparams(layers=2, hidden=6)
    params = PolicyParams.init(hp, seed=3)
    text = fmt.checkpoint_text(params, rng_state={"stream": 7})
    loaded, rng_state = fmt.parse_checkpoint(text)
    assert rng_state == {"stream": 7}
    for (_, a), (_, b) in zip(params.arrays(), loaded.arrays()):
        assert np.array_equal(a, b)

    g = clean_random_graph(5, 10, 2)
    p1, _ = dists(params, g, acting_nodes(g))
    p2, _ = dists(loaded, g, acting_nodes(g))
    assert np.array_equal(p1, p2)


def test_checkpoint_checksum_detects_corruption():
    hp = Hyperparams(layers=1, hidden=4)
    text = fmt.checkpoint_text(PolicyParams.init(hp, seed=0))
    corrupted = text.replace("0.", "1.", 1)
    with pytest.raises(MigError):
        fmt.parse_checkpoint(corrupted)
    with pytest.raises(MigError):
        fmt.parse_checkpoint(text.rsplit("\n", 2)[0])  # truncated


HP_CKPT = Hyperparams(layers=2, hidden=6)


def _payload(params: PolicyParams) -> str:
    return fmt.checkpoint_text(params).rsplit("checksum ", 1)[0]


def _five_action_payload(payload: str) -> str:
    # a well-formed head of 5 actions: the first 5 head_w rows and head_b values
    body, head_b = payload.split("array head_b 1 9\n")
    body, head_w = body.split("array head_w 9 6\n")
    rows, bias = head_w.splitlines()[:5], head_b.split()[:5]
    return (
        body.replace("actions 9\n", "actions 5\n")
        + "array head_w 5 6\n" + "\n".join(rows) + "\n"
        + "array head_b 1 5\n" + " ".join(bias) + "\n"
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.replace("layers 2\n", ""),
        lambda p: p.replace("hidden 6\n", "hidden six\n"),
        lambda p: p.split("array head_b")[0],
        lambda p: re.sub(r"(array w0 \d+ \d+\n)\S+", r"\1abc", p),
        _five_action_payload,
        lambda p: re.sub(r"array b0 1 6\n[^\n]*", "array b0 1 1\n0.0", p),
        lambda p: p.replace("array b0 1 6\n", "array b0 1 6000000000000\n"),
    ],
    ids=["missing-layers", "non-integer-hidden", "missing-head_b", "non-numeric-weight",
         "five-actions", "one-value-bias", "huge-column-count"],
)
def test_checkpoint_malformed_payload_raises_mig_error(mutate):
    # each payload is re-signed, so only the payload check can reject it
    payload = _payload(PolicyParams.init(HP_CKPT, seed=0))
    bad = mutate(payload)
    assert bad != payload
    digest = hashlib.sha256(bad.encode()).hexdigest()
    with pytest.raises(MigError):
        fmt.parse_checkpoint(bad + f"checksum {digest}\n")


def _array_blocks(payload: str) -> tuple[str, list[str]]:
    """The lines before the first array, and each array's header and rows."""
    head, *blocks = re.split(r"(?m)^(?=array )", payload)
    return head, blocks


@pytest.mark.parametrize(
    "mutate",
    [
        lambda head, blocks: head + "".join(blocks) + "array extra 1 1\n0.0\n",
        lambda head, blocks: head + "".join(blocks + blocks[-1:]),
        lambda head, blocks: head + "".join([blocks[1], blocks[0], *blocks[2:]]),
    ],
    ids=["unknown-extra-array", "duplicated-array", "arrays-out-of-order"],
)
def test_checkpoint_arrays_must_come_as_written(mutate):
    payload = _payload(PolicyParams.init(HP_CKPT, seed=0))
    fmt.parse_checkpoint(_resigned(payload))  # the unmutated payload parses
    with pytest.raises(MigError):
        fmt.parse_checkpoint(_resigned(mutate(*_array_blocks(payload))))


def test_checkpoint_declaring_an_unallocatable_network_raises_mig_error():
    # 4e16 parameters: the header asks for more memory than any address
    # space holds, so the parser fails before it reads an array
    payload = _payload(PolicyParams.init(Hyperparams(layers=1, hidden=4), seed=0))
    with pytest.raises(MigError):
        fmt.parse_checkpoint(_resigned(payload.replace("hidden 4\n", f"hidden {10**15}\n")))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.replace("array w0 ", "bogus 1\narray w0 ", 1),
        lambda p: p.replace("layers 2\n", "layers 2\nlayers 2\n"),
        lambda p: p.replace("hidden 6\n", "hidden 6\nlayers 2\n"),
    ],
    ids=["unknown-key", "repeated-key", "repeated-key-apart"],
)
def test_checkpoint_header_keys_must_be_known_and_single(mutate):
    payload = _payload(PolicyParams.init(HP_CKPT, seed=0))
    bad = mutate(payload)
    assert bad != payload
    with pytest.raises(MigError, match="unknown or repeated checkpoint key"):
        fmt.parse_checkpoint(_resigned(bad))


def test_dataset_round_trip(tmp_path):
    items = [(f"g{k}", clean_random_graph(5, 8, k)) for k in range(4)]
    fmt.save_dataset(tmp_path / "ds", items, {"kind": "test", "seed": 9})
    back, meta = fmt.load_dataset(tmp_path / "ds")
    assert meta["count"] == 4 and meta["seed"] == 9
    assert [n for n, _ in back] == [n for n, _ in items]
    for (_, a), (_, b) in zip(items, back):
        assert a.simulate_truth_tables() == b.simulate_truth_tables()


@pytest.mark.parametrize(
    "manifest",
    [
        b'{"count": 0}', b'{"items": [3]}', b'["g0.mig"]', b'{"items": ["g0.mig"', b"\xff\xfe{}",
        b'{"items": ["ABS"]}', b'{"items": ["../g0.mig"]}', b'{"items": ["sub/g0.mig"]}',
        b'{"items": [".."]}', b'{"items": [""]}',
    ],
    ids=[
        "no-items", "non-string-item", "not-an-object", "not-json", "not-utf8",
        "absolute-path", "parent-path", "sub-path", "parent-dir", "empty-name",
    ],
)
def test_load_dataset_rejects_a_malformed_manifest(tmp_path, manifest):
    fmt.save_dataset(tmp_path / "ds", [("g0", clean_random_graph(3, 4, 0))], {})
    fmt.save_mig(clean_random_graph(3, 4, 1), tmp_path / "g0.mig")  # outside the dataset
    (tmp_path / "ds" / "sub").mkdir()
    fmt.save_mig(clean_random_graph(3, 4, 2), tmp_path / "ds" / "sub" / "g0.mig")
    outside = json.dumps(str(tmp_path / "g0.mig"))[1:-1].encode()
    (tmp_path / "ds" / "dataset.manifest").write_bytes(manifest.replace(b"ABS", outside))
    with pytest.raises(MigError, match="dataset.manifest"):
        fmt.load_dataset(tmp_path / "ds")


# -- robustness -----------------------------------------------------------

_BYTES = st.sampled_from(b"\n\r\t !-0123456789=(),Mnpox") | st.integers(0, 255)


def _mutate(data, text: str) -> str:
    """Replace, insert or delete one to three bytes of `text`, often at
    the start of a line, where a deleted digit leaves a blank line."""
    buf = bytearray(text.encode())
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        starts = [0] + [i + 1 for i, b in enumerate(buf) if b == ord("\n")]
        pos = data.draw(st.sampled_from(starts) | st.integers(0, len(buf)), label="pos")
        op = data.draw(st.sampled_from(("replace", "insert", "delete")), label="op")
        if op == "insert" or pos == len(buf):
            buf.insert(pos, data.draw(_BYTES, label="byte"))
        elif op == "replace":
            buf[pos] = data.draw(_BYTES, label="byte")
        else:
            del buf[pos]
    return buf.decode("latin-1")


def _resigned(payload: str) -> str:
    body = "\n".join(payload.splitlines()) + "\n"
    return body + f"checksum {hashlib.sha256(body.encode()).hexdigest()}\n"


_FUZZ_SEEDS = {
    "mig": (fmt.parse_mig, fmt.emit_mig(clean_random_graph(3, 4, 1))),
    "aiger": (fmt.parse_aiger_ascii, random_aag(3, 4, 1)),
    "checkpoint": (
        lambda text: fmt.parse_checkpoint(_resigned(text)),
        _payload(PolicyParams.init(Hyperparams(layers=1, hidden=4), seed=0)),
    ),
}


@pytest.mark.parametrize("kind", sorted(_FUZZ_SEEDS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_parsers_raise_only_parse_errors_on_mutated_input(kind, data):
    # checkpoint payloads are re-signed, so mutations reach the payload parser
    parse, seed = _FUZZ_SEEDS[kind]
    text = _mutate(data, seed)
    try:
        parse(text)
    except MigError:  # ParseError is a MigError
        pass
