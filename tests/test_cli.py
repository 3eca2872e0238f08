import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from migopt import cli
from migopt import formats as fmt
from migopt import trainer
from migopt.mig import MigGraph
from migopt.policy import Hyperparams, PolicyParams

AND_AAG = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"
SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(*args):
    return cli.main([str(a) for a in args])


def test_gen_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run("gen", "--n", 12, "--pi", 8, "--po", 2, "--count", 3,
                   "--seed", 5, "--out-dir", d) == 0
    for f in sorted(p.name for p in d1.iterdir()):
        assert (d1 / f).read_text() == (d2 / f).read_text()


def test_gen_empty_dataset(tmp_path):
    d = tmp_path / "empty"
    assert run("gen", "--n", 10, "--count", 0, "--seed", 1, "--out-dir", d) == 0
    manifest = json.loads((d / "dataset.manifest").read_text())
    assert manifest["count"] == 0 and manifest["items"] == []


@pytest.mark.parametrize(
    "flag, value, message",
    [("--po", 0, "random graphs need at least 2 inputs and 1 output"),
     ("--pi", 1, "random graphs need at least 2 inputs and 1 output"),
     ("--count", -1, "--count must be non-negative")],
)
def test_gen_rejects_bad_settings(tmp_path, capsys, flag, value, message):
    d = tmp_path / "ds"
    args = {"--n": 10, "--count": 2, "--seed": 1, flag: value}
    assert run("gen", *(x for kv in args.items() for x in kv), "--out-dir", d) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not d.exists()


def test_train_zero_episodes_writes_initial_checkpoint(tmp_path):
    d = tmp_path / "ds"
    run("gen", "--n", 8, "--pi", 6, "--count", 2, "--seed", 2, "--out-dir", d)
    ckpt = tmp_path / "p.ckpt"
    assert run("train", "--dataset", d, "--layers", 2, "--hidden", 6,
               "--episodes", 0, "--seed", 9, "--ckpt-out", ckpt) == 0
    loaded = fmt.load_checkpoint(ckpt)
    fresh = PolicyParams.init(Hyperparams(layers=2, hidden=6), seed=9)
    for (_, a), (_, b) in zip(loaded.arrays(), fresh.arrays()):
        assert np.array_equal(a, b)


def test_train_metrics_deterministic(tmp_path):
    d = tmp_path / "ds"
    run("gen", "--n", 8, "--pi", 6, "--count", 2, "--seed", 3, "--out-dir", d)
    logs = []
    for tag in ("1", "2"):
        ckpt = tmp_path / f"p{tag}.ckpt"
        mfile = tmp_path / f"m{tag}.jsonl"
        assert run("train", "--dataset", d, "--layers", 2, "--hidden", 6,
                   "--steps", 3, "--episodes", 4, "--seed", 11,
                   "--ckpt-out", ckpt, "--metrics-out", mfile) == 0
        recs = [json.loads(x) for x in mfile.read_text().splitlines()]
        for r in recs:
            r.pop("wall_time")  # timing is the one nondeterministic field
        logs.append(recs)
    assert logs[0] == logs[1]
    assert (tmp_path / "p1.ckpt").read_text() == (tmp_path / "p2.ckpt").read_text()


@pytest.mark.parametrize(
    "flag, value",
    [("--lr", 0), ("--batch-size", 0), ("--episodes", -2), ("--checkpoint-every", -1),
     ("--steps", 0)],
)
def test_train_rejects_bad_settings(tmp_path, capsys, flag, value):
    d = tmp_path / "ds"
    run("gen", "--n", 8, "--pi", 6, "--count", 1, "--seed", 2, "--out-dir", d)
    args = {"--episodes": 1, flag: value}
    ckpt = tmp_path / "p.ckpt"
    argv = ["train", "--dataset", d, "--seed", 0, "--ckpt-out", ckpt]
    assert run(*argv, *(x for kv in args.items() for x in kv)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["optimize", "eval"])
def test_negative_steps_rejected(tmp_path, capsys, command):
    d = tmp_path / "ds"
    run("gen", "--n", 8, "--pi", 6, "--count", 1, "--seed", 2, "--out-dir", d)
    out = tmp_path / "out"
    if command == "optimize":
        ckpt = tmp_path / "p.ckpt"
        fmt.save_checkpoint(PolicyParams.init(Hyperparams(layers=2, hidden=6)), ckpt)
        argv = ["optimize", "--in", next(d.glob("*.mig")), "--ckpt", ckpt, "--out", out]
    else:
        argv = ["eval", "--dataset", d, "--optimizer", "random", "--report-out", out]
    capsys.readouterr()
    assert run(*argv, "--steps", -3) == 1
    assert capsys.readouterr().err.startswith("error: --steps must be non-negative")
    assert not out.exists()


def test_optimize_roundtrip(tmp_path):
    d = tmp_path / "ds"
    run("gen", "--n", 10, "--pi", 8, "--count", 1, "--seed", 4, "--out-dir", d)
    src = next(d.glob("*.mig"))
    ckpt = tmp_path / "p.ckpt"
    run("train", "--dataset", d, "--layers", 2, "--hidden", 6,
        "--episodes", 0, "--seed", 0, "--ckpt-out", ckpt)
    out = tmp_path / "opt.mig"
    code = run("optimize", "--in", src, "--ckpt", ckpt, "--steps", 3, "--out", out)
    assert code == 0
    assert run("verify-equiv", "--a", src, "--b", out) == 0


def test_optimize_prints_the_sizes_its_step_reports_counted(tmp_path, capsys, monkeypatch):
    d = tmp_path / "ds"
    run("gen", "--n", 12, "--pi", 8, "--count", 1, "--seed", 3, "--out-dir", d)
    src = next(d.glob("*.mig"))
    ckpt = tmp_path / "p.ckpt"
    fmt.save_checkpoint(PolicyParams.init(Hyperparams(layers=2, hidden=6), seed=1), ckpt)
    walks = []
    walk = MigGraph.reachable_nodes

    def counted(self):
        walks.append(self)
        return walk(self)

    for steps in (0, 3):
        out = tmp_path / f"opt{steps}.mig"
        walks.clear()
        capsys.readouterr()
        monkeypatch.setattr(MigGraph, "reachable_nodes", counted)
        assert run("optimize", "--in", src, "--ckpt", ckpt, "--steps", steps, "--out", out) == 0
        monkeypatch.undo()
        # no step report to read without a step: the start graph is walked,
        # and the rolled-out copy's cleanup state shows all of its gates live
        assert len(walks) == (0 if steps else 1)
        before, after = fmt.load_mig(src).size(), fmt.load_mig(out).size()
        assert capsys.readouterr().out == f"size_before {before} size_after {after}\n"


def test_optimize_sample_mode(tmp_path):
    d = tmp_path / "ds"
    run("gen", "--n", 10, "--pi", 8, "--count", 1, "--seed", 6, "--out-dir", d)
    src = next(d.glob("*.mig"))
    ckpt = tmp_path / "p.ckpt"
    run("train", "--dataset", d, "--layers", 2, "--hidden", 6,
        "--episodes", 0, "--seed", 0, "--ckpt-out", ckpt)
    out = tmp_path / "opt.mig"
    assert run("optimize", "--in", src, "--ckpt", ckpt, "--steps", 3,
               "--mode", "sample", "--seed", 1, "--out", out) == 0
    assert run("verify-equiv", "--a", src, "--b", out) == 0


def test_optimize_refuses_broken_rewrites(tmp_path, monkeypatch):
    d = tmp_path / "ds"
    run("gen", "--n", 10, "--pi", 8, "--count", 1, "--seed", 7, "--out-dir", d)
    src = next(d.glob("*.mig"))
    ckpt = tmp_path / "p.ckpt"
    run("train", "--dataset", d, "--layers", 2, "--hidden", 6,
        "--episodes", 0, "--seed", 0, "--ckpt-out", ckpt)

    def sabotage(g, steps, choose):
        out = g.clone()
        out.outputs = [out.outputs[0] ^ 1] + out.outputs[1:]
        return out, []

    monkeypatch.setattr(trainer, "rollout", sabotage)
    monkeypatch.setattr(cli.trainer, "rollout", sabotage)
    out = tmp_path / "opt.mig"
    assert run("optimize", "--in", src, "--ckpt", ckpt, "--steps", 2, "--out", out) == 1
    assert not out.exists()


def test_verify_equiv_exit_codes(tmp_path):
    a = tmp_path / "a.mig"
    b = tmp_path / "b.mig"
    a.write_text("mig 2 1 1\nn1 = M(x1,x2,0)\npo0 = n1\n")
    b.write_text("mig 2 1 1\nn1 = M(x1,x2,!0)\npo0 = n1\n")
    assert run("verify-equiv", "--a", a, "--b", a) == 0
    assert run("verify-equiv", "--a", a, "--b", b) == 1

    # too wide for exact proof: signature agreement exits 2
    wide = tmp_path / "wide.mig"
    lines = ["mig 20 1 1", "n1 = M(x1,x2,x3)", "po0 = n1"]
    wide.write_text("\n".join(lines) + "\n")
    assert run("verify-equiv", "--a", wide, "--b", wide) == 2


def test_convert_fixture(tmp_path):
    src = tmp_path / "and.aag"
    src.write_text(AND_AAG)
    out = tmp_path / "and.mig"
    assert run("convert", "--in", src, "--out", out) == 0
    g = fmt.load_mig(out)
    assert g.size() == 1
    assert g.simulate_truth_tables() == [0b1000]


def test_convert_output_reads_back_or_convert_fails(tmp_path, capsys):
    # a circuit without outputs has no .mig form, so it is refused up front
    src = tmp_path / "none.aag"
    src.write_text("aag 2 2 0 0 0\n2\n4\n")
    assert run("convert", "--in", src, "--out", tmp_path / "none.mig") == 1
    assert capsys.readouterr().err.startswith("error: line 1:")
    assert not (tmp_path / "none.mig").exists()


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.mig"
    bad.write_text("mig x\n")
    assert run("verify-equiv", "--a", bad, "--b", bad) == 1


def test_sop_command(tmp_path):
    d = tmp_path / "sop"
    assert run("sop", "--k", 3, "--out-dir", d) == 0
    manifest = json.loads((d / "dataset.manifest").read_text())
    assert manifest["count"] == 256


def test_eval_command(tmp_path):
    d = tmp_path / "ds"
    run("gen", "--n", 8, "--pi", 6, "--count", 2, "--seed", 8, "--out-dir", d)
    report = tmp_path / "rep.jsonl"
    assert run("eval", "--dataset", d, "--optimizer", "greedy", "--steps", 3,
               "--report-out", report) == 0
    lines = report.read_text().strip().splitlines()
    assert len(lines) == 3  # 2 items + summary


def test_eval_reports_a_malformed_manifest(tmp_path, capsys):
    d = tmp_path / "ds"
    run("gen", "--n", 8, "--pi", 6, "--count", 1, "--seed", 8, "--out-dir", d)
    (d / "dataset.manifest").write_text('{"count": 1}\n')
    assert run("eval", "--dataset", d, "--optimizer", "greedy", "--steps", 1) == 1
    assert "error: dataset.manifest" in capsys.readouterr().err


def run_in_subprocess(args, threads, cwd):
    """`python -m migopt.cli *args` in a fresh interpreter with `threads`
    BLAS threads in its environment."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **dict.fromkeys(BLAS_VARS, str(threads)))
    cmd = [sys.executable, "-m", "migopt.cli", *map(str, args)]
    return subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, check=True)


def test_train_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path):
    run_in_subprocess(["gen", "--n", 50, "--count", 4, "--seed", 1, "--out-dir", "ds"], 1, tmp_path)
    for threads in (1, 2):
        run_in_subprocess(["train", "--dataset", "ds", "--episodes", 8, "--seed", 0,
                           "--ckpt-out", f"t{threads}.ckpt"], threads, tmp_path)
    assert (tmp_path / "t1.ckpt").read_bytes() == (tmp_path / "t2.ckpt").read_bytes()


@pytest.mark.parametrize("numpy_first, want", [(False, "1"), (True, "2")])
def test_cli_pins_blas_threads_only_before_numpy_loads(tmp_path, numpy_first, want):
    code = "import numpy; " * numpy_first + "import os, migopt.cli; print(os.environ[%r])"
    env = dict(os.environ, PYTHONPATH=str(SRC), **dict.fromkeys(BLAS_VARS, "2"))
    for var in BLAS_VARS:
        out = subprocess.run([sys.executable, "-c", code % var], env=env, cwd=tmp_path,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == want
