#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it runs a tiny configuration untraced and traced and
checks that the last line holds every metric BENCHMARK.json names, with
its unit, and that the workload's named metrics are printed. It checks
that two runs of one seed give the same fingerprint, that a corrupted
output (the polarity of one output flipped in the emitted text, or one
episode's reported size changed) makes `failed` non-zero, and that the
benchmark refuses to run in a directory that holds no program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "train-rand50": ["episodes_per_s", "reward_mean", "fail_ratio"],
    "optimize-rand500": ["circuits_per_s", "step_s_p50", "msr.policy", "fail_ratio"],
    "eval-sop3": ["circuits_per_s", "msr.random", "msr.rules", "fail_ratio"],
}
failures = []
passed = []


def run(workload, *extra, cwd=ROOT, seed=3):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def expect(cond, what):
    (passed if cond else failures).append(what)
    if not cond:
        print("FAIL " + what)


def result_of(workload, lines):
    res = json.loads(lines[-1])
    expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{workload}: result keys")
    return res


def detail_of(lines):
    return json.loads(next(ln for ln in lines if ln.startswith("detail "))[len("detail "):])


def has_metrics(workload, res, specs, label):
    for m in specs:
        got = res["metrics"].get(m["name"])
        expect(
            got is not None and got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
            f"{workload} {label}: {m['name']} in {m['unit']}",
        )


def main() -> int:
    for wl in SPEC["workloads"]:
        name = wl["name"]
        code, lines = run(name, "--tiny", "--trace", "0")
        expect(code == 0, f"{name}: untraced run exits 0")
        res = result_of(name, lines)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{name}: outputs correct")
        has_metrics(name, res, SPEC["end_to_end"], "end-to-end")
        named = detail_of(lines)["workload_metrics"]
        for metric in NAMED[name]:
            expect(metric in named and named[metric]["unit"], f"{name}: prints {metric} with its unit")
        first = detail_of(lines)["fingerprint"]

        code, lines = run(name, "--tiny", "--trace", "0")
        expect(detail_of(lines)["fingerprint"] == first, f"{name}: same seed, same fingerprint")

        code, lines = run(name, "--tiny", "--trace", "1")
        expect(code == 0, f"{name}: traced run exits 0")
        res = result_of(name, lines)
        expect(res["correct"], f"{name}: traced outputs correct")
        has_metrics(name, res, SPEC["per_layer"], "per-layer")

        code, lines = run(name, "--tiny", "--trace", "0", "--corrupt")
        res = result_of(name, lines)
        expect(res["failed"] > 0 and not res["correct"], f"{name}: a corrupted output is caught")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run("eval-sop3", "--trace", "0", cwd=bare)
    last = lines[-1] if lines else ""
    expect(code != 0 and not last.startswith("{"), "refuses to run without the program")
    shutil.rmtree(bare)

    print(f"selftest: {len(passed)} checks passed, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
