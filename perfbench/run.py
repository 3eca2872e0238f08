#!/usr/bin/env python3
"""migopt benchmark: one workload per process, single thread, closed loop.

    python3 perfbench/run.py --workload train-rand50 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the run sets up several times in fresh interpreters
(median = `setup_s`), then runs the workload's operations back to back
for at least `--seconds` of busy time and reports end-to-end metrics,
with timings scaled to a reference host speed (hostprobe.py).
With `--trace 1` it runs the workload's first operations twice, untraced
and then with every layer boundary wrapped, and reports per-layer
metrics. Every output is checked independently of the program. The last
line of standard output is one JSON object; the lines before it repeat
the metrics for people.
"""

import os

# One BLAS thread: OpenBLAS would otherwise start one thread per core for
# the policy's matrix products, and the benchmark measures one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 7


def _import_program():
    """Put the checkout's `src/` first on the path; refuse any other migopt."""
    pkg = SRC / "migopt"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {pkg}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import migopt

    if Path(migopt.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported migopt from {migopt.__file__}, not {pkg}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("train-rand50", "optimize-rand500", "eval-sop3"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by selftest.py: a small configuration, and a corrupted first output
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    # one cold set-up in a fresh interpreter; inputs arrive as JSON on stdin
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _percentile(samples, pct):
    return float(np.percentile(samples, pct))


def _run_ops(wl, state, min_ops, seconds=0.0, between=None):
    """Closed loop until both counts are met: [(raw result or exception, busy s)].

    `between`, if given, runs before every operation, outside its time."""
    done, busy = [], 0.0
    while len(done) < min_ops or busy < seconds:
        if between:
            between()
        t0 = perf_counter()
        try:
            raw = wl.run_op(state, len(done))
        except Exception as exc:  # a failed operation is counted, not fatal
            raw = exc
        dt = perf_counter() - t0
        done.append((raw, dt))
        busy += dt
    return done


def _latency_samples(wl, results):
    """The run's latency samples. Where every operation does the same work
    item by item (`wl.repeats`), a sample is one item's median over the
    operations: a burst from another tenant of the machine then moves one
    pass of an item, not the tail of the run."""
    per_op = [r.latencies for r in results if r.latencies]
    if getattr(wl, "repeats", False):
        samples = [statistics.median(item) for item in zip(*per_op)]
    else:
        samples = [x for lat in per_op for x in lat]
    return samples or [0.0]


def _items_per_s(wl, results):
    """Items per busy second, the median over operations. Where every
    operation repeats the same work, one pass is rebuilt from each item's
    median time plus the median time the operations spent outside their
    items, for the same reason as in `_latency_samples`."""
    ok = [r for r in results if r.latencies]
    if not (getattr(wl, "repeats", False) and ok):
        return statistics.median(r.items / r.seconds for r in results)
    items = [statistics.median(item) for item in zip(*(r.latencies for r in ok))]
    rest = statistics.median(r.seconds - sum(r.latencies) for r in ok)
    return len(items) / (sum(items) + rest)


def _finish_and_check(wl, state, done, corrupt):
    """OpResults for the raw results, with every output checked."""
    from workloads import OpResult

    wl.prepare(state)
    results = []
    for i, (raw, dt) in enumerate(done):
        if isinstance(raw, Exception):
            res = OpResult(items=wl.items_per_op(state), latencies=[], record={"error": repr(raw)})
            res.failed = res.items
            res.notes.append(f"operation {i} raised {raw!r}")
        else:
            res = wl.finish(state, raw)
            try:
                wl.check(state, res, corrupt and i == 0)
            except Exception as exc:  # a malformed output is a failed check
                res.failed = res.items
                res.notes.append(f"operation {i}: check raised {exc!r}")
        res.seconds = dt
        results.append(res)
    return results


def _prefix_summary(wl, results, min_ops):
    from workloads import fingerprint

    prefix = [r for r in results[:min_ops] if "error" not in r.record]
    records = [r.record for r in prefix]
    quality = wl.quality(records) if records else {}
    return quality, fingerprint(records)


class _SetupTimer:
    """Cold set-ups in fresh interpreters, each timing itself. They run
    between operations, so their median spans the run, not one moment."""

    def __init__(self, args, inputs):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            self.cmd.append("--tiny")
        self.payload = json.dumps(inputs).encode()
        self.times: list[float] = []

    def __call__(self):
        out = subprocess.run(self.cmd, input=self.payload, capture_output=True, check=True, cwd=ROOT)
        self.times.append(float(out.stdout))


def _named_metrics(name, quality, items_per_s, lat, tail_pct):
    """The workload's metrics under the names the design notes use."""
    if name == "train-rand50":
        return {"episodes_per_s": (items_per_s, "1/s"), "reward_mean": (quality.get("reward_mean", 0.0), "gates")}
    out = {"circuits_per_s": (items_per_s, "1/s")}
    if name == "optimize-rand500":
        out["step_s_p50"] = (_percentile(lat, 50), "s")
        out[f"step_s_p{tail_pct}"] = (_percentile(lat, tail_pct), "s")
        out["msr.policy"] = (quality.get("msr.policy", 0.0), "gates")
    else:
        out["msr.random"] = (quality.get("msr.random", 0.0), "gates")
        out["msr.rules"] = (quality.get("msr.rules", 0.0), "gates")
    return out


def timed_run(wl, args, inputs):
    from hostprobe import HostProbe

    c = wl.cfg
    probe = HostProbe()
    setup = _SetupTimer(args, inputs)

    def between():
        probe()
        if len(setup.times) < SETUP_RUNS:
            setup()

    state = wl.setup(inputs)
    done = _run_ops(wl, state, c["min_ops"], args.seconds, between)
    while len(setup.times) < SETUP_RUNS:
        between()
    results = _finish_and_check(wl, state, done, args.corrupt)
    quality, fp = _prefix_summary(wl, results, c["min_ops"])

    items = sum(r.items for r in results)
    failed = sum(r.failed for r in results)
    busy = sum(r.seconds for r in results)
    lat = _latency_samples(wl, results)
    tail_pct = c["tail"] or 50
    tail = _percentile(lat, tail_pct)
    # median over operations: one operation slowed by another tenant of the
    # machine moves it less than it moves the total
    items_per_s = _items_per_s(wl, results)
    speed = probe.speed()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup.times), "s"),
        "items_per_s": (items_per_s * speed, "1/s"),
        "latency_ms_p50": (_percentile(lat, 50) * 1e3 / speed, "ms"),
        "latency_ms_tail": (tail * 1e3 / speed, "ms"),
        "size_ratio": (quality.get("size_ratio", 0.0), "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    named = _named_metrics(wl.name, quality, items_per_s, lat, tail_pct)
    named["fail_ratio"] = (failed / items, "ratio")
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "busy_s": busy,
        "operations": len(results),
        "fingerprint": fp,
        "quality": quality,
        "setup_runs_s": setup.times,
        "latency_samples": len(lat),
        "tail_percentile": tail_pct,
        "samples_beyond_tail": sum(1 for x in lat if x > tail),
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "host_speed": speed,
        "host_probe_samples": len(probe.samples),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": len(os.listdir("/proc/self/task")),
        "notes": [n for r in results for n in r.notes],
    }
    return metrics, named, detail, items, failed


def traced_run(wl, args, inputs):
    from spans import Tracer, layer_metrics

    n = wl.cfg["min_ops"]
    passes = []
    for traced in (False, True):
        t0 = perf_counter()
        with Tracer() if traced else nullcontext() as tracer:
            state = wl.setup(inputs)
            done = _run_ops(wl, state, n)
        wall = perf_counter() - t0
        results = _finish_and_check(wl, state, done, args.corrupt)
        passes.append((wall, results, _prefix_summary(wl, results, n)[1], tracer))
    (wall_u, res_u, fp_u, _), (wall_t, res_t, fp_t, tracer) = passes
    items = sum(r.items for r in res_u + res_t)
    failed = sum(r.failed for r in res_u + res_t)
    notes = [x for r in res_u + res_t for x in r.notes]
    if fp_u != fp_t:
        failed = items
        notes.append("the traced pass gave different outputs from the untraced pass")
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl.gz")
    metrics = layer_metrics(tracer, wall_t, wall_u)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "operations_per_pass": n,
        "untraced_wall_s": wall_u,
        "traced_wall_s": wall_t,
        "fingerprint": fp_t,
        "missing_targets": tracer.missing,
        "notes": notes,
    }
    return metrics, {"fail_ratio": (failed / items, "ratio")}, detail, items, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    payload = json.loads(sys.stdin.read() or "{}") if args.setup_child else None
    # a set-up child times importing migopt and making the inputs; the
    # interpreter's start and numpy's import (run.py's own) come before
    t0 = perf_counter()
    _import_program()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    wl = cls(cls.tiny if args.tiny else cls.full, args.seed)
    if args.setup_child:
        wl.setup(payload)
        print(perf_counter() - t0)
        return 0
    inputs = wl.make_inputs()
    run = traced_run if args.trace else timed_run
    metrics, named, detail, attempted, failed = run(wl, args, inputs)

    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
