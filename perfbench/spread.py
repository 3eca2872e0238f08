#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py --tag a --seeds 1-10
    python3 perfbench/spread.py --tag b --seeds 1-10 --compare a

Runs one process at a time (never in parallel, which would disturb the
timings), saves every result under .perfbench_out/spread-<tag>.json, and
prints for each workload and end-to-end metric the median and the
distance between the first and third quartile as a share of the median,
next to a third of the metric's bound. With --compare it also prints how
far each median moved from the other set and whether the fingerprints
and quality figures of equal seeds are identical.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".perfbench_out"


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workloads, seeds, seconds):
    runs = {}
    for wl in workloads:
        for seed in seeds:
            cmd = [*SPEC["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                sys.exit(f"{wl} seed {seed} failed:\n{proc.stderr}")
            detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[7:])
            res = json.loads(lines[-1])
            runs.setdefault(wl, {})[str(seed)] = {"result": res, "detail": detail}
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(runs, other=None):
    worst = 0.0
    for wl, by_seed in runs.items():
        print(f"\n{wl}")
        for m in SPEC["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in by_seed.values()]
            med, sp = statistics.median(vals), spread(vals)
            line = f"  {m['name']:16s} median {med:12.6g}  spread {sp:6.3f}  bound/3 {m['bound'] / 3:6.3f}"
            if m["name"] != "setup_s":
                worst = max(worst, sp / m["bound"])
            if other and wl in other:
                ovals = [r["result"]["metrics"][m["name"]]["value"] for r in other[wl].values()]
                omed = statistics.median(ovals)
                worse = (med - omed) / omed * (1 if m["better"] == "lower" else -1)
                line += f"  worse than other by {worse:+.3f} (bound {m['bound']})"
            print(line)
        if other and wl in other:
            same = all(
                other[wl].get(s, {}).get("detail", {}).get("fingerprint") == r["detail"]["fingerprint"]
                and other[wl][s]["detail"]["quality"] == r["detail"]["quality"]
                for s, r in by_seed.items()
            )
            print(f"  fingerprints and quality identical to the other set: {same}")
    print(f"\nlargest spread as a share of its bound (setup_s aside): {worst:.3f}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--tag", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--compare", help="tag of an earlier set to compare with")
    p.add_argument("--report-only", action="store_true", help="reprint a saved set")
    args = p.parse_args()
    path = OUT / f"spread-{args.tag}.json"
    if args.report_only:
        runs = json.loads(path.read_text())
    else:
        runs = run_set(args.workloads, args.seeds, args.seconds)
        OUT.mkdir(exist_ok=True)
        path.write_text(json.dumps(runs, indent=1))
    other = json.loads((OUT / f"spread-{args.compare}.json").read_text()) if args.compare else None
    report(runs, other)


if __name__ == "__main__":
    main()
