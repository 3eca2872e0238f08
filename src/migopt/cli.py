"""Command-line entry point: dataset generation, training, optimization.

Exit codes: 0 success (or proven equivalence), 1 definite failure,
2 unproven-but-consistent (signature-only equivalence on wide circuits).
"""

from __future__ import annotations

import os
import sys

# A BLAS product can pick its kernel, and so its last bits, by thread
# count: pin one thread before numpy loads, so that a seeded run writes the
# same bytes whatever thread count its environment asks for. A process that
# loaded numpy already (a test session, a notebook) keeps its own setting.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from migopt import datagen, evaluate, formats, rewrite, trainer  # noqa: E402
from migopt.mig import MigError  # noqa: E402
from migopt.policy import Hyperparams, PolicyParams  # noqa: E402


def _cmd_gen(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    items = []
    for i in range(args.count):
        spec = datagen.RandomGraphSpec(
            size=args.n, pi_count=args.pi, po_count=args.po, seed=args.seed * 1_000_003 + i
        )
        items.append((f"rand{args.n}_{i:04d}", datagen.random_mig(spec)))
    formats.save_dataset(
        args.out_dir,
        items,
        {"kind": "random", "size": args.n, "pi": args.pi, "po": args.po, "seed": args.seed},
    )
    print(f"wrote {len(items)} graphs to {args.out_dir}")
    return 0


def _cmd_sop(args) -> int:
    if args.k == 3:
        items = datagen.enumerate_sop3()
    else:
        items = datagen.enumerate_sop4(args.count, args.seed)
    formats.save_dataset(
        args.out_dir,
        items,
        {"kind": f"sop{args.k}", "seed": args.seed, "sample_count": len(items)},
    )
    print(f"wrote {len(items)} graphs to {args.out_dir}")
    return 0


def _load_dataset_arg(name: str):
    if name == "sop3":
        return datagen.enumerate_sop3()
    if name == "sop4":
        return datagen.enumerate_sop4()
    items, _ = formats.load_dataset(name)
    return items


def _check_steps(steps: int):
    if steps < 0:
        raise ValueError(f"--steps must be non-negative, got {steps}")


def _cmd_train(args) -> int:
    cfg = trainer.TrainConfig(
        episodes=args.episodes,
        steps=args.steps,
        lr=args.lr,
        baseline_decay=args.baseline_decay,
        seed=args.seed,
        batch_size=args.batch_size,
        checkpoint_every=args.checkpoint_every,
    )
    cfg.validate()  # before the dataset, which can take seconds to build
    dataset = _load_dataset_arg(args.dataset)
    hp = Hyperparams(layers=args.layers, hidden=args.hidden)
    params0 = PolicyParams.init(hp, seed=args.seed)
    ckpt_path = Path(args.ckpt_out)

    def save(params, ep):
        formats.save_checkpoint(params, ckpt_path)

    params, metrics = trainer.train(dataset, params0, cfg, checkpoint_fn=save)
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            for m in metrics:
                fh.write(json.dumps(m.as_dict()) + "\n")
    rewards = [m.reward for m in metrics]
    tail = rewards[-100:] if rewards else [0]
    print(
        f"trained {len(metrics)} episodes; mean reward last {len(tail)}: "
        f"{sum(tail) / len(tail):.3f}; checkpoint: {ckpt_path}"
    )
    return 0


def _cmd_optimize(args) -> int:
    _check_steps(args.steps)
    g = formats.load_mig(args.infile)
    params = formats.load_checkpoint(args.ckpt)
    rng = None if args.mode == "greedy" else np.random.default_rng(args.seed)
    out, records = trainer.rollout(g, args.steps, trainer.policy_chooser(params, rng))
    equivalent, proven = rewrite.verify_equivalence(g, out)
    if not equivalent:
        print("refusing to write: optimized graph is not equivalent", file=sys.stderr)
        return 1
    formats.save_mig(out, args.out)
    if records:  # the step reports counted both sizes already
        before, after = records[0].report.size_before, records[-1].report.size_after
    else:
        before, after = g.size(), out.size()
    print(f"size_before {before} size_after {after}")
    return 0 if proven else 2


def _cmd_eval(args) -> int:
    _check_steps(args.steps)
    dataset = _load_dataset_arg(args.dataset)
    if args.optimizer == "policy":
        if not args.ckpt:
            print("--ckpt required for the policy optimizer", file=sys.stderr)
            return 1
        opt = evaluate.policy_optimizer(formats.load_checkpoint(args.ckpt))
    elif args.optimizer == "random":
        opt = evaluate.random_policy(args.seed)
    else:
        opt = evaluate.greedy_rules_optimizer()
    cfg = evaluate.EvalConfig(
        steps=args.steps, baseline_msr=args.baseline_msr, optimizer_id=args.optimizer
    )
    report = evaluate.evaluate(dataset, opt, cfg)
    if args.report_out:
        Path(args.report_out).write_text(report.to_jsonl())
    print(report.summary_text())
    return 0


def _cmd_verify_equiv(args) -> int:
    a = formats.load_mig(args.a)
    b = formats.load_mig(args.b)
    equivalent, proven = rewrite.verify_equivalence(a, b)
    if not equivalent:
        print("NOT equivalent")
        return 1
    if proven:
        print("equivalent (exact)")
        return 0
    print("signatures agree (inputs too wide for exact proof)")
    return 2


def _cmd_convert(args) -> int:
    g = formats.load_aiger(args.infile)
    formats.save_mig(g, args.out)
    print(f"converted: {g.pi_count} inputs, {len(g.outputs)} outputs, size {g.size()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="migopt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random-graph dataset")
    g.add_argument("--n", type=int, required=True, help="target majority-node count")
    g.add_argument("--pi", type=int, default=100)
    g.add_argument("--po", type=int, default=2)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(fn=_cmd_gen)

    s = sub.add_parser("sop", help="generate a sum-of-products dataset")
    s.add_argument("--k", type=int, choices=(3, 4), required=True)
    s.add_argument("--count", type=int, default=10000, help="sample count for k=4")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-dir", required=True)
    s.set_defaults(fn=_cmd_sop)

    t = sub.add_parser("train", help="train the rewrite policy")
    t.add_argument("--dataset", required=True, help="dataset dir, or 'sop3'/'sop4'")
    t.add_argument("--layers", type=int, default=3)
    t.add_argument("--hidden", type=int, default=16)
    t.add_argument("--steps", type=int, default=20)
    t.add_argument("--episodes", type=int, required=True)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--baseline-decay", type=float, default=0.95)
    t.add_argument("--batch-size", type=int, default=1)
    t.add_argument("--checkpoint-every", type=int, default=0)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--ckpt-out", required=True)
    t.add_argument("--metrics-out")
    t.set_defaults(fn=_cmd_train)

    o = sub.add_parser("optimize", help="optimize one MIG file with a checkpoint")
    o.add_argument("--in", dest="infile", required=True)
    o.add_argument("--ckpt", required=True)
    o.add_argument("--steps", type=int, default=50)
    o.add_argument("--mode", choices=("greedy", "sample"), default="greedy")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--out", required=True)
    o.set_defaults(fn=_cmd_optimize)

    e = sub.add_parser("eval", help="score an optimizer over a dataset")
    e.add_argument("--dataset", required=True)
    e.add_argument("--optimizer", choices=("policy", "random", "greedy"), required=True)
    e.add_argument("--ckpt")
    e.add_argument("--steps", type=int, default=50)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--baseline-msr", type=float)
    e.add_argument("--report-out")
    e.set_defaults(fn=_cmd_eval)

    v = sub.add_parser("verify-equiv", help="check two MIG files for equivalence")
    v.add_argument("--a", required=True)
    v.add_argument("--b", required=True)
    v.set_defaults(fn=_cmd_verify_equiv)

    c = sub.add_parser("convert", help="convert AIGER ASCII to MIG text")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_convert)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MigError, evaluate.EvalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
