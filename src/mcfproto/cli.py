"""Command-line entry point.

Subcommands: gen-data, train, ablate, diagnose, verify-theorem. Every
command writes its fully resolved config (JSON) next to its outputs, and
rerunning from that file reproduces numeric outputs bitwise.

Exit codes: 0 success, 1 validation failure, 2 runtime/numerical failure.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from . import diagnostics, store, synthgym, theoremlab, trainer
from .config import (BOUNDS, HeadConfig, TrainConfig, config_error, default_config,
                     load_config)
from .head import load_checkpoint

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

DEFAULT_OUT_ROOT_ENV = "MCFPROTO_OUT"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args):
    cfg = load_config(args.config, {"gym.episodes_per_task": args.episodes,
                                    "gym.noise_scale": args.noise,
                                    "gym.seed": args.seed})
    templates = synthgym.default_templates(max_step=cfg["gym"]["max_step"])
    dataset = synthgym.generate(templates, **cfg["gym"])
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    synthgym.save_jsonl(dataset, args.out)
    store.write_json(args.out + ".config.json", cfg)
    print(f"wrote {len(dataset.episodes)} episodes to {args.out}")
    return EXIT_OK


def _set_up(args, overrides=None):
    """Load the config, the dataset and the head config (from --ckpt if given,
    else from the config), check the obs width, then write config.resolved.json,
    with the head that runs, into the out dir. Returns (cfg, dataset, hc,
    checkpoint params or None)."""
    cfg = load_config(args.config, overrides)
    dataset = synthgym.load_jsonl(args.data)
    if vars(args).get("ckpt") is None:
        params, hc, source = None, HeadConfig(**cfg["head"]), "head.obs_dim"
    else:
        params, hc, _ = load_checkpoint(args.ckpt)
        cfg["head"], source = asdict(hc), "checkpoint obs_dim"
    if dataset.obs_dim != hc.obs_dim:
        raise ValueError(f"dataset obs dim {dataset.obs_dim} != {source} {hc.obs_dim}")
    os.makedirs(args.out, exist_ok=True)
    store.write_json(os.path.join(args.out, "config.resolved.json"), cfg)
    return cfg, dataset, hc, params


def cmd_train(args):
    cfg, dataset, hc, _ = _set_up(args, {"train.seed": args.seed})
    _, _, (best_val, best_step) = trainer.train(
        dataset, hc, TrainConfig(**cfg["train"]), out_dir=args.out, resume=args.resume)
    print(f"best val_loss_act {best_val!r} at step {best_step}")
    return EXIT_OK


def _check_seed(flag, seed):
    """Raise ValueError unless `seed` lies in train.seed's interval."""
    if config_error("train.seed", 0, seed):
        raise ValueError(f"{flag} must be in {BOUNDS['train.seed']}, got {seed}")


def cmd_ablate(args):
    for seed in args.seeds:
        _check_seed("--seeds", seed)
    cfg, dataset, hc, _ = _set_up(args)
    results = trainer.ablation_suite(dataset, hc, TrainConfig(**cfg["train"]),
                                     seeds=args.seeds,
                                     out_path=os.path.join(args.out, "ablation.csv"))
    failed = [r["row"] for r in results if r["mean"] is None]
    for r in results:
        mean = "failed" if r["mean"] is None else f"{r['mean']:.6f}"
        print(f"{r['row']:>18s}  val_loss_act {mean}")
    if failed:
        print(f"error: rows failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_diagnose(args):
    cfg, dataset, hc, params = _set_up(args)
    write_diagnose(args.out, diagnostics.diagnose(dataset, params, hc,
                                                  cfg["diagnostics"]))
    print(f"diagnostics written to {args.out}")
    return EXIT_OK


def cmd_verify_theorem(args):
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    _check_seed("--seed", args.seed)
    result = theoremlab.verify(dim=args.dim, trials=args.trials, seed=args.seed)
    for c in result["checks"]:
        print(
            f"trial {c['trial']:3d}  "
            f"mc {'pass' if c['mc_vs_closed']['pass'] else 'FAIL'}  "
            f"min {'pass' if c['minimization']['pass'] else 'FAIL'} "
            f"(angle {c['minimization']['max_angle_deg']:.4f} deg)  "
            f"majorization {'pass' if c['majorization']['pass'] else 'FAIL'}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        store.write_json(os.path.join(args.out, "theorem_report.json"), result)
    print("overall:", "pass" if result["pass"] else "FAIL")
    return EXIT_OK if result["pass"] else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

def write_diagnose(out_dir, report):
    """Write `report`, a diagnostics.diagnose result, into `out_dir`: its four
    CSVs and report.json."""
    def path(name):
        return os.path.join(out_dir, name)

    metrics = diagnostics.CONCENTRATION_METRICS
    rows = []
    for frame, stats in report["concentration"].items():
        rows += [[frame, task] + [vals[m] for m in metrics]
                 for task, vals in stats["per_task"].items()]
        rows += [[frame, f"__{s}__"] + [stats["summary"][m][s] for m in metrics]
                 for s in ("mean", "std")]
    store.write_csv(path("concentration.csv"), ["frame", "task", *metrics], rows)
    store.write_csv(path("compatibility.csv"),
                    ["frames", "task", "mean_deg", "std_deg", "n_steps"],
                    [[name, task, v["mean_deg"], v["std_deg"], v["n_steps"]]
                     for name in ("learned", "ground_truth")
                     for task, v in report["compatibility"][name]["per_task"].items()])
    usage = report["usage_matrix"]
    # one column per prototype of the larger dictionary; the smaller one's
    # rows end in empty cells
    k = max(usage["trans"].shape[1], usage["rot"].shape[1])
    store.write_csv(path("usage_matrix.csv"),
                    ["dictionary", "task"] + [f"proto_{i}" for i in range(k)],
                    [[kind, task, *row] + [None] * (k - len(row))
                     for kind in ("trans", "rot")
                     for task, row in zip(usage["tasks"], usage[kind])])
    store.write_csv(path("axis_timeline.csv"), ["task", "block", "bin", "x", "y", "z"],
                    [[task, block, b, *row]
                     for task, timeline in report["axis_timelines"].items()
                     for block in ("trans", "rot")
                     for b, row in enumerate(timeline[block])])
    store.write_json(path("report.json"), {"schema_version": 2, **report})


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _seed_list(text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


@functools.cache
def build_parser():
    """The parser, built once per process. Each command runs the module's
    cmd_<command> function, looked up when it runs (see main)."""
    parser = argparse.ArgumentParser(
        prog="mcfproto",
        description="Motion-centric prototype action head laboratory",
    )
    parser.add_argument("--print-config", action="store_true",
                        help="print the fully resolved default config and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset (JSONL)")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--episodes", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="train the action head")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--resume")

    p = sub.add_parser("ablate", help="run the six-row ablation suite")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=_seed_list, default="0,1,2")

    p = sub.add_parser("diagnose", help="run diagnostics on a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify-theorem",
                       help="verify the eigenframe-optimality proposition")
    p.add_argument("--dim", type=int, default=3, choices=range(2, 7))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    return parser


def resolve_out(path):
    root = os.environ.get(DEFAULT_OUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return EXIT_VALIDATION if exc.code else EXIT_OK
    if args.print_config:
        print(json.dumps(default_config(), indent=2))
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_VALIDATION
    if getattr(args, "out", None):
        args.out = resolve_out(args.out)
    try:
        # by name, not a function stored in the cached parser, so that a
        # function replaced on this module (a test's patch, a tracer) runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, RuntimeError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        inputs = {vars(args).get(k) for k in ("data", "config", "ckpt", "resume")}
        invalid = isinstance(exc, ValueError) or (  # or an unreadable input file
            getattr(exc, "filename", None) in inputs - {None})
        return EXIT_VALIDATION if invalid else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
