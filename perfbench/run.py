"""Benchmark of the mcfproto lab: closed-loop workloads of CLI commands.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

A run sets its workload up three times, each in a fresh process, then starts
one fresh client process that runs rounds of `mcfproto.cli.main` commands, one
command after the other, until --seconds have passed. It checks the outputs
and prints one JSON line: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (then every second round is traced). Every process
runs one thread, BLAS included.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
# One thread per process, BLAS included. On the 2-vCPU reference machine a
# second OpenBLAS thread made the train command 20-40% slower in each of five
# alternating pairs, and its wall time far less steady: the B=64 matmuls are
# too small to share.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)
sys.dont_write_bytecode = True

import checks  # noqa: E402  (imports numpy, after the thread limits are set)
import layers  # noqa: E402

WORKLOADS = ("train", "analyze", "theorem")
SETUP_REPS = 3
# Child processes must end by then, so that a run with its checks ends within
# 180 s even when a command hangs.
DEADLINE_S = 165
WORK_ROOT = ".perfbench_work"

# Work per command. The train command runs at the default HeadConfig and B=64
# on the default-sized dataset with eval and checkpoints every 100 steps. The
# checkpoint that analyze diagnoses only has to exist, so it is trained briefly
# on a small dataset of its own.
SIZES = {
    "episodes": 200,
    "ckpt_episodes": 10,
    "train": {"steps": 300, "warmup": 30, "eval_interval": 100,
              "ckpt_interval": 100, "batch_size": 64},
    "ckpt_train": {"steps": 40, "warmup": 4, "eval_interval": 40,
                   "ckpt_interval": 0, "batch_size": 64},
    "trials": 1,
}

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def make_plan(workload, seed, work, sizes=SIZES):
    """Commands, files and check inputs of one run; every input comes from seed."""
    s = str(seed)
    setup_dirs = [os.path.join(work, f"setup{i}") for i in range(SETUP_REPS)]
    data0 = os.path.join(setup_dirs[0], "data.jsonl")
    episodes = ["--episodes", str(sizes["episodes"])]

    def gen_data(out):
        return ["gen-data", "--out", out, "--seed", s] + episodes

    plan = {"workload": workload, "seed": seed, "work": work, "setup_dirs": setup_dirs,
            "setup_files": [], "configs": {}}
    if workload == "train":
        config = os.path.join(work, "train.json")
        run_dir = os.path.join(work, "run")
        plan["configs"][config] = {"train": sizes["train"]}
        plan["setup_reps"] = [[gen_data(os.path.join(d, "data.jsonl"))]
                              for d in setup_dirs]
        plan["setup_files"] = ["data.jsonl"]
        plan["round"] = [["train", "--data", data0, "--config", config,
                          "--out", run_dir, "--seed", s]]
        plan["hash_files"] = [os.path.join(run_dir, f) for f in
                              ("ckpt_best.json", "ckpt_final.json", "metrics.csv")]
        t = sizes["train"]
        plan["files"] = {"data": data0, "run_dir": run_dir,
                         "ckpt_steps": list(range(t["ckpt_interval"], t["steps"] + 1,
                                                  t["ckpt_interval"]))}
        plan["train_steps"] = t["steps"]
    elif workload == "analyze":
        config = os.path.join(work, "ckpt_train.json")
        plan["configs"][config] = {"train": sizes["ckpt_train"]}
        plan["setup_reps"] = [[
            ["gen-data", "--out", os.path.join(d, "ckpt_data.jsonl"), "--seed", s,
             "--episodes", str(sizes["ckpt_episodes"])],
            ["train", "--data", os.path.join(d, "ckpt_data.jsonl"), "--config", config,
             "--out", os.path.join(d, "ckpt"), "--seed", s],
        ] for d in setup_dirs]
        plan["setup_files"] = ["ckpt_data.jsonl", "ckpt/ckpt_best.json"]
        data = os.path.join(work, "round", "data.jsonl")
        diag = os.path.join(work, "diag")
        plan["round"] = [
            gen_data(data),
            ["diagnose", "--data", data, "--ckpt",
             os.path.join(setup_dirs[0], "ckpt", "ckpt_best.json"), "--out", diag],
        ]
        plan["hash_files"] = [data] + [os.path.join(diag, f) for f in (
            "report.json", "concentration.csv", "compatibility.csv",
            "usage_matrix.csv", "axis_timeline.csv")]
        plan["files"] = {"data": data, "diag_dir": diag}
    elif workload == "theorem":
        report_dir = os.path.join(work, "theorem")
        plan["setup_reps"] = [[] for _ in setup_dirs]
        plan["round"] = [["verify-theorem", "--dim", "3", "--trials",
                          str(sizes["trials"]), "--seed", s, "--out", report_dir]]
        plan["hash_files"] = [os.path.join(report_dir, "theorem_report.json")]
        plan["files"] = {"report": plan["hash_files"][0], "trials": sizes["trials"]}
    else:
        raise BenchError(f"unknown workload {workload!r}")
    return plan


def run_client(plan, mode, plan_path, deadline):
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "client.py"), plan_path, mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        timeout=max(deadline - t0, 0.1))
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"client {mode} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return wall


def set_up(plan, src, deadline):
    """Run the set-up SETUP_REPS times, each in a fresh process; returns the
    wall times and, per set-up, the hashes of its files."""
    from client import file_hash

    for path, doc in plan["configs"].items():
        with open(path, "w") as f:
            json.dump(doc, f)
    times = []
    for i, (commands, setup_dir) in enumerate(zip(plan["setup_reps"],
                                                   plan["setup_dirs"])):
        os.makedirs(setup_dir, exist_ok=True)
        rep = {"src": src, "setup": commands}
        times.append(run_client(rep, "setup",
                                os.path.join(plan["work"], f"setup{i}.json"),
                                deadline))
    return times, [{f: file_hash(os.path.join(d, f)) for f in plan["setup_files"]}
                   for d in plan["setup_dirs"]]


def program_forward(ckpt, obs):
    """The program's own forward pass on a checkpoint: (world actions, frames)."""
    from mcfproto import head

    params, config, _ = head.load_checkpoint(ckpt)
    out = head.head_forward(obs, params, config)
    return out.world_action.value, out.frames.value


def check(plan, result, setup_hashes, forward=program_forward):
    """Check a run's outputs; returns facts the metrics use (val_loss_act).

    Outputs of the last round are checked when all its commands succeeded;
    a failed command's outputs are not, as it is counted as failed instead."""
    workload, files, rounds = plan["workload"], plan["files"], result["rounds"]
    checks.require(all(h == setup_hashes[0] for h in setup_hashes),
                   "set-ups with the same seed wrote different files")
    checks.check_same_outputs(rounds)
    if not checks.ok_rounds(rounds[-1:]):
        return {}
    if workload == "train":
        return checks.check_train(files, rounds, forward)
    if workload == "analyze":
        with open(files["data"] + ".config.json") as f:
            files = dict(files, max_step=json.load(f)["gym"]["max_step"])
        return checks.check_analyze(files, rounds)
    return checks.check_theorem(files, rounds)


def median_op_s(rounds, cmd):
    times = [op["s"] for r in rounds if not r["traced"] for op in r["ops"]
             if op["argv"][0] == cmd and op["rc"] == 0]
    return statistics.median(times) if times else 0


def end_to_end(setup_times, result):
    return {
        "setup_s": statistics.median(setup_times),
        "round_s": statistics.median(r["s"] for r in result["rounds"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(plan, result, facts):
    rounds = result["rounds"]
    metrics = dict(result["layers"])
    for cmd in ("gen-data", "train", "diagnose", "verify-theorem"):
        metrics[f"cli.cmd_{cmd.replace('-', '_')}.wall_s"] = median_op_s(rounds, cmd)
    train_s = metrics["cli.cmd_train.wall_s"]
    metrics["cli.cmd_train.steps_per_s"] = (
        plan["train_steps"] / train_s if train_s and "train_steps" in plan else 0)
    metrics["trainer.train.val_loss_act"] = facts.get("val_loss_act", 0)
    traced = statistics.median(r["s"] for r in rounds if r["traced"])
    untraced = statistics.median(r["s"] for r in rounds if not r["traced"])
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return metrics


def work_dir(root, workload, seed, trace):
    name = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    return os.path.join(root, WORK_ROOT, name)


def execute(workload, seed, seconds, trace, root, work, sizes=SIZES):
    """Set the workload up in work and run the client once; returns
    (plan, set-up wall times, set-up file hashes, client result)."""
    deadline = time.perf_counter() + DEADLINE_S
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mcfproto", "cli.py")):
        raise BenchError(f"no mcfproto source tree under {root}")
    if src not in sys.path:
        sys.path.insert(0, src)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = make_plan(workload, seed, work, sizes)
    setup_times, setup_hashes = set_up(plan, src, deadline)
    plan.update(src=src, seconds=seconds, trace=trace,
                result=os.path.join(work, "result.json"))
    run_client(plan, "run", os.path.join(work, "plan.json"), deadline)
    with open(plan["result"]) as f:
        return plan, setup_times, setup_hashes, json.load(f)


def run(workload, seed, seconds, trace, root):
    """One benchmark run from the checkout at root; returns the result object."""
    work = work_dir(root, workload, seed, trace)
    try:
        plan, setup_times, setup_hashes, result = execute(
            workload, seed, seconds, trace, root, work)
        ops = [op for r in result["rounds"] for op in r["ops"]]
        failed = [op for op in ops if op["rc"] != 0]
        for op in failed:
            print(f"failed ({op['rc']}): {' '.join(op['argv'])}\n{op['out']}",
                  file=sys.stderr)
        correct = True
        try:
            facts = check(plan, result, setup_hashes)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct, facts = False, {}
        except (OSError, ValueError, LookupError, TypeError):  # malformed output
            traceback.print_exc()
            correct, facts = False, {}
        if trace:
            name = f"trace-{workload}-seed{seed}.json"
            with open(os.path.join(root, WORK_ROOT, name), "w") as f:
                json.dump({"layers": result["layers"], "spans": result["spans"]},
                          f, indent=1)
            values, units = per_layer(plan, result, facts), dict(layers.PER_LAYER)
        else:
            values, units = end_to_end(setup_times, result), END_TO_END_UNITS
        return {"correct": correct, "attempted": len(ops), "failed": len(failed),
                "metrics": {k: {"value": values[k], "unit": u}
                            for k, u in units.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, os.getcwd())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
