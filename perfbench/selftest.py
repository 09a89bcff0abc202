"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py        (from the root of a checkout)

Runs every workload once, traced, at tiny sizes and requires its checks to
pass and its metric names to match BENCHMARK.json. Then it corrupts one output
at a time and requires the checks to reject each corruption, and it requires
run.py to fail, printing no result, in a directory without the program.
Exits 0 when all of this holds.
"""

import json
import os
import shutil
import subprocess
import sys

import run  # sets the thread limits before numpy is imported
import checks

TINY = {
    "episodes": 3,
    "ckpt_episodes": 2,
    "train": {"steps": 20, "warmup": 2, "eval_interval": 10, "ckpt_interval": 10,
              "batch_size": 8},
    "ckpt_train": {"steps": 4, "warmup": 1, "eval_interval": 4, "ckpt_interval": 0,
                   "batch_size": 8},
    "trials": 1,
}


def edit_json(path, change):
    with open(path) as f:
        doc = json.load(f)
    change(doc)
    with open(path, "w") as f:
        json.dump(doc, f)


def edit_csv(path, change):
    """change(rows) edits the rows (lists of strings, header first) in place."""
    import csv

    with open(path) as f:
        rows = list(csv.reader(f))
    change(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def edit_first_episode(path, change):
    with open(path) as f:
        lines = f.readlines()
    doc = json.loads(lines[0])
    change(doc)
    lines[0] = json.dumps(doc) + "\n"
    with open(path, "w") as f:
        f.writelines(lines)


def bump(rows, row, col, delta):
    rows[row][col] = repr(float(rows[row][col]) + delta)


def row_of(rows, first):
    return next(i for i, r in enumerate(rows) if r[0] == first)


def shifted(forward, world=0.0, frame_scale=1.0):
    def corrupted(ckpt, obs):
        w, r = forward(ckpt, obs)
        return w + world, r * frame_scale
    return corrupted


def scale_step(doc, factor):
    doc["steps"][0]["action"][:3] = [x * factor for x in doc["steps"][0]["action"][:3]]


# (name, expected message fragment, corruption). A corruption edits files in
# plan["work"] and may return replacements for the check's inputs.
def train_corruptions(plan):
    run_dir = plan["files"]["run_dir"]
    best = os.path.join(run_dir, "ckpt_best.json")

    def other_val(result):
        op = result["rounds"][-1]["ops"][0]
        op["out"] = op["out"].replace("best val_loss_act ", "best val_loss_act 1")

    def other_hash(result):
        result["rounds"][-1]["hashes"][best] = "0" * 64

    def bump_param(doc):
        doc["params"]["enc.b1"][0] += 1e-3

    return [
        ("scaled frame", "R^T R", lambda: {"forward": shifted(run.program_forward,
                                                              frame_scale=1 + 1e-6)}),
        ("shifted world action", "world actions",
         lambda: {"forward": shifted(run.program_forward, world=1e-6)}),
        ("best parameters changed", "validation action loss",
         lambda: edit_json(best, bump_param)),
        ("best_val changed", "printed val_loss_act",
         lambda: edit_json(best, lambda d: d["extra"].update(
             best_val=d["extra"]["best_val"] * 1.5))),
        ("untrained loss below best", "below the untrained",
         lambda: edit_csv(os.path.join(run_dir, "metrics.csv"),
                          lambda rows: rows[1].__setitem__(3, "1e-6"))),
        ("periodic checkpoint missing", "periodic checkpoint",
         lambda: os.remove(os.path.join(run_dir, "ckpt_10.json"))),
        ("val_loss_act differs between rounds", "differs between runs",
         lambda: {"result": other_val}),
        ("outputs differ between rounds", "differs between rounds",
         lambda: {"result": other_hash}),
    ]


def analyze_corruptions(plan):
    diag = plan["files"]["diag_dir"]
    data = plan["files"]["data"]

    def other_setup(hashes):
        hashes[1]["ckpt/ckpt_best.json"] = "0" * 64

    return [
        ("gating row off the simplex", "gating row",
         lambda: edit_csv(f"{diag}/usage_matrix.csv", lambda r: bump(r, 1, 2, 0.01))),
        ("timeline row off the simplex", "timeline row",
         lambda: edit_csv(f"{diag}/axis_timeline.csv", lambda r: bump(r, 1, 3, 0.01))),
        ("compatibility mean out of range", "outside",
         lambda: edit_csv(f"{diag}/compatibility.csv",
                          lambda r: r[1].__setitem__(2, "60.0"))),
        ("ground-truth compatibility shifted", "ground-truth compatibility",
         lambda: edit_csv(f"{diag}/compatibility.csv",
                          lambda r: bump(r, row_of(r, "ground_truth"), 2, 1e-6))),
        ("covariance trace shifted", "covariance trace",
         lambda: edit_csv(f"{diag}/concentration.csv", lambda r: bump(r, 1, 2, 1e-6))),
        ("scaled scene rotation", "not orthonormal",
         lambda: edit_first_episode(data, lambda d: d.__setitem__(
             "q_6d", [x * 1.001 for x in d["q_6d"]]))),
        ("step beyond max_step", "more than max_step",
         lambda: edit_first_episode(data, lambda d: scale_step(d, 100.0))),
        ("set-ups differ", "set-ups with the same seed",
         lambda: {"setup_hashes": other_setup}),
    ]


def theorem_corruptions(plan):
    report = plan["files"]["report"]

    def trial(change):
        return lambda: edit_json(report, lambda d: change(d["checks"][0]))

    return [
        ("j_star off the minimum", "j_star",
         trial(lambda c: c["minimization"].update(
             j_star=c["minimization"]["j_star"] * (1 + 1e-4)))),
        ("closed form below the minimum", "below the minimum",
         trial(lambda c: c["mc_vs_closed"].update(
             closed=c["minimization"]["j_analytic"] * 0.99))),
        ("Monte Carlo far from the closed form", "Monte Carlo",
         trial(lambda c: c["mc_vs_closed"].update(
             mc=c["mc_vs_closed"]["closed"] + 10 * c["mc_vs_closed"]["stderr"]))),
        ("trial missing", "trials",
         lambda: edit_json(report, lambda d: d["checks"].clear())),
    ]


CORRUPTIONS = {"train": train_corruptions, "analyze": analyze_corruptions,
               "theorem": theorem_corruptions}


def expect_rejected(name, fragment, plan, result, setup_hashes, replace):
    result = json.loads(json.dumps(result))
    setup_hashes = json.loads(json.dumps(setup_hashes))
    forward = run.program_forward
    if replace:
        forward = replace.get("forward", forward)
        replace.get("result", lambda r: None)(result)
        replace.get("setup_hashes", lambda h: None)(setup_hashes)
    try:
        run.check(plan, result, setup_hashes, forward)
    except checks.CheckFailed as exc:
        if fragment not in str(exc):
            raise AssertionError(f"{name}: rejected for another reason: {exc}")
        return
    raise AssertionError(f"{name}: the checks accepted it")


def check_metric_names(root):
    """BENCHMARK.json declares exactly the metrics and units run.py prints."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for key, printed in (("end_to_end", run.END_TO_END_UNITS),
                         ("per_layer", dict(run.layers.PER_LAYER))):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != printed:
            differ = sorted(set(declared.items()) ^ set(printed.items()))
            raise AssertionError(f"{key} metrics or units differ from "
                                 f"BENCHMARK.json: {differ}")
    print("ok BENCHMARK.json: metric names and units")


def selftest_workload(root, workload):
    work = run.work_dir(root, workload, 0, 1)
    pristine = work + ".pristine"
    try:
        plan, times, setup_hashes, result = run.execute(workload, 0, 0, 1, root, work,
                                                        TINY)
        facts = run.check(plan, result, setup_hashes)
        produced = ((run.per_layer(plan, result, facts), dict(run.layers.PER_LAYER)),
                    (run.end_to_end(times, result), run.END_TO_END_UNITS))
        for values, units in produced:
            if set(values) != set(units):
                raise AssertionError(f"{workload}: metrics produced differ from "
                                     f"those declared")
        shutil.copytree(work, pristine)
        for name, fragment, corrupt in CORRUPTIONS[workload](plan):
            replace = corrupt()
            expect_rejected(name, fragment, plan, result, setup_hashes, replace)
            shutil.rmtree(work)
            shutil.copytree(pristine, work)
            print(f"  {workload}: rejected {name}")
        failed_last = json.loads(json.dumps(result))
        failed_last["rounds"][-1]["ops"][-1]["rc"] = 2
        if run.check(plan, failed_last, setup_hashes) != {}:
            raise AssertionError("outputs of a failed command were checked")
        print(f"ok {workload}: {len(result['rounds'])} rounds, set-up "
              f"{max(times):.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(pristine, ignore_errors=True)


def selftest_bare_directory(root):
    """run.py must fail, printing no result, where only the benchmark exists."""
    bare = os.path.join(root, run.WORK_ROOT, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(run.HERE), "run.py"),
             "--workload", "theorem", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("run.py succeeded without the program")
        print("ok bare directory: run.py exits", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    root = os.getcwd()
    check_metric_names(root)
    for workload in run.WORKLOADS:
        selftest_workload(root, workload)
    selftest_bare_directory(root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
