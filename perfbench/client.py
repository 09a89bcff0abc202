"""Client process of one benchmark run.

    python3 perfbench/client.py PLAN.json setup
    python3 perfbench/client.py PLAN.json run

`setup` runs the plan's set-up commands once and exits. `run` runs the plan's
round of `mcfproto.cli.main` commands again and again, each command after the
previous one has returned, until the plan's seconds have passed (at least two
rounds), and writes per-command wall times, output hashes and the process's
peak RSS to the plan's result file. With trace on, every second round runs
under the layer tracer.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

MIN_ROUNDS = 2


def load_cli(src):
    """Import mcfproto from the checkout's source tree, and from nowhere else."""
    sys.path.insert(0, src)
    import mcfproto
    import mcfproto.cli

    if not os.path.abspath(mcfproto.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"mcfproto was imported from {mcfproto.__file__}, "
                         f"not from {src}")
    return mcfproto


def run_command(cli, argv):
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation; keep the client running
        rc = None
        out.write(traceback.format_exc())
    return {"argv": argv, "rc": rc,
            "s": time.perf_counter() - t0, "out": out.getvalue()[-4000:]}


def file_hash(path):
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_rounds(package, plan):
    tracer = None
    if plan["trace"]:
        from layers import Tracer

        tracer = Tracer(package)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < plan["seconds"]:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            ops = [run_command(package.cli, argv) for argv in plan["round"]]
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - t0
        rounds.append({"traced": traced, "s": wall, "ops": ops,
                       "hashes": {p: file_hash(p) for p in plan["hash_files"]}})
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": {},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(sum(r["traced"] for r in rounds))
        result["spans"] = tracer.stats
    return result


def main(plan_path, mode):
    with open(plan_path) as f:
        plan = json.load(f)
    package = load_cli(plan["src"])
    if mode == "setup":
        for argv in plan["setup"]:
            op = run_command(package.cli, argv)
            if op["rc"] != 0:
                print(f"set-up command failed: {' '.join(argv)}\n{op['out']}",
                      file=sys.stderr)
                return 1
        return 0
    result = run_rounds(package, plan)
    with open(plan["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[2] not in ("setup", "run"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
