"""Per-layer tracing of mcfproto from outside the program.

The tracer replaces public functions of the `mcfproto.*` modules with timing
wrappers while it is installed, and puts the originals back when it is
removed. Each wrapped call is a span; its self time is its duration minus the
time of the wrapped calls made inside it. Tape primitives are also timed in
backward, by wrapping the `backward_fn` of every node they return, so the self
time of `autodiff.backward` is the tape's bookkeeping. Aggregates stay in
memory; nothing is written while the program runs.
"""

import os
import time

_clock = time.perf_counter

# Tape primitives timed on their own; the two losses share a bucket, and every
# other primitive goes to "other".
NAMED_PRIMITIVES = ("compose_protos", "apply_frame", "gram_schmidt_6d",
                    "linear", "softmax", "tanh")
LOSS_PRIMITIVES = ("l1_loss", "smooth_l1_loss")
OTHER_PRIMITIVES = ("add", "sub", "mul", "affine", "matmul", "transpose",
                    "reshape", "concat_last", "slice_axis", "take_last", "sqrt",
                    "clamp", "arr_sum", "arr_mean", "sum_last2", "diagonal",
                    "scatter_last", "constant")
AUTODIFF_BUCKETS = NAMED_PRIMITIVES + ("losses", "other")

# Functions traced as plain spans, by module.
SPAN_FUNCTIONS = {
    "head": ("head_forward", "loss_total", "save_checkpoint", "load_checkpoint"),
    "trainer": ("train", "eval_loss_act", "build_chunks"),
    "synthgym": ("generate", "save_jsonl", "load_jsonl",
                 "world_vs_canonical_stats"),
    "so3": ("random_rotation", "decode_6d"),
    "diagnostics": ("predict_step_outputs", "usage_matrix", "concentration",
                    "compatibility", "random_min_angle_mc", "axis_timeline"),
    "kernels": ("pairwise_mean_distance",),
    "linalg": ("sym_eigen",),
    "cli": ("cmd_diagnose",),
    "theoremlab": ("minimize_over_so", "j_monte_carlo", "majorization_check",
                   "alignment_report"),
}

# Spans that also record the size of the file they write, from their arguments.
OUTPUT_FILE = {
    "head.save_checkpoint": lambda args: args[0],
    "synthgym.save_jsonl": lambda args: args[1],
    "cli.cmd_diagnose": lambda args: os.path.join(args[0].out, "report.json"),
}

_CALLS, _TOTAL, _SELF, _BYTES = range(4)
_FIELDS = {"calls": _CALLS, "total_s": _TOTAL, "self_s": _SELF}


def _autodiff_metrics():
    rows = []
    for bucket in AUTODIFF_BUCKETS:
        key = f"autodiff.{bucket}"
        rows += [(f"{key}.fwd_s", key, "self_s", "s"),
                 (f"{key}.bwd_s", key + ".bwd", "self_s", "s"),
                 (f"{key}.calls", key, "calls", "count")]
    return rows + [
        ("autodiff.backward.bookkeeping_s", "autodiff.backward", "self_s", "s"),
        ("autodiff.backward.calls", "autodiff.backward", "calls", "count"),
    ]


# (metric, span key, quantity, unit); quantities are per traced round, except
# bytes, which are per call.
SPAN_METRICS = _autodiff_metrics() + [
    ("head.head_forward.self_s", "head.head_forward", "self_s", "s"),
    ("head.loss_total.self_s", "head.loss_total", "self_s", "s"),
    ("head.save_checkpoint.time_s", "head.save_checkpoint", "total_s", "s"),
    ("head.save_checkpoint.bytes", "head.save_checkpoint", "bytes", "B"),
    ("head.load_checkpoint.time_s", "head.load_checkpoint", "total_s", "s"),
    ("trainer.AdamW.step.time_s", "trainer.AdamW.step", "total_s", "s"),
    ("trainer.eval_loss_act.time_s", "trainer.eval_loss_act", "total_s", "s"),
    ("trainer.build_chunks.time_s", "trainer.build_chunks", "total_s", "s"),
    ("trainer.train.self_s", "trainer.train", "self_s", "s"),
    ("synthgym.generate.self_s", "synthgym.generate", "self_s", "s"),
    ("synthgym.save_jsonl.time_s", "synthgym.save_jsonl", "total_s", "s"),
    ("synthgym.save_jsonl.bytes", "synthgym.save_jsonl", "bytes", "B"),
    ("synthgym.load_jsonl.time_s", "synthgym.load_jsonl", "total_s", "s"),
    ("synthgym.world_vs_canonical_stats.time_s",
     "synthgym.world_vs_canonical_stats", "total_s", "s"),
    ("so3.random_rotation.time_s", "so3.random_rotation", "total_s", "s"),
    ("so3.decode_6d.time_s", "so3.decode_6d", "total_s", "s"),
    ("diagnostics.predict_step_outputs.time_s",
     "diagnostics.predict_step_outputs", "total_s", "s"),
    ("diagnostics.predict_step_outputs.calls",
     "diagnostics.predict_step_outputs", "calls", "count"),
    ("diagnostics.usage_matrix.time_s", "diagnostics.usage_matrix", "total_s", "s"),
    ("diagnostics.concentration.time_s", "diagnostics.concentration", "total_s", "s"),
    ("diagnostics.compatibility.time_s", "diagnostics.compatibility", "total_s", "s"),
    ("diagnostics.random_min_angle_mc.time_s", "diagnostics.random_min_angle_mc",
     "total_s", "s"),
    ("diagnostics.axis_timeline.time_s", "diagnostics.axis_timeline", "total_s", "s"),
    ("kernels.pairwise_mean_distance.time_s", "kernels.pairwise_mean_distance",
     "total_s", "s"),
    ("linalg.sym_eigen.time_s", "linalg.sym_eigen", "total_s", "s"),
    ("linalg.sym_eigen.calls", "linalg.sym_eigen", "calls", "count"),
    ("cli.cmd_diagnose.self_s", "cli.cmd_diagnose", "self_s", "s"),
    ("cli.cmd_diagnose.report_bytes", "cli.cmd_diagnose", "bytes", "B"),
    ("theoremlab.minimize_over_so.time_s", "theoremlab.minimize_over_so",
     "total_s", "s"),
    ("theoremlab.j_monte_carlo.time_s", "theoremlab.j_monte_carlo", "total_s", "s"),
    ("theoremlab.majorization_check.time_s", "theoremlab.majorization_check",
     "total_s", "s"),
    ("theoremlab.alignment_report.time_s", "theoremlab.alignment_report",
     "total_s", "s"),
]

# Per-layer metrics the benchmark derives from the rounds rather than spans.
ROUND_METRICS = [
    ("autodiff.nodes.per_backward", "count"),
    ("cli.cmd_gen_data.wall_s", "s"),
    ("cli.cmd_train.wall_s", "s"),
    ("cli.cmd_train.steps_per_s", "1/s"),
    ("cli.cmd_diagnose.wall_s", "s"),
    ("cli.cmd_verify_theorem.wall_s", "s"),
    ("trainer.train.val_loss_act", "loss"),
    ("trace.overhead_pct", "%"),
]

PER_LAYER = [(name, unit) for name, _, _, unit in SPAN_METRICS] + ROUND_METRICS


class Tracer:
    """Timing wrappers over one imported `mcfproto` package."""

    def __init__(self, package):
        self.package = package
        self.stats = {}
        self.nodes = 0
        self._stack = [0.0]
        self._patches = []
        self._wrappers = self._build()

    def _stat(self, key):
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def _span(self, key, fn):
        stat = self._stat(key)
        stack = self._stack
        output_file = OUTPUT_FILE.get(key)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[_CALLS] += 1
                stat[_TOTAL] += dt
                stat[_SELF] += dt - child
            if output_file is not None:
                stat[_BYTES] += os.path.getsize(output_file(args))
            return result

        return wrapper

    def _primitive(self, bucket, fn):
        forward = self._span(f"autodiff.{bucket}", fn)
        span = self._span

        def wrapper(*args, **kwargs):
            node = forward(*args, **kwargs)
            if node.backward_fn is not None:
                node.backward_fn = span(f"autodiff.{bucket}.bwd", node.backward_fn)
            return node

        return wrapper

    def _build(self):
        """Map each original function to its wrapper."""
        pkg = self.package
        ad = pkg.autodiff
        wrappers = {}
        for bucket, names in [(n, (n,)) for n in NAMED_PRIMITIVES] + [
                ("losses", LOSS_PRIMITIVES), ("other", OTHER_PRIMITIVES)]:
            for name in names:
                fn = getattr(ad, name)
                wrappers[fn] = self._primitive(bucket, fn)
        wrappers[ad.backward] = self._span("autodiff.backward", ad.backward)
        for module, names in SPAN_FUNCTIONS.items():
            mod = getattr(pkg, module)
            for name in names:
                fn = getattr(mod, name)
                wrappers[fn] = self._span(f"{module}.{name}", fn)
        return wrappers

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        """Swap every reference to a traced function in the package's modules,
        including names imported with `from ... import`."""
        pkg = self.package
        for mod in [getattr(pkg, m) for m in dir(pkg)]:
            if type(mod) is not type(pkg) or not mod.__name__.startswith(pkg.__name__):
                continue
            for name, value in list(vars(mod).items()):
                if callable(value) and value in self._wrappers:
                    self._patch(mod, name, self._wrappers[value])
        adamw = pkg.trainer.AdamW
        self._patch(adamw, "step", self._span("trainer.AdamW.step", adamw.step))
        node_cls = pkg.autodiff.Node
        node_init = node_cls.__init__
        tracer = self

        def counting_init(node, *args, **kwargs):
            tracer.nodes += 1
            node_init(node, *args, **kwargs)

        self._patch(node_cls, "__init__", counting_init)

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def metrics(self, rounds):
        """Per-round span metrics (bytes per call) over `rounds` traced rounds."""
        out = {}
        for metric, key, quantity, _ in SPAN_METRICS:
            stat = self.stats.get(key, [0, 0.0, 0.0, 0])
            if quantity == "bytes":
                out[metric] = stat[_BYTES] / stat[_CALLS] if stat[_CALLS] else 0
            else:
                out[metric] = stat[_FIELDS[quantity]] / rounds
        backward_calls = self.stats.get("autodiff.backward", [0])[_CALLS]
        out["autodiff.nodes.per_backward"] = (
            self.nodes / backward_calls if backward_calls else 0)
        return out
