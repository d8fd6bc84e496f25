"""Span tracing from outside the program, and the per-layer metrics.

``WRAPPED`` is the one table of wrapped names. Each wrapper replaces the name
its caller looks up at call time (a module global or a class attribute), so
``dynmoe.harness.moe_backward`` is the name ``DynMoeBlock.backward`` calls and
``dynmoe.moe_layer.route_top_any`` the one ``moe_forward`` calls. A name that
no longer exists is recorded as missing; every layer metric whose sources are
all missing is reported as absent (value 0) instead of failing the run.

Each call records a span (name, start, end, parent, phase). Spans stay in
memory and are written out when the round ends. A span's self time is its
duration minus the durations of its direct children; calls nest strictly in
one thread, so the self times of all spans sum to the time covered by the
outermost spans.
"""

from __future__ import annotations

import importlib
import json
import os
import time

PHASES = ("setup", "train", "write", "load", "evalgen", "eval", "check")

# (module, attribute path) of every wrapped name; the span name drops "dynmoe.".
WRAPPED = (
    ("dynmoe.harness", "gen_task"),
    ("dynmoe.harness", "train_loop"),
    ("dynmoe.harness", "run_baseline"),
    ("dynmoe.harness", "train_step"),
    ("dynmoe.harness", "softmax_cross_entropy"),
    ("dynmoe.harness", "Adam.step"),
    ("dynmoe.harness", "Sgd.step"),
    ("dynmoe.harness", "evaluate"),
    ("dynmoe.harness", "load_model"),
    ("dynmoe.harness", "moe_forward"),
    ("dynmoe.harness", "moe_forward_weighted"),
    ("dynmoe.harness", "moe_backward"),
    ("dynmoe.harness", "moe_backward_weighted"),
    ("dynmoe.harness", "TopKMoeBlock.forward"),
    ("dynmoe.harness", "TopKMoeBlock.backward"),
    ("dynmoe.harness", "route_top_k_baseline"),
    ("dynmoe.harness", "route_top_k_backward"),
    ("dynmoe.harness", "diversity_simplicity_loss"),
    ("dynmoe.harness", "record"),
    ("dynmoe.harness", "adapt"),
    ("dynmoe.moe_layer", "route_top_any"),
    ("dynmoe.moe_layer", "route_eval"),
    ("dynmoe.moe_layer", "route_top_any_backward"),
    ("dynmoe.moe_layer", "ExpertMlp.forward"),
    ("dynmoe.moe_layer", "ExpertMlp.backward"),
    ("dynmoe.router", "route_top_any"),
    ("dynmoe.router", "cosine_scores_batch"),
    ("dynmoe.numerics", "Param.accumulate"),
    ("dynmoe.telemetry", "PassStats.from_decisions"),
    ("dynmoe.telemetry", "MetricsLog.append"),
    ("dynmoe.telemetry", "MetricsLog.to_csv"),
    ("dynmoe.cli", "write_run_dir"),
    ("dynmoe.cli", "save_model"),
)

STEP = "harness.train_step"
ROUTER_FWD = ("moe_layer.route_top_any", "moe_layer.route_eval", "router.route_top_any",
              "harness.route_top_k_baseline")
ROUTER_BWD = ("moe_layer.route_top_any_backward", "harness.route_top_k_backward")
COMBINE_FWD = ("harness.moe_forward", "harness.moe_forward_weighted", "harness.TopKMoeBlock.forward")
COMBINE_BWD = ("harness.moe_backward", "harness.moe_backward_weighted",
               "harness.TopKMoeBlock.backward")
EXPERT_FWD = ("moe_layer.ExpertMlp.forward",)
EXPERT_BWD = ("moe_layer.ExpertMlp.backward",)
TRAIN_ROUTES = ("moe_layer.route_top_any", "harness.route_top_k_baseline")
EVAL_ROUTES = ("moe_layer.route_eval", "harness.route_top_k_baseline")
OPTIMIZER = ("harness.Adam.step", "harness.Sgd.step")

# name -> (unit, better, span names it is measured at). Times are per training
# step unless the unit says otherwise.
LAYER_METRICS = {
    "router.forward_ms": ("ms", "lower", ROUTER_FWD),
    "router.backward_ms": ("ms", "lower", ROUTER_BWD),
    "router.mean_k": ("experts/token", "lower", EVAL_ROUTES),
    "router.unserved_tokens": ("tokens", "lower", TRAIN_ROUTES),
    "numerics.cosine_ms": ("ms", "lower", ("router.cosine_scores_batch",)),
    "numerics.accumulate_calls": ("calls", "lower", ("numerics.Param.accumulate",)),
    "moe_layer.combine_fwd_ms": ("ms", "lower", COMBINE_FWD),
    "moe_layer.combine_bwd_ms": ("ms", "lower", COMBINE_BWD),
    "moe_layer.expert_fwd_ms": ("ms", "lower", EXPERT_FWD),
    "moe_layer.expert_bwd_ms": ("ms", "lower", EXPERT_BWD),
    "moe_layer.expert_calls": ("calls", "lower", EXPERT_FWD + EXPERT_BWD),
    "moe_layer.expert_rows": ("rows", "lower", EXPERT_FWD + EXPERT_BWD),
    "moe_layer.useful_row_ratio": ("fraction", "higher", EXPERT_FWD + EXPERT_BWD),
    "losses.aux_ms": ("ms", "lower", ("harness.diversity_simplicity_loss",)),
    "adaptive.record_ms": ("ms", "lower", ("harness.record",)),
    "adaptive.adapt_ms": ("ms/call", "lower", ("harness.adapt",)),
    "adaptive.adapt_calls": ("count", "lower", ("harness.adapt",)),
    "adaptive.experts_added": ("count", "lower", ("harness.adapt",)),
    "adaptive.experts_removed": ("count", "lower", ("harness.adapt",)),
    "harness.optimizer_ms": ("ms", "lower", OPTIMIZER),
    "harness.optimizer_params": ("params", "lower", OPTIMIZER),
    "harness.loss_ms": ("ms", "lower", ("harness.softmax_cross_entropy",)),
    "harness.step_self_ms": ("ms", "lower", (STEP,)),
    "harness.evaluate_ms": ("ms/batch", "lower", ("harness.evaluate",)),
    "harness.gen_task_s": ("s", "lower", ("harness.gen_task",)),
    "harness.save_ms": ("ms/call", "lower", ("cli.save_model",)),
    "harness.load_ms": ("ms/call", "lower", ("harness.load_model",)),
    "harness.checkpoint_bytes": ("bytes", "lower", ("cli.save_model",)),
    "telemetry.pass_stats_ms": ("ms/call", "lower", ("telemetry.PassStats.from_decisions",)),
    "telemetry.metrics_rows": ("rows", "lower", ("telemetry.MetricsLog.append",)),
    "telemetry.csv_write_ms": ("ms", "lower", ("telemetry.MetricsLog.to_csv",)),
    "cli.write_run_dir_ms": ("ms", "lower", ("cli.write_run_dir",)),
}


def _count_rows(tracer, name, args, out):
    # ExpertMlp.forward(self, x) and ExpertMlp.backward(self, cache, upstream)
    if STEP in tracer.open_names:
        tracer.add("expert_rows", len(args[-1]))


def _count_routing(tracer, name, args, out):
    if STEP in tracer.open_names:
        tracer.add("train_pairs", int(out.k.sum()))
        tracer.add("unserved", int((out.k == 0).sum()))
    if name in EVAL_ROUTES and tracer.phase == "eval":
        tracer.add("eval_pairs", int(out.k.sum()))
        tracer.add("eval_tokens", len(out.k))


def _count_adapt(tracer, name, args, out):
    tracer.add("experts_added", int(out.added))
    tracer.add("experts_removed", len(out.removed_experts))


def _count_optimizer(tracer, name, args, out):
    tracer.add("optimizer_params", len(args[1]))


def _count_checkpoint(tracer, name, args, out):
    tracer.add("checkpoint_bytes", os.path.getsize(args[1]))


COUNTERS = {
    "moe_layer.ExpertMlp.forward": _count_rows,
    "moe_layer.ExpertMlp.backward": _count_rows,
    "moe_layer.route_top_any": _count_routing,
    "moe_layer.route_eval": _count_routing,
    "harness.route_top_k_baseline": _count_routing,
    "harness.adapt": _count_adapt,
    "harness.Adam.step": _count_optimizer,
    "harness.Sgd.step": _count_optimizer,
    "cli.save_model": _count_checkpoint,
}


class Tracer:
    """In-memory span recorder installed by replacing the wrapped names."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []           # (name id, start, end, parent index, phase)
        self.open_names: list[str] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.phase = PHASES[0]

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def install(self) -> None:
        for module_name, path in WRAPPED:
            name = f"{module_name.removeprefix('dynmoe.')}.{path}"
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if outer else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))

    def _wrap(self, fn, name):
        sid = len(self.names)
        self.names.append(name)
        spans, open_idx, open_names = self.spans, self._open, self.open_names
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_idx[-1] if open_idx else -1
            open_idx.append(idx)
            open_names.append(name)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                open_idx.pop()
                open_names.pop()
                spans[idx] = (sid, start, end, parent, self.phase)
            if counter is not None:
                counter(self, name, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path) -> None:
        doc = {"names": self.names, "missing": self.missing, "counts": self.counts,
               "fields": ["name", "start_s", "end_s", "parent", "phase"], "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, float], list[str]]:
        """Per-layer metrics, the self-time total, and the absent metric names."""
        names, spans = self.names, self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        in_step = [False] * n
        step_id = names.index(STEP) if STEP in names else -2
        for i, (sid, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
                in_step[i] = in_step[parent] or sid == step_id
            else:
                in_step[i] = sid == step_id
        self_time = [d - c for d, c in zip(dur, child)]

        by_name: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)

        def select(group, where):
            ids = {names.index(g) for g in group if g in names}
            return ids, [i for sid in ids for i in by_name.get(sid, ()) if where(i)]

        def outer_time(group, where):
            # Time covered by the group's outermost spans, nested calls counted once.
            ids, picked = select(group, where)
            total = 0.0
            for i in picked:
                p = spans[i][3]
                while p >= 0 and spans[p][0] not in ids:
                    p = spans[p][3]
                if p < 0:
                    total += dur[i]
            return total

        def calls(group, where):
            return len(select(group, where)[1])

        def self_sum(group, where):
            return sum(self_time[i] for i in select(group, where)[1])

        step = in_step.__getitem__

        def phase(name):
            return lambda i: spans[i][4] == name

        def anywhere(i):
            return True

        def per_call(group, where, scale):
            k = calls(group, where)
            return scale * outer_time(group, where) / k if k else 0.0

        steps = max(calls((STEP,), anywhere), 1)
        ms_step = 1e3 / steps
        c = self.counts.get
        rows = c("expert_rows", 0)
        values = {
            "router.forward_ms": outer_time(ROUTER_FWD, step) * ms_step,
            "router.backward_ms": outer_time(ROUTER_BWD, step) * ms_step,
            "router.mean_k": c("eval_pairs", 0) / max(c("eval_tokens", 0), 1),
            "router.unserved_tokens": c("unserved", 0),
            "numerics.cosine_ms": outer_time(("router.cosine_scores_batch",), step) * ms_step,
            "numerics.accumulate_calls": calls(("numerics.Param.accumulate",), step) / steps,
            "moe_layer.combine_fwd_ms": self_sum(COMBINE_FWD, step) * ms_step,
            "moe_layer.combine_bwd_ms": self_sum(COMBINE_BWD, step) * ms_step,
            "moe_layer.expert_fwd_ms": outer_time(EXPERT_FWD, step) * ms_step,
            "moe_layer.expert_bwd_ms": outer_time(EXPERT_BWD, step) * ms_step,
            "moe_layer.expert_calls": calls(EXPERT_FWD + EXPERT_BWD, step) / steps,
            "moe_layer.expert_rows": rows / steps,
            # Each activated pair needs one forward and one backward row.
            "moe_layer.useful_row_ratio": 2 * c("train_pairs", 0) / rows if rows else 0.0,
            "losses.aux_ms": outer_time(("harness.diversity_simplicity_loss",), step) * ms_step,
            "adaptive.record_ms": outer_time(("harness.record",), step) * ms_step,
            "adaptive.adapt_ms": per_call(("harness.adapt",), anywhere, 1e3),
            "adaptive.adapt_calls": calls(("harness.adapt",), anywhere),
            "adaptive.experts_added": c("experts_added", 0),
            "adaptive.experts_removed": c("experts_removed", 0),
            "harness.optimizer_ms": outer_time(OPTIMIZER, step) * ms_step,
            "harness.optimizer_params": c("optimizer_params", 0) / max(calls(OPTIMIZER, step), 1),
            "harness.loss_ms": outer_time(("harness.softmax_cross_entropy",), step) * ms_step,
            "harness.step_self_ms": self_sum((STEP,), anywhere) * ms_step,
            "harness.evaluate_ms": per_call(("harness.evaluate",), phase("eval"), 1e3),
            "harness.gen_task_s": outer_time(("harness.gen_task",), phase("setup")),
            "harness.save_ms": per_call(("cli.save_model",), anywhere, 1e3),
            "harness.load_ms": per_call(("harness.load_model",), anywhere, 1e3),
            "harness.checkpoint_bytes": c("checkpoint_bytes", 0),
            "telemetry.pass_stats_ms": per_call(("telemetry.PassStats.from_decisions",),
                                                anywhere, 1e3),
            "telemetry.metrics_rows": calls(("telemetry.MetricsLog.append",), anywhere),
            "telemetry.csv_write_ms": outer_time(("telemetry.MetricsLog.to_csv",), anywhere) * 1e3,
            "cli.write_run_dir_ms": outer_time(("cli.write_run_dir",), anywhere) * 1e3,
        }
        absent = [m for m, (_, _, sources) in LAYER_METRICS.items()
                  if all(s in self.missing for s in sources)]
        for m in absent:
            values[m] = 0.0
        totals = {"self_s": sum(self_time), "spans": n}
        return values, totals, absent
