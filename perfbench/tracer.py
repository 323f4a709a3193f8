"""Spans around mcvv's functions, installed from outside the program.

Each target is replaced, where its caller looks it up, by a wrapper that
records a span: ``[name, start, end, parent index]``. Spans stay in memory
and are written once, when the unit ends. A span's self time is its
duration minus the durations of its child spans. Nothing inside ``mcvv``
changes; a target that no longer exists is listed in ``missing`` and the
metrics that need it are left out, never reported as 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from collections import Counter
from time import perf_counter

# (module, attribute where the caller looks it up, span name). A dotted
# attribute is a method on a class.
TARGETS = (
    ("mcvv.data", "Cohort.__init__", "data.cohort_init"),
    ("mcvv.data", "Cohort.frames", "data.frames"),
    ("mcvv.data", "read_tensor_file", "data.read"),
    ("mcvv.train", "augment_clip", "data.augment"),
    ("mcvv.tubelet", "tubelet_partition", "tubelet.partition"),
    ("mcvv.tubelet", "embed", "tubelet.embed"),
    ("mcvv.encoder", "encoder_forward", "encoder.forward"),
    ("mcvv.encoder", "spatial_encode", "encoder.spatial"),
    ("mcvv.encoder", "temporal_encode", "encoder.temporal"),
    ("mcvv.head", "mc_features", "head"),
    ("mcvv.head", "mc_ablated_features", "head"),
    ("mcvv.model", "Model.forward", "model.forward"),
    ("mcvv.train", "Model", "model.init"),
    ("mcvv.cli", "Model", "model.init"),
    ("mcvv.cli", "load_checkpoint", "model.checkpoint_load"),
    ("mcvv.cli", "save_checkpoint", "model.checkpoint_save"),
    ("mcvv.tensor", "backward", "tensor.backward"),
    ("mcvv.loss", "hp_loss", "loss.hp"),
    ("mcvv.loss", "fd_loss", "loss.fd"),
    ("mcvv.train", "batch_loss", "train.batch_loss"),
    ("mcvv.train", "adam_step", "train.adam"),
    ("mcvv.train", "evaluate_subjects", "train.evaluate"),
    ("mcvv.train", "train_fold", "train.fold"),
)

# Spans that open once per unit: enough to split set-up, loop and tail in
# an untraced unit at no measurable cost.
COARSE = ("model.init", "train.evaluate", "train.fold")

# Per-layer metric -> (unit, better, spans it needs). README.md gives the
# end-to-end metric and workload each one should move.
LAYER_METRICS = {
    "mcvv.import_ms": ("ms", "lower", ()),
    "data.cohort_init_ms": ("ms", "lower", ("data.cohort_init",)),
    "data.augment_ms_per_clip": ("ms", "lower", ("data.augment",)),
    "data.frames_ms_per_clip": ("ms", "lower", ("data.frames",)),
    "data.frames_hit_ratio": ("ratio", "higher", ("data.frames", "data.read")),
    "data.bytes_read": ("bytes", "lower", ("data.frames", "data.read")),
    "tubelet.partition_ms_per_clip": ("ms", "lower", ("model.forward", "tubelet.partition")),
    "tubelet.embed_ms_per_clip": ("ms", "lower", ("model.forward", "tubelet.embed")),
    "encoder.spatial_ms_per_clip": ("ms", "lower", ("model.forward", "encoder.spatial")),
    "encoder.temporal_ms_per_clip": ("ms", "lower", ("model.forward", "encoder.temporal")),
    "encoder.self_ms_per_clip": ("ms", "lower", ("model.forward", "encoder.forward",
                                                 "encoder.spatial", "encoder.temporal")),
    "head.ms_per_clip": ("ms", "lower", ("model.forward", "head")),
    "model.forward_self_ms_per_clip": ("ms", "lower", (
        "model.forward", "tubelet.partition", "tubelet.embed", "encoder.forward", "head")),
    "model.init_ms": ("ms", "lower", ("model.init",)),
    "model.checkpoint_load_ms": ("ms", "lower", ("model.checkpoint_load",)),
    "model.checkpoint_save_ms": ("ms", "lower", ("model.checkpoint_save",)),
    "tensor.backward_ms_per_step": ("ms", "lower", ("tensor.backward", "train.adam")),
    "tensor.graph_nodes_per_step": ("count", "lower", ("tensor.backward",)),
    "tensor.graph_nodes_per_forward": ("count", "lower", ("model.forward",)),
    "loss.ms_per_step": ("ms", "lower", ("loss.hp", "loss.fd", "train.adam")),
    "train.adam_ms_per_step": ("ms", "lower", ("train.adam",)),
    "train.loop_self_ms_per_step": ("ms", "lower", (
        "train.fold", "train.batch_loss", "train.adam", "model.init", "data.frames",
        "data.augment", "model.forward", "loss.hp", "tensor.backward", "train.evaluate")),
    "train.step_ms_p50": ("ms", "lower", ("train.fold", "model.init", "train.adam")),
    "train.step_ms_p90": ("ms", "lower", ("train.fold", "model.init", "train.adam")),
    "train.evaluate_self_ms_per_clip": ("ms", "lower", (
        "train.evaluate", "model.forward", "data.frames")),
    "trace.unattributed_ms": ("ms", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
}


def graph_size(*roots) -> int:
    """Distinct autodiff nodes reachable from the given tensors."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: dict[str, list] = {}    # count name -> one value per event
        self.missing: list[str] = []         # targets that no longer exist
        self._stack: list[int] = []
        # Counting runs inside a span of its own, so that its time is not
        # charged to the layer that encloses it.
        self._measure = self._wrap("trace.count", lambda measure, *args: measure(*args))

    def install(self, names=None) -> None:
        """Wrap every target, or only those whose span name is in ``names``."""
        for module_name, attr, name in TARGETS:
            if names is not None and name not in names:
                continue
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._hooked(name, self._wrap(name, fn)))

    def missing_spans(self) -> list[str]:
        """Span names none of whose targets could be wrapped."""
        present = Counter()
        for module_name, attr, name in TARGETS:
            present[name] += f"{module_name}.{attr}" not in self.missing
        return [name for name, n in present.items() if n == 0]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def _count(self, key, measure, *args) -> None:
        self.counts.setdefault(key, []).append(self._measure(measure, *args))

    def _hooked(self, name, traced):
        if name == "tensor.backward":
            def hooked(loss, *args, **kwargs):
                self._count("tensor.graph_nodes_per_step", graph_size, loss)
                return traced(loss, *args, **kwargs)
        elif name == "model.forward":
            def hooked(*args, **kwargs):
                out = traced(*args, **kwargs)
                self._count("tensor.graph_nodes_per_forward", graph_size, *out)
                return out
        elif name == "data.read":
            def hooked(path, *args, **kwargs):
                out = traced(path, *args, **kwargs)
                parent = self._stack[-1] if self._stack else -1
                if parent >= 0 and self.spans[parent][0] == "data.frames":
                    self._count("data.bytes_read", lambda p: os.stat(p).st_size, path)
                return out
        else:
            return traced
        return functools.wraps(traced)(hooked)


# -- summaries (computed from the spans every unit wrote) ---------------------------------


def layer_metrics(units: list[dict], overhead_s: float) -> dict[str, dict]:
    """Per-layer metrics over all traced units of one run.

    Each unit carries ``spans``, ``counts``, ``missing`` and ``marks``. A
    rate whose denominator is 0 (the workload never calls that layer) is
    reported as 0; a metric whose spans are missing is left out.
    """
    calls, total, self_time = Counter(), Counter(), Counter()
    reads_under_frames = eval_clips = 0
    steps_ms: list[float] = []
    unattributed_ms: list[float] = []
    for unit in units:
        spans = unit["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child[i]
            parent_name = spans[parent][0] if parent >= 0 else None
            reads_under_frames += name == "data.read" and parent_name == "data.frames"
            eval_clips += name == "model.forward" and parent_name == "train.evaluate"
        step_ends = [end for name, _, end, parent in spans
                     if name == "train.adam"
                     or (name == "model.init" and parent >= 0
                         and spans[parent][0] == "train.fold")]
        steps_ms += [1e3 * (b - a) for a, b in zip(step_ends, step_ends[1:])]
        marks = unit["marks"]
        in_spans = sum(end - start for _, start, end, parent in spans if parent < 0)
        unattributed_ms.append(1e3 * (marks["end"] - marks["start"] - in_spans))

    counts: dict[str, list] = {}
    for unit in units:
        for key, values in unit["counts"].items():
            counts.setdefault(key, []).extend(values)

    def rate(numerator, denominator, scale=1e3):
        return scale * numerator / denominator if denominator else 0.0

    forwards = calls["model.forward"]
    steps = calls["train.adam"]
    values = {
        "mcvv.import_ms": statistics.median(
            1e3 * (u["marks"]["imported"] - u["marks"]["start"]) for u in units),
        "data.cohort_init_ms": rate(total["data.cohort_init"], calls["data.cohort_init"]),
        "data.augment_ms_per_clip": rate(total["data.augment"], calls["data.augment"]),
        "data.frames_ms_per_clip": rate(total["data.frames"], calls["data.frames"]),
        "data.frames_hit_ratio": 1.0 - rate(reads_under_frames, calls["data.frames"], 1.0),
        "data.bytes_read": sum(counts.get("data.bytes_read", [])) / len(units),
        "tubelet.partition_ms_per_clip": rate(self_time["tubelet.partition"], forwards),
        "tubelet.embed_ms_per_clip": rate(self_time["tubelet.embed"], forwards),
        "encoder.spatial_ms_per_clip": rate(self_time["encoder.spatial"], forwards),
        "encoder.temporal_ms_per_clip": rate(self_time["encoder.temporal"], forwards),
        "encoder.self_ms_per_clip": rate(self_time["encoder.forward"], forwards),
        "head.ms_per_clip": rate(self_time["head"], forwards),
        "model.forward_self_ms_per_clip": rate(self_time["model.forward"], forwards),
        "model.init_ms": rate(total["model.init"], calls["model.init"]),
        "model.checkpoint_load_ms": rate(total["model.checkpoint_load"],
                                         calls["model.checkpoint_load"]),
        "model.checkpoint_save_ms": rate(total["model.checkpoint_save"],
                                         calls["model.checkpoint_save"]),
        "tensor.backward_ms_per_step": rate(total["tensor.backward"], steps),
        "tensor.graph_nodes_per_step": _median(counts.get("tensor.graph_nodes_per_step")),
        "tensor.graph_nodes_per_forward": _median(counts.get("tensor.graph_nodes_per_forward")),
        "loss.ms_per_step": rate(self_time["loss.hp"] + self_time["loss.fd"], steps),
        "train.adam_ms_per_step": rate(total["train.adam"], steps),
        "train.loop_self_ms_per_step": rate(
            self_time["train.fold"] + self_time["train.batch_loss"], steps),
        "train.step_ms_p50": _median(steps_ms),
        "train.step_ms_p90": statistics.quantiles(steps_ms, n=10, method="inclusive")[-1]
        if len(steps_ms) > 1 else _median(steps_ms),
        "train.evaluate_self_ms_per_clip": rate(self_time["train.evaluate"], eval_clips),
        "trace.unattributed_ms": statistics.median(unattributed_ms),
        "trace.overhead_s": overhead_s,
    }

    missing = set()
    for unit in units:
        missing.update(unit["missing"])
    out = {}
    for name, (unit_name, _, needs) in LAYER_METRICS.items():
        if name in values and not missing.intersection(needs):
            out[name] = {"value": values[name], "unit": unit_name}
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0
