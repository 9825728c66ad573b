"""Span tracing around the public functions of merge_planner, installed from outside.

The tracer replaces each traced function at every module attribute that
refers to it (``merge_planner.gmm.choose_partition`` and
``merge_planner.report.choose_partition`` alike), and ``NoisySampler.sample``
on its class, so calls made inside the package are seen too.  Nothing under
``src/`` is edited; ``uninstall`` puts the original objects back.

Each span records its name, start, end, parent span and item id.  Spans stay
in memory until ``write`` dumps them at the end of a run.  A few spans also
carry counts read from their arguments or results (rows gated, components
expanded, DP candidates), so work is counted where it happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path


def _dp_counts(args, result) -> dict[str, int]:
    # candidates per cell: the direct merge plus every split pair of sub-frontier items
    sizes = result.frontier_sizes
    candidates = 0
    for t1, t2 in sizes:
        candidates += 1 + sum(sizes[(t1, m)] * sizes[(m + 1, t2)] for m in range(t1, t2))
    return {
        "pareto_dp.candidates": candidates,
        "pareto_dp.survivors": sum(sizes.values()),
        "pareto_dp.max_frontier": max(sizes.values()),
    }


def _batch_rows(z) -> int:
    shape = getattr(z, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


# (module, qualified name, extractor of counts from (bound arguments, result))
TARGETS = (
    ("pareto_dp", "pareto_dp", _dp_counts),
    ("linear_op", "single_step_matrix", None),
    ("linear_op", "shrinkage", None),
    ("linear_op", "surrogate_target", None),
    ("linear_op", "w2_objective", None),
    ("strategy", "evaluate_plan", None),
    ("strategy", "format_plan", None),
    ("report", "render_arc_diagram", None),
    ("report", "run_plan", None),
    ("report", "run_sweep", None),
    ("report", "run_gmm_approx", None),
    ("report", "run_gmm_propagate", None),
    ("gmm", "posterior_log_weights",
     lambda a, r: {"gmm.posterior_log_weights.rows": _batch_rows(a["z"])}),
    ("gmm", "NoisySampler.sample", lambda a, r: {"gmm.NoisySampler.sample.rows": int(a["n"])}),
    ("gmm", "single_step_moe", None),
    ("gmm", "compose_expand", lambda a, r: {"gmm.compose_expand.components": r.n_experts}),
    ("gmm", "choose_partition", None),
    ("gmm", "fit_cluster_student",
     lambda a, r: {"gmm.fit_cluster_student.ridge_flagged": int(r.ridge_flagged)}),
    ("gmm", "distill_chain", None),
    ("gmm", "error_propagation_audit", None),
    ("gmm", "apply_chain", None),
    ("gmm", "mc_distillation_loss", lambda a, r: {"gmm.mc_distillation_loss.samples": int(a["n"])}),
)
COUNTS = (
    "pareto_dp.candidates",
    "pareto_dp.survivors",
    "pareto_dp.max_frontier",  # the largest over calls; every other count is a sum
    "gmm.posterior_log_weights.rows",
    "gmm.NoisySampler.sample.rows",
    "gmm.compose_expand.components",
    "gmm.fit_cluster_student.ridge_flagged",
    "gmm.mc_distillation_loss.samples",
)


class Tracer:
    """Collects spans for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.item = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, extract):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in when the call ends
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, self.item, name, start, end)
            if extract is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in extract(bound.arguments, result).items():
                    if key.endswith(".max_frontier"):
                        self.counts[key] = max(self.counts[key], value)
                    else:
                        self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "merge_planner" or key.startswith("merge_planner."))
        ]
        for mod_name, qualname, extract in TARGETS:
            name = f"{mod_name}.{qualname}"
            home = importlib.import_module(f"merge_planner.{mod_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, extract))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(name, original, extract)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def finished(self) -> list[tuple[int, int, int, str, float, float]]:
        # a timeout can interrupt a call between reserving its id and starting it
        return [span for span in self.spans if span is not None]

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls nest on one thread, so children never overlap.
        """
        spans = self.finished()
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {
            f"{mod}.{qualname}": {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for mod, qualname, _ in TARGETS
        }
        for span_id, _, _, name, start, end in spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return out

    def write(self, path: Path, label: str) -> None:
        """Append the spans as CSV rows tagged with ``label``."""
        new = not path.exists()
        with open(path, "a", encoding="utf-8") as fh:
            if new:
                fh.write("pass,span,parent,item,name,start_s,end_s\n")
            for span_id, parent, item, name, start, end in self.finished():
                fh.write(f"{label},{span_id},{parent},{item},{name},{start:.9f},{end:.9f}\n")

