"""Tracing of the library's public functions from outside the program.

A :class:`Tracer` replaces each traced function by a timing wrapper in
every ``mondrian_forest`` module that holds it, so callers that imported it
by name are traced too, and puts the originals back on exit. Spans
(name, start, end, parent) stay in memory until the run writes them out.
A function's self time is its duration minus that of the traced calls it
made; the wrappers' own cost lands in the caller's self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import mondrian_forest as mf

# (module, attribute, keep one span per call). The functions called
# hundreds of thousands of times per fit keep totals only, so the trace
# stays small.
TRACED = (
    ("cli", "main", True),
    ("core", "load_dataset_csv", True),
    ("core", "Cell.__post_init__", False),
    ("partition", "sample_partition", True),
    ("partition", "locate_batch", True),
    ("partition", "leaves_at", True),
    ("losses", "loss_eval", False),
    ("losses", "validate_responses", False),
    ("leaf_fit", "fit_leaf", True),
    ("leaf_fit", "golden_section_min", True),
    ("tree", "fit_tree", True),
    ("tree", "predict_tree_batch", True),
    ("forest", "fit_forest", True),
    ("forest", "save_forest", True),
    ("forest", "load_forest", True),
    ("forest", "predict_batch", True),
    ("selection", "penalty_path", True),
    ("selection", "fit_forest_auto", True),
    ("density", "fit_density_forest", True),
    ("density", "fit_density_tree", True),
    ("density", "log_normalizer_for", True),
    ("density", "overlay_breakpoints", True),
    ("density", "density_eval_batch", True),
    ("density", "save_density_model", True),
    ("density", "load_density_model", True),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span index or -1]
        self.total: defaultdict[str, float] = defaultdict(float)
        self.own: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.partitions: list = []
        self._stack: list[list] = []  # [span index, time in traced children]
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, keep in TRACED:
            module = importlib.import_module(f"mondrian_forest.{module_name}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, name)
            wrapper = self._wrap(f"{module_name}.{attr}", original, keep)
            holders = [owner] if owner_name else [
                mod for key, mod in sys.modules.items()
                if key == "mondrian_forest" or key.startswith("mondrian_forest.")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn, keep: bool):
        before, after = _HOOKS.get(name, (None, None))
        stack, spans = self._stack, self.spans
        total, own, calls = self.total, self.own, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            parent = stack[-1] if stack else None
            if keep:
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent[0] if parent else -1])
            else:
                span = parent[0] if parent else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                total[name] += took
                own[name] += took - frame[1]
                calls[name] += 1
                if parent is not None:
                    parent[1] += took
                if keep:
                    spans[span][1], spans[span][2] = start, end
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return traced


def _count_objective_evals(tracer, args, kwargs):
    f = args[0] if args else kwargs.pop("f")

    def objective(z):
        tracer.counts["leaf_fit.objective_evals"] += 1
        return f(z)

    return (objective, *args[1:]), kwargs


def _keep_partition(tracer, result, args, kwargs):
    tracer.partitions.append(result)


def _count_path_events(tracer, result, args, kwargs):
    tracer.counts["selection.path_events"] += len(result.breakpoints) - 1


def _count_box_bound(tracer, result, args, kwargs):
    box = args[3] if len(args) > 3 else kwargs["box"]
    if np.any(result <= box.lo) or np.any(result >= box.hi):
        tracer.counts["density.box_bound_trees"] += 1


def _count_overlay_edges(tracer, result, args, kwargs):
    tracer.counts["density.overlay_edges"] += len(result)


_HOOKS = {
    "leaf_fit.golden_section_min": (_count_objective_evals, None),
    "partition.sample_partition": (None, _keep_partition),
    "selection.penalty_path": (None, _count_path_events),
    "density.fit_density_tree": (None, _count_box_bound),
    "density.overlay_breakpoints": (None, _count_overlay_edges),
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer times (s) and counts of one traced pass.

    ``leaf_fit.fit_leaf_self_s`` is the self time of the leaf_fit module:
    ``fit_leaf`` and ``golden_section_min`` less the losses calls they make.
    """
    t, own, calls, counts = tr.total, tr.own, tr.calls, tr.counts
    # a binary genealogy with s splits has 2 s + 1 nodes
    nodes = sum(2 * len(mf.split_times(p)) + 1 for p in tr.partitions)
    return {
        "core.load_dataset_csv_s": t["core.load_dataset_csv"],
        "core.cell_inits": calls["core.Cell.__post_init__"],
        "partition.sample_partition_s": t["partition.sample_partition"],
        "partition.nodes_sampled": nodes,
        "partition.locate_batch_s": t["partition.locate_batch"],
        "partition.locate_batch_calls": calls["partition.locate_batch"],
        "partition.leaves_at_s": t["partition.leaves_at"],
        "partition.leaves_at_calls": calls["partition.leaves_at"],
        "losses.loss_eval_s": t["losses.loss_eval"],
        "losses.loss_eval_calls": calls["losses.loss_eval"],
        "losses.validate_responses_calls": calls["losses.validate_responses"],
        "leaf_fit.fit_leaf_self_s": own["leaf_fit.fit_leaf"] + own["leaf_fit.golden_section_min"],
        "leaf_fit.fit_leaf_calls": calls["leaf_fit.fit_leaf"],
        "leaf_fit.golden_section_calls": calls["leaf_fit.golden_section_min"],
        "leaf_fit.objective_evals": counts["leaf_fit.objective_evals"],
        "tree.fit_tree_self_s": own["tree.fit_tree"],
        "tree.predict_tree_batch_s": t["tree.predict_tree_batch"],
        "forest.save_forest_s": t["forest.save_forest"],
        "forest.load_forest_s": t["forest.load_forest"],
        "forest.predict_batch_s": t["forest.predict_batch"],
        "selection.penalty_path_self_s": own["selection.penalty_path"],
        "selection.path_events": counts["selection.path_events"],
        "density.fit_density_tree_s": t["density.fit_density_tree"],
        "density.box_bound_trees": counts["density.box_bound_trees"],
        "density.log_normalizer_s": t["density.log_normalizer_for"],
        "density.overlay_edges": counts["density.overlay_edges"],
        "density.eval_batch_s": t["density.density_eval_batch"],
        "density.save_s": t["density.save_density_model"],
        "density.load_s": t["density.load_density_model"],
    }
