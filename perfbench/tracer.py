"""In-memory span tracer for the fredkinlab layer functions.

The tracer wraps each layer function from the outside, without touching the
package: every binding of the function object across the loaded
``fredkinlab.*`` modules is replaced by one wrapper, so aliases such as
``circuits.compose`` and ``analysis._compose`` record to the same layer.
Catalog builders and optimizer evaluators are stored in registries rather
than module globals and are wrapped there.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (or -1) and ``op`` the operation that was running, -1 during
set-up.  A layer's self time is its span durations minus the time its child
spans cover.  The figures of a layer count only the spans of the timed
operations, except ``catalog.build``, which counts only the set-up builds
(with the validation-time compose inside them) and so belongs to ``setup_s``.
A layer that no longer exists under its name is skipped and reports zero
calls.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

#: (layer name, module, attribute path) of the layers bound as functions.
FUNCTION_LAYERS = (
    ("elements.compose", "fredkinlab.elements", "compose"),
    ("engine.apply_unitary", "fredkinlab.engine", "apply_unitary"),
    ("engine.measure_and_feedforward", "fredkinlab.engine", "measure_and_feedforward"),
    ("engine.post_select_any", "fredkinlab.engine", "post_select_any"),
    ("circuits.run", "fredkinlab.circuits", "run"),
    ("circuits.Circuit.prepare_input", "fredkinlab.circuits", "Circuit.prepare_input"),
    ("analysis.gate_report", "fredkinlab.analysis", "gate_report"),
    ("analysis.optimize_gate", "fredkinlab.analysis", "optimize_gate"),
    ("analysis.reverify_outcome", "fredkinlab.analysis", "reverify_outcome"),
)

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "elements.compose.calls": "count",
    "elements.compose.self_s": "s",
    "engine.apply_unitary.calls": "count",
    "engine.apply_unitary.self_s": "s",
    "engine.apply_unitary.terms_in": "count",
    "engine.apply_unitary.terms_out": "count",
    "engine.measure_and_feedforward.calls": "count",
    "engine.measure_and_feedforward.self_s": "s",
    "engine.measure_and_feedforward.branches": "count",
    "engine.measure_and_feedforward.accepted_frac": "ratio",
    "engine.post_select_any.calls": "count",
    "engine.post_select_any.self_s": "s",
    "engine.post_select_any.kept_frac": "ratio",
    "circuits.run.calls": "count",
    "circuits.run.self_s": "s",
    "circuits.Circuit.prepare_input.self_s": "s",
    "catalog.build.self_s": "s",
    "analysis.gate_report.self_s": "s",
    "analysis.evaluate.calls": "count",
    "analysis.evaluate.self_s": "s",
    "analysis.evals_per_s": "1/s",  # evaluator calls per second inside the evaluator
}

#: Layers only the optimizer reaches; they are zero on every workload but
#: optimize-mesh and are reported beside the metrics, not among them.
OPTIMIZER_METRICS = {
    "analysis.optimize_gate.self_s": "s",
    "analysis.residuals.calls": "count",
    "analysis.reverify_outcome.self_s": "s",
}

#: The only layer whose figure counts set-up spans instead of operation spans.
SETUP_LAYER = "catalog.build"


def _terms(state) -> int:
    return len(getattr(state, "amps", ()))


def _count_apply_unitary(counts, args, result):
    counts["engine.apply_unitary.terms_in"] += _terms(args[0]) if args else 0
    counts["engine.apply_unitary.terms_out"] += _terms(result)


def _count_measure(counts, args, result):
    records = result[2] if isinstance(result, tuple) and len(result) > 2 else ()
    counts["engine.measure_and_feedforward.branches"] += len(records)
    counts["engine.measure_and_feedforward.accepted"] += sum(
        1 for r in records if getattr(r, "action", None) == "accept")


def _count_post_select(counts, args, result):
    counts["engine.post_select_any.terms_in"] += _terms(args[0]) if args else 0
    counts["engine.post_select_any.terms_kept"] += _terms(
        result[0] if isinstance(result, tuple) else None)


COUNTERS = {
    "engine.apply_unitary": _count_apply_unitary,
    "engine.measure_and_feedforward": _count_measure,
    "engine.post_select_any": _count_post_select,
}


class Tracer:
    """Records spans of wrapped calls while `active` is set."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if counter is not None and self.op >= 0:
                counter(self.counts, args, result)
            return result

        return wrapper

    def install(self, function_layers=FUNCTION_LAYERS) -> list[str]:
        """Wrap every layer that exists; return the names that were found."""
        found = []
        for name, module_name, path in function_layers:
            module = sys.modules.get(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            targets = _bindings(original) if owner is module else [(owner, attr)]
            for target, key in targets:
                setattr(target, key, wrapper)
                self._undo.append(functools.partial(setattr, target, key, original))
            found.append(name)
        found += self._wrap_registries()
        return found

    def _wrap_registries(self) -> list[str]:
        found = []
        catalog = sys.modules.get("fredkinlab.catalog")
        registry = getattr(catalog, "CATALOG", {})
        for name, info in list(registry.items()):
            self._replace(registry, name, build=self.wrap("catalog.build", info.build))
            found.append("catalog.build")
        analysis = sys.modules.get("fredkinlab.analysis")
        problems = getattr(analysis, "PROBLEMS", {})
        for name, problem in list(problems.items()):
            changes = {"evaluate": self.wrap("analysis.evaluate", problem.evaluate)}
            if getattr(problem, "residuals", None) is not None:
                changes["residuals"] = self.wrap("analysis.residuals", problem.residuals)
            self._replace(problems, name, **changes)
            found.append("analysis.evaluate")
        return sorted(set(found))

    def _replace(self, registry: dict, key: str, **changes):
        original = registry[key]
        registry[key] = dataclasses.replace(original, **changes)
        self._undo.append(functools.partial(registry.__setitem__, key, original))

    def uninstall(self):
        """Restore every binding `install` replaced."""
        while self._undo:
            self._undo.pop()()

    def layer_figures(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far."""
        spans = {idx: span for idx, span in enumerate(self.spans)
                 if span is not None  # a span still open cannot be measured
                 and (span[4] < 0) == (span[0] == SETUP_LAYER)}
        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, float] = defaultdict(float)
        child: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans.values():
            calls[name] += 1
            total[name] += end - start
            if parent in spans:
                child[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in spans.items():
            self_time[name] += end - start - child[idx]

        out = {}
        for metric in (*LAYER_METRICS, *OPTIMIZER_METRICS):
            layer, _, quantity = metric.rpartition(".")
            if quantity == "calls":
                out[metric] = calls[layer]
            elif quantity == "self_s":
                out[metric] = self_time[layer]
        c = self.counts
        for metric in ("engine.apply_unitary.terms_in", "engine.apply_unitary.terms_out",
                       "engine.measure_and_feedforward.branches"):
            out[metric] = int(c[metric])
        out["engine.measure_and_feedforward.accepted_frac"] = _ratio(
            c["engine.measure_and_feedforward.accepted"],
            c["engine.measure_and_feedforward.branches"])
        out["engine.post_select_any.kept_frac"] = _ratio(
            c["engine.post_select_any.terms_kept"], c["engine.post_select_any.terms_in"])
        out["analysis.evals_per_s"] = _ratio(
            calls["analysis.evaluate"], total["analysis.evaluate"])
        return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 where the layer did no work."""
    return num / den if den else 0.0


def _bindings(original) -> list[tuple[object, str]]:
    """Every (module, name) of a loaded fredkinlab module bound to `original`."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "fredkinlab"
                                  or module_name.startswith("fredkinlab.")):
            continue
        found += [(module, key) for key, value in vars(module).items() if value is original]
    return found
