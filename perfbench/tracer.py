"""Layer tracing from outside the package.

The tracer wraps functree's public functions and methods where their callers
look them up: a module-level function is replaced in every ``functree``
module that binds it (``functree.tree`` calls ``smooth`` and
``functree.pdengine`` calls ``spline_fit`` by the names they imported), and a
method is replaced on its class. Each call records a span (name, start, end,
parent) in memory; ``summary`` turns the spans into per-layer counts and
times, and ``write`` dumps them as JSON lines when the run ends. Nothing under
``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        # one record per call: [name, start, end, parent index]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.enabled = False

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, on_call=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            if on_call is not None:
                on_call(tracer, args, kwargs)
            rec = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def function(self, module: str, attr: str, name, **hooks) -> None:
        """Wrap a module-level function under every name that binds it in a
        loaded ``functree`` module (the package namespace included)."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "functree" and not mod_name.startswith("functree."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def method(self, cls: type, attr: str, name, **hooks) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, **hooks))
        self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def summary(self, names) -> dict[str, float]:
        """Per span name: calls, inclusive seconds and self seconds (the span
        minus the time its child spans cover). No wrapped name calls itself,
        so inclusive times do not double count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for n in names:
            out[f"{n}.calls"] = 0
            out[f"{n}.s"] = 0.0
            out[f"{n}.self_s"] = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            if f"{name}.calls" not in out:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")


# ---------------------------------------------------------------------------
# The functree layer boundaries
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("gen", "fit", "predict", "effects", "pd", "interact", "diff", "bootstrap", "surrogate")

SPANS = (
    "data.load_csv", "data.write_csv",
    "smoothers.smooth", "smoothers.spline_fit",
    "tree.fit", "tree.score_candidate", "tree.step", "tree.backfit_pass", "tree.recenter",
    "tree.predict", "tree.save", "tree.load",
    "interactions.split", "interactions.strength", "interactions.screen_h",
    "interactions.search_effects", "interactions.pure_interaction",
    "interactions.conditional_interaction", "interactions.bootstrap_compare",
    "pdengine.coefficient_curve", "pdengine.pd_fast", "pdengine.pa",
) + tuple(f"cli.{c}" for c in CLI_COMMANDS)

COUNTS = (
    "data.load_csv.rows", "tree.predict.rows", "tree.score_candidate.rejected",
    "tree.step.added", "interactions.split.distinct", "interactions.fast_evals",
)


def _count(key, amount):
    def hook(tracer, args, result):
        tracer.counts[key] += amount(args, result)
    return hook


def _split_lookup(tracer, args, kwargs):
    engine, key = args[0], args[1] if len(args) > 1 else kwargs["key"]
    if key not in engine._splits:
        tracer.counts["interactions.split.distinct"] += 1


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed in SPANS."""
    # every functree module must be loaded before names are rebound in it
    import functree.cli  # noqa: F401
    import functree.interactions as fi
    import functree.tree as ftree

    f = tracer.function
    f("functree.data", "load_csv", "data.load_csv",
      on_result=_count("data.load_csv.rows", lambda a, r: r.n))
    f("functree.data", "write_csv", "data.write_csv")
    f("functree.smoothers", "smooth", "smoothers.smooth")
    f("functree.smoothers", "spline_fit", "smoothers.spline_fit")
    f("functree.tree", "fit", "tree.fit")
    f("functree.tree", "save", "tree.save")
    f("functree.tree", "load", "tree.load")
    f("functree.interactions", "screen_h", "interactions.screen_h")
    f("functree.interactions", "search_effects", "interactions.search_effects",
      on_result=_count("interactions.fast_evals", lambda a, r: r.fast_evals))
    f("functree.interactions", "pure_interaction", "interactions.pure_interaction")
    f("functree.interactions", "conditional_interaction", "interactions.conditional_interaction")
    f("functree.interactions", "bootstrap_compare", "interactions.bootstrap_compare")
    f("functree.pdengine", "coefficient_curve", "pdengine.coefficient_curve")
    f("functree.pdengine", "pd_fast", "pdengine.pd_fast")
    f("functree.pdengine", "pa", "pdengine.pa")
    f("functree.cli", "main", _cli_name)

    m = tracer.method
    m(ftree.TreeFitter, "score_candidate", "tree.score_candidate",
      on_result=_count("tree.score_candidate.rejected", lambda a, r: r is None))
    m(ftree.TreeFitter, "step", "tree.step", on_result=_count("tree.step.added", lambda a, r: bool(r)))
    m(ftree.TreeFitter, "backfit_pass", "tree.backfit_pass")
    m(ftree.TreeFitter, "recenter", "tree.recenter")
    m(ftree.FunctionTree, "predict", "tree.predict",
      on_result=_count("tree.predict.rows", lambda a, r: len(r)))
    m(fi.EffectEngine, "split", "interactions.split", on_call=_split_lookup)
    m(fi.EffectEngine, "strength", "interactions.strength")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced run, zero for layers the
    workload does not reach."""
    out = tracer.summary(SPANS)
    for key in COUNTS:
        out[key] = tracer.counts[key]
    scored = out["tree.score_candidate.calls"]
    out["tree.useful_candidate_ratio"] = out["tree.step.added"] / scored if scored else 0.0
    splits = out["interactions.split.calls"]
    hits = splits - out["interactions.split.distinct"]
    out["interactions.split_hit_ratio"] = hits / splits if splits else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
