"""Run one srgrowth CLI verb with a span around every call into a layer.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/tracer.py SPANS_FILE RUN_ID VERB [ARGS...]

The layers are the package's modules.  Every public function of a layer
module (and the ``__post_init__`` validation of its dataclasses) is
replaced, wherever the package refers to it, by a wrapper that records a
span: name, start and end (``time.perf_counter_ns``, which is the
system-wide monotonic clock, so spans of successive verbs line up), the
index of the enclosing span, and a few counts taken from the call's
arguments and result.  Spans are kept in memory and written as JSON lines
to SPANS_FILE when the verb ends; the program's own files are not
touched.  The exit code is the verb's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from pathlib import Path

from metrics import LAYERS

# Helpers called once per record or table cell: a span around each call
# would cost more than the work it measures, so their time counts as the
# caller's own.
PER_ITEM = frozenset({
    "pipeline.parse_timestamp",
    "pipeline.issue_to_json",
    "pipeline.classify_attribute",
    "reporting.fmt_float",
    "reporting.fmt_bool",
    "reporting.slugify",
})


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _search_counts(fn, args, kwargs, result, originals) -> dict:
    a = _bound(fn, args, kwargs)
    draws = int(a["cfg"].search_budget)
    return {"draws": draws, "points": draws * int(a["series"].n)}


def _refine_counts(fn, args, kwargs, result, originals) -> dict:
    a = _bound(fn, args, kwargs)
    series = a["series"]
    start = originals["models.mean_value"](a["model"], a["init"], series.times) - series.cumulative
    return {
        "iterations": int(result.iterations_used),
        "converged": bool(result.converged),
        "search_rss": float(start @ start),
        "rss": float(result.rss),
    }


def _fit_all_counts(fn, args, kwargs, result, originals) -> dict:
    search_bounds = originals["models.search_bounds"]
    series = _bound(fn, args, kwargs)["series"]
    at_bound = 0
    placeholders = 0
    for fit in result:
        if not math.isfinite(fit.rss):
            placeholders += 1
            continue
        lo, hi = search_bounds(fit.model, series.n)
        for value, low, high in zip(fit.params, lo, hi):
            if value >= high * (1.0 - 1e-9) or value <= low * (1.0 + 1e-9):
                at_bound += 1
    return {"fits": len(result), "placeholders": placeholders, "at_bound": at_bound}


def _parse_counts(fn, args, kwargs, result, originals) -> dict:
    return {"records": len(result.records), "skipped": len(result.skipped)}


def _filter_counts(fn, args, kwargs, result, originals) -> dict:
    return {"in": len(_bound(fn, args, kwargs)["issues"]), "out": len(result)}


def _segment_counts(fn, args, kwargs, result, originals) -> dict:
    return {"series": len(result.series), "dropped": len(result.dropped)}


def _write_counts(fn, args, kwargs, result, originals) -> dict:
    return {"bytes": Path(_bound(fn, args, kwargs)["path"]).stat().st_size}


COUNTERS = {
    "fitting.initial_search": _search_counts,
    "fitting.refine": _refine_counts,
    "fitting.fit_all": _fit_all_counts,
    "pipeline.parse_issues": _parse_counts,
    "pipeline.filter_defects": _filter_counts,
    "pipeline.segment_releases": _segment_counts,
}


class Recorder:
    """In-memory span list; a span's parent is the span open when it began."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.originals: dict = {}  # unwrapped functions, for counters to call
        self._open: list[int] = []
        self._counting = False  # calls a counter makes are not spans

    def wrap(self, name: str, fn):
        self.originals[name] = fn
        counter = COUNTERS.get(name)
        if counter is None and name.startswith("reporting.write_"):
            counter = _write_counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._counting:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._open.pop()
            if counter is not None:
                self._counting = True
                try:
                    span["counts"] = counter(fn, args, kwargs, result, self.originals)
                except Exception as exc:  # a counter must never change the verb's outcome
                    span["counts"] = {"error": f"{type(exc).__name__}: {exc}"}
                finally:
                    self._counting = False
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({"run": self.run_id, **span}) + "\n")


def install(recorder: Recorder) -> None:
    """Replace each layer's public functions by traced wrappers everywhere
    the package holds a reference to them."""
    modules = {layer: importlib.import_module(f"srgrowth.{layer}") for layer in LAYERS}
    replacements = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj) and name not in PER_ITEM:
                replacements[id(obj)] = (obj, recorder.wrap(name, obj))
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                obj.__post_init__ = recorder.wrap(name, vars(obj)["__post_init__"])
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "srgrowth"]:
        for attr, obj in list(vars(module).items()):
            entry = replacements.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])


def main(argv: list[str]) -> int:
    spans_file, run_id, *cli_args = argv
    from srgrowth import cli

    recorder = Recorder(run_id)
    install(recorder)
    try:
        return cli.main(cli_args)
    finally:
        recorder.write(Path(spans_file))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
