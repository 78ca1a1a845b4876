"""Span tracing of agecomp's public functions, installed from outside.

A Tracer replaces each traced function at every name an agecomp module binds
it to (``linalg.svd`` as ``schedule`` looks it up, ``reconstruct`` where
``regress`` and ``cluster`` import it by name), so nested calls get their
own spans.  Spans stay in memory as (name, start, end, parent, ok) tuples;
self time is a span's duration minus the time its direct children cover.
Nothing under ``src/agecomp`` is modified on disk.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("io", "linalg", "schedule", "regress", "cluster", "measures", "cli")

# module -> attributes traced; "Class.method" patches the class attribute.
TRACED = {
    "io": (
        "load_schedule_csv",
        "write_schedule_csv",
        "load_covariates_csv",
        "load_weights_csv",
        "write_weights_csv",
        "basis_to_json",
        "basis_from_json",
        "models_to_json",
        "models_from_json",
    ),
    "linalg": ("svd", "explained_share", "reconstruct_rank", "canonicalize_signs"),
    "schedule": (
        "build_basis",
        "svd_weights",
        "smooth_matrix",
        "fit_weights",
        "reconstruct",
        "error_metrics",
        "concat_sexes",
        "ScheduleMatrix.column",
    ),
    "regress": ("ols_fit", "fit_weight_models", "predict_schedule", "predict_weights"),
    "cluster": ("select_by_bic", "fit_gmm_em", "assign"),
    "measures": ("life_table_from_mx",),
    "cli": (
        "main",
        "_cmd_decompose",
        "_cmd_regress",
        "_cmd_predict",
        "_cmd_smooth",
        "_cmd_metrics",
        "_cmd_cluster",
        "_cmd_fit",
        "_cmd_reconstruct",
        "_cmd_lifetable",
    ),
}

ROOT = "bench.pass"


def span_name(module: str, attr: str) -> str:
    leaf = attr.rsplit(".", 1)[-1]
    return f"{module}.{leaf.removeprefix('_cmd_')}"


SPAN_NAMES = tuple(span_name(m, a) for m, attrs in TRACED.items() for a in attrs)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


# span name -> (counter, f(args, kwargs, result) -> increment), taken after the
# span ends so the bookkeeping is not charged to the traced function.
COUNTERS = {
    "linalg.svd": ("linalg.svd.cells", lambda a, k, r: int(np.size(_arg(a, k, 0, "x")))),
    "io.load_schedule_csv": ("io.bytes_read", lambda a, k, r: _file_size(_arg(a, k, 0, "path"))),
    "io.load_covariates_csv": ("io.bytes_read", lambda a, k, r: _file_size(_arg(a, k, 0, "path"))),
    "io.load_weights_csv": ("io.bytes_read", lambda a, k, r: _file_size(_arg(a, k, 0, "path"))),
    "io.basis_from_json": ("io.bytes_read", lambda a, k, r: len(_arg(a, k, 0, "text"))),
    "io.models_from_json": ("io.bytes_read", lambda a, k, r: len(_arg(a, k, 0, "text"))),
    "io.write_schedule_csv": ("io.bytes_written", lambda a, k, r: _file_size(_arg(a, k, 1, "path"))),
    "io.write_weights_csv": ("io.bytes_written", lambda a, k, r: _file_size(_arg(a, k, 2, "path"))),
    "io.basis_to_json": ("io.bytes_written", lambda a, k, r: len(r)),
    "io.models_to_json": ("io.bytes_written", lambda a, k, r: len(r)),
}
COUNTER_NAMES = ("linalg.svd.cells", "io.bytes_read", "io.bytes_written")


class Tracer:
    """Records spans for the traced functions while installed.

    Build it after ``agecomp`` is imported; ``install`` and ``uninstall``
    swap the wrappers in and out so untraced passes run the original code.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._patches = []
        modules = [m for n, m in sys.modules.items() if n == "agecomp" or n.startswith("agecomp.")]
        for module, attrs in TRACED.items():
            mod = sys.modules[f"agecomp.{module}"]
            for attr in attrs:
                name = span_name(module, attr)
                if "." in attr:
                    cls, leaf = attr.split(".")
                    owner = getattr(mod, cls)
                    orig = owner.__dict__[leaf]
                    bindings = [(owner, leaf)]
                else:
                    orig = getattr(mod, attr)
                    bindings = [(m, k) for m in modules for k, v in vars(m).items() if v is orig]
                wrapped = self._wrap(name, orig, COUNTERS.get(name))
                self._patches += [(owner, key, orig, wrapped) for owner, key in bindings]

    def _wrap(self, name, fn, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, ok)
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, orig, _ in reversed(self._patches):
            setattr(owner, key, orig)

    def run_pass(self, fn, *args):
        """Run fn(*args) traced, under one root span; returns its result."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self.install()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._stack.pop()
            self.spans[sid] = (ROOT, start, end, -1, True)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans, counts, n_passes: int) -> dict:
    """Per-pass layer metrics from the spans of n_passes traced passes.

    Times and counts are means per traced pass.  The module self times plus
    ``bench.self_s`` (time inside a pass not under any traced function, i.e.
    the benchmark's own code) add up to ``trace.pass_s_mean``.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    ok_calls = defaultdict(int)
    total = 0.0
    for (name, start, end, _, ok), st in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += st
        ok_calls[name] += ok
        if name == ROOT:
            total += end - start
    per = 1.0 / max(n_passes, 1)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] * per
        out[f"{name}.self_s"] = self_s[name] * per
    for module in (*MODULES, "bench"):
        mod_self = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == module)
        out[f"{module}.self_s"] = mod_self * per
        out[f"{module}.share"] = mod_self / total if total > 0 else 0.0
    attempts = calls["cluster.fit_gmm_em"]
    out["cluster.grid_ok_ratio"] = ok_calls["cluster.fit_gmm_em"] / attempts if attempts else 0.0
    for name in COUNTER_NAMES:
        out[name] = counts[name] * per
    out["trace.pass_s_mean"] = total * per
    return out


def write_spans(path, spans) -> None:
    """Spans as compact JSON lines: name table first, then one span a line."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"names": names, "fields": ["name", "start", "end", "parent", "ok"]}) + "\n")
        for name, start, end, parent, ok in spans:
            fh.write(f"[{index[name]},{start!r},{end!r},{parent},{int(ok)}]\n")
