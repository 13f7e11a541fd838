"""Outside-in tracing of auxsel's layers, installed from the benchmark.

The tracer replaces module attributes at the names callers look up (for
example ``auxsel.simlab.fit_em_b`` or ``auxsel.loocv.warm_fit_b``) with
wrappers that record a span per call: name, start, end and parent.
Spans stay in memory until the run ends.  A layer's self time is the
duration of its spans minus the time covered by their child spans; the
benchmark's own round span is the root, so its self time is the part of
the traced wall time that no wrapper covers.  Calls too frequent for a
span each (``require_valid``) are only counted.  No package source is
changed: ``uninstall`` puts every original attribute back.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

ROOT = "round"

# span name -> the (module, attribute) pairs it wraps; the module is the
# caller's namespace, because that is where the name is looked up.
SPANS = {
    "gmm.fit_em_b": [("gmm", "fit_em_b"), ("simlab", "fit_em_b"), ("wine", "fit_em_b"),
                     ("cli", "fit_em_b"), ("loocv", "fit_em_b")],
    "gmm.fit_em_y": [("gmm", "fit_em_y"), ("simlab", "fit_em_y"), ("wine", "fit_em_y"),
                     ("cli", "fit_em_y"), ("loocv", "fit_em_y")],
    "gmm.warm_fit": [("loocv", "warm_fit_b"), ("loocv", "warm_fit_y")],
    "infomat.estimate_info": [("simlab", "estimate_info"), ("wine", "estimate_info"),
                              ("cli", "estimate_info"), ("loocv", "estimate_info")],
    "criteria": [("simlab", "aic_xb"), ("simlab", "aic_xy"), ("simlab", "aic_yb"),
                 ("simlab", "aic_yy"), ("wine", "aic_xb"), ("wine", "aic_xy"),
                 ("wine", "select_auxiliary"), ("cli", "aic_xb"), ("cli", "aic_xy"),
                 ("cli", "risk_xb"), ("cli", "tic"), ("cli", "select_auxiliary"),
                 ("loocv", "risk_xb")],
    "simlab.loss": [("simlab", "loss_x"), ("simlab", "loss_y")],
    "simlab.generate": [("simlab", "generate")],
    "simlab": [("simlab", "run_replicates")],
    "wine": [("wine", "run_wine")],
    "loocv": [("loocv", "loocv_risk"), ("loocv", "equivalence_gap")],
    "loocv.fold_score": [("loocv", "logdens_y"), ("loocv", "f_plugin")],
    "cli": [("cli", "main")],
}
COUNTED = {"model.require_valid": ("gmm", "require_valid")}


class Tracer:
    """Span recorder plus the counts read from the objects calls return."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self._stack = []
        self.counts = Counter()
        self._saved = []

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._on_error(name, exc)
                raise
            finally:
                tracer.close()
            tracer._on_result(name, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _on_result(self, name, result):
        c = self.counts
        if name in ("gmm.fit_em_b", "gmm.fit_em_y", "gmm.warm_fit"):
            c[name + ".iters"] += result.iterations
            c[name + ".unconverged"] += not result.converged
            c[name + ".floored"] += bool(result.cov_floored)
        elif name == "simlab":
            c["simlab.excluded"] += result[1]
        elif name == "wine":
            c["wine.candidate_failures"] += sum(r["candidate_failures"] for r in result)
            c["wine.splits_excluded"] += sum(r["splits_excluded"] for r in result)
        elif name == "loocv" and hasattr(result, "refit_failures"):
            c["loocv.fallbacks"] += result.refit_failures

    def _on_error(self, name, exc):
        from auxsel.model import IllConditionedError

        if name == "criteria" and isinstance(exc, IllConditionedError):
            self.counts["criteria.ill_conditioned"] += 1

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        mod = {name: importlib.import_module(f"auxsel.{name}")
               for name in ("gmm", "simlab", "wine", "cli", "loocv", "model")}
        for span, sites in SPANS.items():
            for module, attr in sites:
                self._set(mod[module], attr, self._wrap(span, getattr(mod[module], attr)))
        for name, (module, attr) in COUNTED.items():
            self._set(mod[module], attr, self._count(name, getattr(mod[module], attr)))
        # methods of auxsel.model.Dataset: the validation of every dataset
        # constructed (fold subsets included) and CSV parsing
        dataset = mod["model"].Dataset
        self._set(dataset, "__post_init__",
                  self._wrap("model.dataset", dataset.__dict__["__post_init__"]))
        self._set(dataset, "from_csv",
                  classmethod(self._wrap("model.from_csv",
                                         dataset.__dict__["from_csv"].__func__)))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, summed duration, summed self time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return out

    def write(self, path):
        """Spans as JSON lines: name, start and end (s from the first span), parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def layer_metrics(tracer, overhead_s):
    """The per-layer metrics of one traced run, by name, with units."""
    st = tracer.self_times()
    c = tracer.counts
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    for name in ("gmm.fit_em_b", "gmm.fit_em_y", "gmm.warm_fit"):
        calls, _, self_s = st[name]
        iters = c[name + ".iters"]
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", self_s, "s")
        put(f"{name}.ms_per_call", per(self_s, calls, 1e3), "ms")
        put(f"{name}.iters", iters, "count")
        put(f"{name}.us_per_iter", per(self_s, iters, 1e6), "us")
        if name != "gmm.warm_fit":
            put(f"{name}.unconverged", c[name + ".unconverged"], "count")
            put(f"{name}.floored", c[name + ".floored"], "count")
    calls, _, self_s = st["infomat.estimate_info"]
    put("infomat.estimate_info.calls", calls, "count")
    put("infomat.estimate_info.self_s", self_s, "s")
    put("infomat.estimate_info.ms_per_call", per(self_s, calls, 1e3), "ms")
    put("criteria.calls", st["criteria"][0], "count")
    put("criteria.self_s", st["criteria"][2], "s")
    put("criteria.ill_conditioned", c["criteria.ill_conditioned"], "count")
    put("simlab.loss.calls", st["simlab.loss"][0], "count")
    put("simlab.loss.self_s", st["simlab.loss"][2], "s")
    put("simlab.generate.self_s", st["simlab.generate"][2], "s")
    put("simlab.self_s", st["simlab"][2], "s")
    put("simlab.excluded", c["simlab.excluded"], "count")
    put("wine.self_s", st["wine"][2], "s")
    put("wine.candidate_failures", c["wine.candidate_failures"], "count")
    put("wine.splits_excluded", c["wine.splits_excluded"], "count")
    put("loocv.self_s", st["loocv"][2], "s")
    put("loocv.fold_score.self_s", st["loocv.fold_score"][2], "s")
    put("loocv.fallbacks", c["loocv.fallbacks"], "count")
    put("model.require_valid.calls", c["model.require_valid.calls"], "count")
    put("model.dataset.calls", st["model.dataset"][0], "count")
    put("model.dataset.self_s", st["model.dataset"][2], "s")
    put("model.from_csv.self_s", st["model.from_csv"][2], "s")
    put("cli.self_s", st["cli"][2], "s")
    put("trace.wall_s", st[ROOT][1], "s")
    put("trace.uncovered_s", st[ROOT][2], "s")
    put("trace.overhead_s", overhead_s, "s")
    return m
