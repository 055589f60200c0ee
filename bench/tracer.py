"""Outside-in layer tracing for the benchmark.

The tracer replaces each listed public function of the library with a
wrapper at every module binding (several modules import `interp_matrix`,
`ideal_dim`, `project_from`, `flat_through` and `span_dim` by name), and
puts the originals back on `uninstall`. Each call becomes a span
(name, start, end, parent index, probe value) kept in memory; self time
is a span's duration minus the part covered by its child spans. No file
of the library is touched.
"""

import functools
import json
import statistics
import sys
from time import perf_counter

import numpy as np

LAYERS = {
    "linalg": ("rank", "rref", "det", "kernel_basis", "inv_matrix",
               "mat_mul"),
    "ideals": ("interp_matrix", "ideal_dim", "hilbert_h_vector",
               "coprime_plane_curves"),
    "projgeom": ("project_from", "flat_through", "span_dim"),
    "combinat": ("line_census", "plane_census", "weak_comb_equivalent"),
    "ks": ("ortho_graph", "is_ks_set"),
    "certify": ("detect_grid", "is_geproci", "geprocb", "is_ci222_p4",
                "remembers"),
    "unexpected": ("adim", "vdim"),
    "weddle": ("weddle_degree",),
    "cli": ("main",),
    "configs": ("named", "load"),
    "field": ("make_field",),
}

# the three entry points that run an elimination on their argument
_ELIMINATING = {"linalg.rank", "linalg.rref", "linalg.det"}


def _shape(M):
    shape = getattr(M, "shape", None)
    if shape is None:
        shape = np.shape(M)
    return (1, shape[0]) if len(shape) == 1 else shape[:2]


def _probe(name, args, result, exc):
    """Per-call value a layer metric needs, or None."""
    if name in _ELIMINATING:
        return _shape(args[0]) if exc is None else None
    if name == "ideals.interp_matrix":
        return result.shape if exc is None else None
    if name == "ideals.coprime_plane_curves":
        return bool(result) if exc is None else False
    if name == "projgeom.project_from":
        return exc is not None and type(exc).__name__ in (
            "VertexInZ", "CollisionDetected")
    return None


class Tracer:
    """Span recorder with install/uninstall of the function wrappers."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent, probe)
        self._stack = []
        self._patched = []   # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent,
                              _probe(name, args, result, exc))

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _library_modules()
        for layer, names in LAYERS.items():
            home = sys.modules[f"geproci.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self._stack.clear()

def write_spans(path, phases):
    """Spans as JSON lines [phase, name, start, end, parent]; the parent
    is an index into the same phase's spans, -1 for a root span."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans in phases.items():
            for name, start, end, parent, _ in spans:
                fh.write(json.dumps([phase, name, start, end, parent]) + "\n")


def _library_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "geproci" or k.startswith("geproci."))]


def wrappers_left():
    """Bindings in library modules that still hold a tracer wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in _library_modules()
            for attr, value in vars(mod).items()
            if hasattr(value, "__bench_wrapped__")]


def layer_stats(spans):
    """Per-function calls, self time and probe aggregates, plus the time
    covered by root spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    covered = 0.0
    for i, (name, start, end, parent, probe) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "probes": []})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[i]
        if probe is not None:
            s["probes"].append(probe)
        if parent < 0:
            covered += end - start
    return stats, covered


def merge_stats(a, b):
    """Stats of two span lists taken together."""
    out = {}
    for stats in (a, b):
        for name, s in stats.items():
            m = out.setdefault(name, {"calls": 0, "self_s": 0.0, "probes": []})
            m["calls"] += s["calls"]
            m["self_s"] += s["self_s"]
            m["probes"] = m["probes"] + s["probes"]
    return out


def _frac(values):
    return sum(1 for v in values if v) / len(values) if values else 0.0


def layer_metrics(stats):
    """Flat per-layer metric values from one stats dict."""
    out = {}
    for layer, names in LAYERS.items():
        for fname in names:
            s = stats.get(f"{layer}.{fname}",
                          {"calls": 0, "self_s": 0.0, "probes": []})
            key = f"{layer}.{fname}"
            out[f"{key}.calls"] = s["calls"]
            out[f"{key}.self_s"] = s["self_s"]
            if key == "ideals.interp_matrix":
                out[f"{key}.rows"] = sum(r for r, _ in s["probes"])
                out[f"{key}.cells"] = sum(r * c for r, c in s["probes"])
            elif key == "ideals.coprime_plane_curves":
                out[f"{key}.yes_frac"] = _frac(s["probes"])
            elif key == "projgeom.project_from":
                out[f"{key}.retry_frac"] = _frac(s["probes"])
    shapes = [shape for key in _ELIMINATING
              for shape in stats.get(key, {"probes": []})["probes"]]
    out["linalg.elim_cells"] = sum(r * c for r, c in shapes)
    out["linalg.elim_ops"] = sum(r * c * min(r, c) for r, c in shapes)
    return out


def median_metrics(per_pass):
    """Key-wise median over a list of metric dicts."""
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
