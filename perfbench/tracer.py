"""Span tracer for the traced benchmark run.

Wraps public functions of the ``sloccgeo`` modules from outside the
package: every module namespace that binds the original object gets the
wrapper, so calls through ``from .x import f`` aliases and lazy imports are
seen too.  ``Matrix.rref`` and ``Matrix.det`` are wrapped on the class, and
rref spans are split by field (``rref_q`` over Q, ``rref_p`` over F_p).

Spans are kept in memory as ``[name, start, end, parent]`` and written out
once, after the run.  Untraced runs never import this module.
"""

import gzip
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); a span name shared by two attributes
# merges them into one layer metric.
FUNCTIONS = (
    ("states", "parse_state", "states.parse_state"),
    ("states", "apply_slocc", "states.apply_slocc"),
    ("states", "flattening_image", "states.flattening_image"),
    ("states", "reduced_flattening_image", "states.reduced_flattening_image"),
    ("geometry", "enumerate_points", "geometry.enumerate_points"),
    ("geometry", "smoothness_scan", "geometry.smoothness_scan"),
    ("geometry", "model_mod_p", "geometry.model_mod_p"),
    ("geometry", "variety_from_state", "geometry.variety_from_state"),
    ("geometry", "determinantal_projection", "geometry.determinantal_projection"),
    ("invariants", "aronhold_invariants", "invariants.aronhold_invariants"),
    ("invariants", "branch_quartic", "invariants.branch_quartic"),
    ("invariants", "schlaefli_hyperdet", "invariants.schlaefli_hyperdet"),
    ("invariants", "classify", "invariants.classify"),
    ("invariants", "slocc_compare", "invariants.slocc_compare"),
    ("invariants", "exact_projection_discriminants", "invariants.exact_projection_discriminants"),
    ("invariants", "curve_singular_mod_p", "invariants.curve_singular_mod_p"),
    ("zalgebra", "relations_from_points", "zalgebra.relations_from_points"),
    ("zalgebra", "quadratic_hilbert", "zalgebra.hilbert"),
    ("zalgebra", "cubic_hilbert", "zalgebra.hilbert"),
    ("zalgebra", "roundtrip_check", "zalgebra.roundtrip_check"),
    ("zalgebra", "multiplication_surjectivity", "zalgebra.multiplication_surjectivity"),
    ("cli", "run", "cli.run"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in FUNCTIONS] + ["linalg.rref_q", "linalg.rref_p", "linalg.det"]
))


def _projective_count(d, p):
    return (p**d - 1) // (p - 1)


class Tracer:
    """Records spans and work counters while ``install`` is in effect."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.patches = []

    def _span(self, name, fn, args, kwargs, after=None):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if after is not None:
                after(args, kwargs, None, exc)
            raise
        finally:
            self.spans[index][2] = time.perf_counter()
            self.stack.pop()
        if after is not None:
            after(args, kwargs, result, None)
        return result

    def _wrap(self, name, fn, after):
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs, after)

        wrapper.__wrapped__ = fn
        wrapper.span_name = name
        return wrapper

    # work counters, called after the wrapped function returns or raises

    def _after_enumerate(self, args, kwargs, result, exc):
        if exc is not None:
            return
        model, p = args[0], args[1]
        n_proj = _projective_count(model.d, p)
        if model.groups > 1:
            self.counts["geometry.enumerate_points.prefixes"] += n_proj ** (model.groups - 1)
            self.counts["geometry.enumerate_points.hits"] += len(
                {pt.coords[:-1] for pt in result}
            )
        else:
            self.counts["geometry.enumerate_points.prefixes"] += n_proj
            self.counts["geometry.enumerate_points.hits"] += len(result)
        self.counts["geometry.enumerate_points.points"] += len(result)

    def _after_scan(self, args, kwargs, result, exc):
        from sloccgeo.linalg import DEFAULT_PRIMES

        primes = args[1] if len(args) > 1 else kwargs.get("primes")
        tried = len(set(primes if primes is not None else DEFAULT_PRIMES))
        key = "geometry.smoothness_scan."
        self.counts[key + "primes_tried"] += tried
        if exc is not None:
            self.counts[key + "primes_bad"] += tried
            return
        self.counts[key + "primes_used"] += len(result.primes)
        self.counts[key + "primes_bad"] += len(result.bad_primes)
        self.counts[key + "primes_excluded"] += len(result.excluded_primes)

    def _after_curve_singular(self, args, kwargs, result, exc):
        if result is True:
            self.counts["invariants.curve_singular_mod_p.true"] += 1

    def _after_relations(self, args, kwargs, result, exc):
        from sloccgeo.errors import InsufficientPointsError

        if isinstance(exc, InsufficientPointsError):
            self.counts["zalgebra.relations_from_points.insufficient"] += 1

    def _after_hilbert(self, args, kwargs, result, exc):
        if result is not None and result.matches():
            self.counts["zalgebra.hilbert.matches"] += 1

    def install(self):
        """Patch every target in every ``sloccgeo`` namespace binding it."""
        from sloccgeo import cli, geometry, invariants, linalg, states, zalgebra

        modules = {
            "states": states, "geometry": geometry, "invariants": invariants,
            "zalgebra": zalgebra, "cli": cli,
        }
        after = {
            "geometry.enumerate_points": self._after_enumerate,
            "geometry.smoothness_scan": self._after_scan,
            "invariants.curve_singular_mod_p": self._after_curve_singular,
            "zalgebra.relations_from_points": self._after_relations,
            "zalgebra.hilbert": self._after_hilbert,
        }
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if (key == "sloccgeo" or key.startswith("sloccgeo.")) and mod is not None
        ]
        for module, attr, name in FUNCTIONS:
            original = getattr(modules[module], attr)
            wrapper = self._wrap(name, original, after.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self.patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

        matrix = linalg.Matrix
        rref, det = matrix.rref, matrix.det
        tracer = self

        def traced_rref(m):
            name = "linalg.rref_q" if m.p is None else "linalg.rref_p"
            tracer.counts[name + ".cells"] += m.rows * m.cols
            return tracer._span(name, rref, (m,), {})

        def traced_det(m):
            return tracer._span("linalg.det", det, (m,), {})

        traced_rref.span_name, traced_det.span_name = "linalg.rref", "linalg.det"
        for attr, wrapper, original in (("rref", traced_rref, rref), ("det", traced_det, det)):
            self.patches.append((matrix, attr, original))
            setattr(matrix, attr, wrapper)

    def uninstall(self):
        """Undo every patch, newest first, and check that no wrapper is left."""
        namespaces = {id(ns): ns for ns, _, _ in self.patches}
        while self.patches:
            ns, key, original = self.patches.pop()
            setattr(ns, key, original)
        left = [
            f"{getattr(ns, '__name__', ns)}.{key}"
            for ns in namespaces.values()
            for key, value in vars(ns).items()
            if hasattr(value, "span_name")
        ]
        if left:
            raise RuntimeError(f"tracer patches left behind: {left}")

    def layer_metrics(self):
        """calls and self time per span name, plus the work counters."""
        calls = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            self_time[name] += end - start - covered
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = calls[name]
            out[name + ".self_ms"] = self_time[name] * 1000.0
        out.update(self.counts)
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
