"""Per-layer tracing of one geoalg pass, installed from outside the program.

`Tracer.install()` rebinds functions of the imported `geoalg` modules:

* public entry points of the engines get a span (name, start, end,
  parent) recorded in memory; a span's self time is its duration minus
  the durations of its child spans;
* ring operations (`Expr.__mul__`/`__add__`/`subst`, `Mat.det`),
  `_pair_bracket` and the numeric oracle's function evaluations are only
  counted, because they run up to millions of times.

Every namespace that bound the original function object is patched, so
names imported with `from .x import f` and class aliases such as
`Expr.__rmul__ = __mul__` are traced too.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

now = time.perf_counter

# traced function -> layer whose self time and calls it adds to
SPAN_LAYERS = {
    "dn_algebra.bracket": "dn_algebra.bracket",
    "dn_algebra.semiclassical_reflection_check": "dn_algebra.reflection",
    "ks_calculus.ks_bracket_symbolic": "ks_calculus.skein",
    "ks_calculus.skein_reduce": "ks_calculus.skein",
    "ks_calculus.ks_bracket_numeric": "ks_calculus.numeric",
    "fatgraph.geodesic_function": "fatgraph.geodesic",
    "fatgraph.goldman_bracket": "fatgraph.goldman",
    "frobenius.realization_suite": "frobenius.realization",
    "frobenius.realization_check": "frobenius.realization",
    "frobenius.clash_block": "frobenius.exact",
    "frobenius.product_identity": "frobenius.exact",
    "frobenius.gk_mirror_check": "frobenius.exact",
    "frobenius.all_ones_report": "frobenius.exact",
}
# modules whose public functions together form one layer
WHOLE_MODULES = ("braid", "reductions", "centers")


def _size(e) -> int:
    # the term dict when `Expr` still stores one, else its public iterator
    d = getattr(e, "_d", None)
    return len(d) if d is not None else sum(1 for _ in e.terms())


def _layer(name: str):
    mod = name.split(".", 1)[0]
    return SPAN_LAYERS.get(name, mod if mod in WHOLE_MODULES else None)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self._stack = []
        self.counts = Counter()
        self.pair_keys = set()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (name, t0, now(), parent)

        return wrapper

    def _ring_op(self, name, fn, timed=False):
        """Count calls and terms produced; time only the outermost call."""
        counts = self.counts
        depth = [0]

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if timed and not depth[0]:
                depth[0] = 1
                t0 = now()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    depth[0] = 0
                    counts[name + ".s"] += now() - t0
            else:
                out = fn(*args, **kwargs)
            if out is not NotImplemented:
                n = _size(out)
                counts[name + ".terms_out"] += n
                if n > counts["poly_core.expr.max_terms"]:
                    counts["poly_core.expr.max_terms"] = n
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        from geoalg import dn_algebra, frobenius, ks_calculus, poly_core

        counts, keys = self.counts, self.pair_keys
        expr, mat = poly_core.Expr, poly_core.Mat
        mods = [m for name, m in sys.modules.items()
                if name.startswith("geoalg.") and m is not None]

        replace = {
            expr.__mul__: self._ring_op("poly_core.mul", expr.__mul__),
            expr.__add__: self._ring_op("poly_core.add", expr.__add__),
            expr.subst: self._ring_op("poly_core.subst", expr.subst, True),
        }
        det = self._ring_op("poly_core.det", mat.det, True)

        def det_sized(m):
            counts["poly_core.det.max_n"] = max(counts["poly_core.det.max_n"],
                                                len(m.rows))
            return det(m)

        replace[mat.det] = det_sized

        pair = dn_algebra._pair_bracket

        def pair_bracket(alg, a, b):
            counts["dn_algebra.pair_bracket.calls"] += 1
            keys.add((alg, a, b))
            return pair(alg, a, b)

        replace[pair] = pair_bracket

        numeric = ks_calculus.ks_bracket_numeric

        def counting(fn):
            def evaluate(mats):
                counts["ks_calculus.numeric.f_evals"] += 1
                return fn(mats)
            return evaluate

        def bracket_numeric(f, g, *args, **kwargs):
            return numeric(counting(f), counting(g), *args, **kwargs)

        check = frobenius.realization_check

        def realization_check(*args, **kwargs):
            counts["frobenius.points.calls"] += 1
            out = check(*args, **kwargs)
            counts["frobenius.points.accepted"] += 1
            return out

        inner = {numeric: bracket_numeric, check: realization_check}
        for mod in mods:
            short = mod.__name__.split(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (name in SPAN_LAYERS or (short in WHOLE_MODULES
                                                     and attr[0] != "_"))):
                    replace[fn] = self._span(name, inner.get(fn, fn))

        for ns in mods + [expr, mat]:
            for attr, value in list(vars(ns).items()):
                if callable(value) and value in replace:
                    setattr(ns, attr, replace[value])

    # -- summary ----------------------------------------------------------

    def layers(self) -> dict:
        """Raw sums of this pass; ratios are formed over whole rounds."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter(self.counts)
        out["dn_algebra.pair_bracket.distinct"] = len(self.pair_keys)
        for (name, t0, t1, _), inner in zip(self.spans, child):
            layer = _layer(name)
            out[layer + ".calls"] += 1
            out[layer + ".self_s"] += (t1 - t0) - inner
        return dict(out)
