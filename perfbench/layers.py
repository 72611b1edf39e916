"""Layer spans recorded from outside the package.

``Tracer.install`` wraps the public entry points of each adjkit module at
runtime; no adjkit source changes.  A name that another module re-imported
at import time (``from .factor import factor_right``) is rebound in every
adjkit namespace that holds it, and class-level aliases such as
``Polynomial.__rmul__ = __mul__`` get the same wrapper.

Per span name the tracer keeps, in memory: calls, self time (span time
minus the time of its child spans) and work counts.  Peak-RSS growth is
charged to the layer of the innermost open span.  ``write`` saves
everything once, at the end.  Domain scalar ops are too fine-grained to
wrap; their cost shows as the self time of the calling layer.
"""

from __future__ import annotations

import json
import resource
import time
from collections import defaultdict

LAYERS = ("kernels", "polyring", "matrix", "factor", "identities",
          "specialize", "cli")


def _pairs(a, b):
    return len(a) * len(b)


# kernels: every dispatcher name -> span name
KERNELS = {
    "add_terms": "kernels.addscale", "neg_terms": "kernels.addscale",
    "scale_terms": "kernels.addscale", "add_terms_mod": "kernels.addscale",
    "neg_terms_mod": "kernels.addscale", "scale_terms_mod": "kernels.addscale",
    "mul_terms": "kernels.mul", "mul_terms_mod": "kernels.mul",
    "fma_terms": "kernels.fma", "fma_terms_mod": "kernels.fma",
    "sub_scaled_terms": "kernels.sub_scaled",
    "sub_scaled_terms_mod": "kernels.sub_scaled",
    "det_laplace_terms": "kernels.det_tuple",
    "det_laplace_terms_mod": "kernels.det_tuple",
    "packed_mul_terms": "kernels.packed_mul",
    "packed_det_laplace": "kernels.packed_det",
}

# (module, qualified name) -> span name, for the other layers: the entry
# points the workloads reach (PolyRing.parse is a named metric; no workload
# parses polynomial strings, so it reads 0)
ENTRY_POINTS = {
    ("polyring", "Polynomial.__mul__"): "polyring.mul",
    ("polyring", "Polynomial.__add__"): "polyring.add",
    ("polyring", "Polynomial.__sub__"): "polyring.add",
    ("polyring", "Polynomial.__rsub__"): "polyring.add",
    ("polyring", "Polynomial.__neg__"): "polyring.add",
    ("polyring", "Polynomial.__eq__"): "polyring.eq",
    ("polyring", "Polynomial.__str__"): "polyring.str",
    ("polyring", "Polynomial.exact_div"): "polyring.exact_div",
    ("polyring", "PolyRing.parse"): "polyring.parse",
    ("polyring", "PolyRing.from_terms"): "polyring.from_terms",
    ("matrix", "Matrix.__mul__"): "matrix.mul",
    ("matrix", "Matrix.__add__"): "matrix.add",
    ("matrix", "Matrix.__sub__"): "matrix.add",
    ("matrix", "Matrix.__neg__"): "matrix.add",
    ("matrix", "Matrix.scale"): "matrix.add",
    ("matrix", "Matrix.__eq__"): "matrix.eq",
    ("matrix", "Matrix.det_laplace"): "matrix.det_laplace",
    ("matrix", "Matrix.det_equals"): "matrix.det_equals",
    ("matrix", "Matrix.det_bareiss"): "matrix.det_bareiss",
    ("matrix", "Matrix._det_gauss"): "matrix.det_field",
    ("matrix", "Matrix.inverse"): "matrix.inverse",
    ("matrix", "Matrix.rank"): "matrix.rank",
    ("matrix", "Matrix.adjugate"): "matrix.adjugate",
    ("matrix", "Matrix.compound"): "matrix.compound",
    ("matrix", "Matrix.complementary_compound"): "matrix.complementary_compound",
    ("matrix", "Matrix.to_json"): "matrix.to_json",
    ("factor", "GenericContext.__init__"): "factor.context",
    ("factor", "GenericContext.det_power"): "factor.det_power",
    ("factor", "verify_fundamental"): "factor.fundamental",
    ("factor", "sandwich"): "factor.sandwich",
    ("factor", "quotient_matrix"): "factor.quotient",
    ("factor", "random_alternating"): "factor.alternating",
    ("factor", "standard_symplectic"): "factor.alternating",
    ("factor", "factor_right"): "factor.certificate",
    ("factor", "factor_left"): "factor.certificate",
    ("factor", "reverify_certificate"): "factor.certificate",
    ("factor", "solve_common_refinement"): "factor.refine",
    ("identities", "run_symbolic_suite"): "identities.symbolic_suite",
    ("identities", "compound_det_check"): "identities.compound_det_check",
    ("specialize", "sz_check"): "specialize.sz_check",
    ("cli", "main"): "cli.main",
}

# work counts of a span: span -> f(args, result) -> (pairs, terms)
COUNTERS = {
    "kernels.mul": lambda a, r: (_pairs(a[0], a[1]), len(r)),
    "kernels.fma": lambda a, r: (_pairs(a[1], a[2]), 0),
    "kernels.packed_mul": lambda a, r: (_pairs(a[0], a[1]), len(r)),
    "polyring.mul": lambda a, r: (
        len(a[0].terms) * len(getattr(a[1], "terms", (0,))),
        len(r.terms) if hasattr(r, "terms") else 0),
    "polyring.exact_div": lambda a, r: (0, len(r.terms) if r is not None else 0),
}


# metric suffix -> (index in a stats row, unit)
FIELDS = {"calls": (0, "count"), "self_s": (1, "s"), "pairs": (2, "count"),
          "terms_out": (3, "count"), "quot_terms": (3, "count")}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds, pairs, terms]
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0, 0])
        self.rss_growth_kb: dict = defaultdict(int)
        self.top_s = 0.0           # total time of spans opened at depth 0
        self._stack: list = []     # open spans: [layer, child seconds, rss mark]
        self._saved: list = []     # (owner, attribute, original) to restore

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        stats = self.stats[name]
        counter = COUNTERS.get(name)
        stack = self._stack
        growth = self.rss_growth_kb
        perf = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            rss = _maxrss_kb()
            if stack:
                parent = stack[-1]
                growth[parent[0]] += rss - parent[2]
            frame = [layer, 0.0, rss]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                rss = _maxrss_kb()
                growth[layer] += rss - frame[2]
                stats[0] += 1
                stats[1] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    stack[-1][2] = rss
                else:
                    tracer.top_s += dt
            if counter is not None:
                pairs, terms = counter(args, out)
                stats[2] += pairs
                stats[3] += terms
            return out

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    # -- installing the wrappers --------------------------------------------

    def install(self) -> None:
        import adjkit
        from adjkit import (cli, factor, identities, kernels, matrix, polyring,
                            specialize)
        modules = {"kernels": kernels, "polyring": polyring, "matrix": matrix,
                   "factor": factor, "identities": identities,
                   "specialize": specialize, "cli": cli}
        namespaces = [adjkit] + list(modules.values())
        wrappers = {}    # id(original) -> wrapper
        for attr, name in KERNELS.items():
            self._replace(kernels, attr, name, wrappers)
        for (mod, qualname), name in ENTRY_POINTS.items():
            owner = modules[mod]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = self._replace(owner, attr, name, wrappers)
            # class-level aliases (__rmul__ = __mul__, __radd__ = __add__)
            for alias, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, alias, wrappers[id(original)])
        # module-level names that other adjkit modules re-imported
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    self._set(ns, attr, wrapper)

    def _replace(self, owner, attr: str, name: str, wrappers: dict):
        original = vars(owner)[attr]
        wrapper = wrappers.get(id(original))
        if wrapper is None:
            wrapper = wrappers[id(original)] = self._wrap(original, name)
        self._set(owner, attr, wrapper)
        return original

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------------

    def fired(self, name: str) -> bool:
        return name in self.stats and self.stats[name][0] > 0

    def layer_metrics(self) -> dict:
        """The per-layer metrics that BENCHMARK.json lists (without trace.*)."""
        def get(name, field):
            return self.stats.get(name, (0, 0.0, 0, 0))[field]

        out = {}

        def put(name, *fields):
            for f in fields:
                field, unit = FIELDS[f]
                out[f"{name}.{f}"] = (get(name, field), unit)

        put("kernels.packed_mul", "calls", "pairs", "terms_out", "self_s")
        put("kernels.packed_det", "calls", "self_s")
        put("kernels.fma", "calls", "pairs", "self_s")
        put("kernels.mul", "calls", "pairs", "self_s")
        put("kernels.det_tuple", "self_s")
        put("kernels.addscale", "self_s")
        put("kernels.sub_scaled", "calls", "self_s")
        put("polyring.mul", "calls", "pairs", "self_s")
        packed = get("kernels.packed_mul", 2)
        total = packed + get("kernels.mul", 2)
        out["polyring.mul.packed_share"] = (packed / total if total else 0.0, "ratio")
        put("polyring.exact_div", "calls", "quot_terms", "self_s")
        for name in ("polyring.eq", "polyring.str", "polyring.parse",
                     "matrix.to_json", "cli.main"):
            put(name, "self_s")
        for name in ("matrix.mul", "matrix.det_laplace", "matrix.adjugate",
                     "matrix.compound", "matrix.eq"):
            put(name, "calls", "self_s")
        for name in ("matrix.det_field", "matrix.inverse", "matrix.rank",
                     "factor.context", "factor.det_power", "factor.certificate",
                     "factor.refine", "identities.symbolic_suite",
                     "identities.compound_det_check"):
            put(name, "self_s")
        put("specialize.sz_check", "calls", "self_s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(row[1] for n, row in self.stats.items()
                    if n.startswith(layer + ".")), "s")
            out[f"{layer}.maxrss_growth_mb"] = (self.rss_growth_kb[layer] / 1024, "MB")
        return out

    def dump(self) -> dict:
        return {
            "spans": {name: {"calls": row[0], "self_s": row[1], "pairs": row[2],
                             "terms": row[3]}
                      for name, row in sorted(self.stats.items()) if row[0]},
            "maxrss_growth_mb": {k: v / 1024 for k, v in self.rss_growth_kb.items()},
            "top_level_s": self.top_s,
        }

    def write(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, **self.dump()}, fh, indent=1, sort_keys=True)
            fh.write("\n")

