"""Outside-in tracer for the benchmark's traced run.

The tracer wraps the engine's public functions and the arithmetic methods of
its value classes from outside: each module-level function is replaced in
every namespace that binds it (the defining module, the modules that import
it by name, the package namespace and the verify suite table), and each
method is replaced on its class.  Nothing under the engine's source changes,
and `restore()` puts every original object back, so untraced runs measure
unpatched code.

Every wrapped call counts once and records its duration and self time (its
duration minus the time spent in wrapped calls it made).  Calls to module
functions are also kept as spans (label, start, end, parent span, job) up
to MAX_SPANS; arithmetic-method calls, which run millions of times, are
aggregated only.  Private kernels are classified at the public boundary
from their inputs: a polynomial product whose shorter operand has at least
KRONECKER_CUTOFF coefficients takes the Kronecker path, and a gcd of two
polynomials of positive degree takes the generic PRS path.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("algebra", "padic", "qmeasure", "qnumbers", "characters", "series", "verify", "cli")

# classes whose methods are wrapped; None wraps every public method and
# every dunder in ARITHMETIC, a tuple wraps just those names
CLASSES = {
    "algebra": {"Polynomial": ("__mul__", "__rmul__"),
                "RationalFunction": None, "CyclotomicElement": None},
    "padic": {"PadicNumber": None},
    "qmeasure": {"QDescriptor": None, "MeasureSpec": None},
    "series": {"TruncatedSeries": None},
}
ARITHMETIC = frozenset({"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                        "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
                        "__eq__", "__divmod__"})
# layers whose wrapped functions are limited to these names (cli: only main,
# so its self time is argument parsing and JSON emission)
ONLY_FUNCTIONS = {"cli": ("main",)}

PADIC_OPS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__neg__", "__pow__", "reciprocal"})
KRONECKER_CUTOFF = 40
MAX_SPANS = 100_000

QNUMBERS = ("k_number", "beta_number", "k_polynomial", "beta_polynomial",
            "k_distribution_rhs", "k_chi")
SERIES = ("f_q_series", "series_exp", "series_inverse", "f_q_coefficient_partial")
SUITES = ("measure", "kpoly-forms", "finite-sum", "distribution", "char-twist",
          "beta-forms", "limits", "genfunc", "partial-sums", "convergence")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("algebra.poly_mul.calls", "count"), ("algebra.poly_mul.large_calls", "count"),
           ("algebra.poly_mul.self_s", "s"),
           ("algebra.poly_gcd.calls", "count"), ("algebra.poly_gcd.nontrivial_calls", "count"),
           ("algebra.poly_gcd.self_s", "s"),
           ("algebra.reduce_cyclotomic_fraction.calls", "count"),
           ("algebra.reduce_cyclotomic_fraction.self_s", "s"),
           ("algebra.rational_function.ops", "count"), ("algebra.rational_function.self_s", "s"),
           ("algebra.cyclotomic_element.ops", "count"), ("algebra.cyclotomic_element.self_s", "s"),
           ("algebra.self_s", "s"),
           ("padic.ops", "count"), ("padic.constructions", "count"), ("padic.self_s", "s"),
           ("padic.ns_per_op", "ns"),
           ("qmeasure.riemann_sum.calls", "count"), ("qmeasure.riemann_sum.terms", "count"),
           ("qmeasure.riemann_sum.self_s", "s"), ("qmeasure.riemann_sum.ns_per_term", "ns"),
           ("qmeasure.integrate.levels", "count"), ("qmeasure.integrate.self_s", "s"),
           ("qmeasure.ball_measure_sum.self_s", "s"),
           ("qmeasure.fermionic_finite_rhs.self_s", "s"), ("qmeasure.self_s", "s")]
    for name in QNUMBERS:
        out += [(f"qnumbers.{name}.calls", "count"), (f"qnumbers.{name}.self_s", "s")]
    out.append(("qnumbers.self_s", "s"))
    out += [(f"series.{name}.self_s", "s") for name in SERIES]
    out += [("series.truncated_mul.calls", "count"), ("series.self_s", "s"),
            ("characters.character_value.calls", "count"), ("characters.self_s", "s")]
    out += [(f"verify.{suite}.s", "s") for suite in SUITES]
    out += [("cli.main.self_s", "s"), ("src.lines", "count"),
            ("trace.spans", "count"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
            ("trace.overhead_s", "s")]
    return out


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # label -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.spans: list = []                # (label, start, end, parent, job)
        self.dropped = 0
        self.job = -1
        self._stack: list[list] = []         # per open call: [child_s, span index]
        self._patches: list[tuple] = []      # (owner, name, original, is_class)
        self.suite_labels: dict[str, str] = {}

    # -- installing and restoring wrappers ------------------------------------

    def install(self) -> None:
        import qvolkenborn  # noqa: F401  (loads every module the scan below visits)
        from qvolkenborn import verify

        namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                      if name == "qvolkenborn" or name.startswith("qvolkenborn.")]
        namespaces.append(verify.SUITES)
        self.suite_labels = {name: f"verify.{fn.__name__}" for name, fn in verify.SUITES.items()}
        hooks = {"algebra.poly_gcd": self._count_gcd,
                 "qmeasure.riemann_sum": self._count_terms,
                 "qmeasure.integrate": self._count_levels,
                 "algebra.Polynomial.__mul__": self._count_mul,
                 "algebra.Polynomial.__rmul__": self._count_mul}
        for layer in LAYERS:
            module = sys.modules[f"qvolkenborn.{layer}"]
            for name, fn in self._functions(module, ONLY_FUNCTIONS.get(layer)):
                label = f"{layer}.{name}"
                wrapper = self._wrap(label, fn, True, hooks.get(label))
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            ns[key] = wrapper
                            self._patches.append((ns, key, fn, False))
            for cls_name, only in CLASSES.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for name, attr in list(vars(cls).items()):
                    if not self._wanted(name, attr, only):
                        continue
                    label = f"{layer}.{cls_name}.{name}"
                    hook = hooks.get(label)
                    if isinstance(attr, (classmethod, staticmethod)):
                        wrapped = type(attr)(self._wrap(label, attr.__func__, False, hook))
                    else:
                        wrapped = self._wrap(label, attr, False, hook)
                    setattr(cls, name, wrapped)
                    self._patches.append((cls, name, attr, True))

    def restore(self) -> None:
        for owner, name, original, is_class in reversed(self._patches):
            if is_class:
                setattr(owner, name, original)
            else:
                owner[name] = original

    def unrestored(self) -> list[str]:
        """Names that do not hold their original object (empty after restore)."""
        out = []
        for owner, name, original, is_class in self._patches:
            current = vars(owner).get(name) if is_class else owner.get(name)
            if current is not original:
                out.append(f"{getattr(owner, '__name__', 'namespace')}.{name}")
        return out

    @staticmethod
    def _functions(module, only):
        for name, obj in vars(module).items():
            if name.startswith("_") or (only is not None and name not in only):
                continue
            fn = getattr(obj, "__wrapped__", obj) if hasattr(obj, "cache_info") else obj
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield name, obj

    @staticmethod
    def _wanted(name: str, attr, only) -> bool:
        if only is not None:
            return name in only
        if name.startswith("__"):
            if name not in ARITHMETIC:
                return False
        elif name.startswith("_"):
            return False
        return inspect.isfunction(attr) or isinstance(attr, (classmethod, staticmethod))

    def _wrap(self, label: str, fn, keep: bool, hook):
        stat = self.stats.setdefault(label, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = parent
            if keep:
                if len(spans) < MAX_SPANS:
                    index = len(spans)
                    spans.append(None)
                else:
                    tracer.dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if index != parent:
                    spans[index] = (label, start, end, parent, tracer.job)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- boundary classifiers --------------------------------------------------

    def _bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _count_mul(self, args, kwargs, result) -> None:
        a, b = args[0], args[1]
        if hasattr(b, "coeffs") and min(len(a.coeffs), len(b.coeffs)) >= KRONECKER_CUTOFF:
            self._bump("poly_mul.large")

    def _count_gcd(self, args, kwargs, result) -> None:
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        if a.degree > 0 and b.degree > 0:
            self._bump("poly_gcd.nontrivial")

    def _count_terms(self, args, kwargs, result) -> None:
        spec, level = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 2, "n")
        self._bump("riemann_sum.terms", spec.domain.level_size(level))

    def _count_levels(self, args, kwargs, result) -> None:
        self._bump("integrate.levels", result.n_used)

    # -- jobs ------------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        """Open the root span of a job; its self time is the benchmark's own
        work (output checks)."""
        self.job = job
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([0.0, index, time.perf_counter()])

    def end_job(self, name: str) -> None:
        child, index, start = self._stack.pop()
        self.spans[index] = (f"job:{name}", start, time.perf_counter(), -1, self.job)

    # -- report ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values from the recorded calls (the trace.* and
        src.lines entries are filled in by the caller)."""
        stats, counters = self.stats, self.counters

        def calls(*labels):
            return sum(stats[lb][0] for lb in labels if lb in stats)

        def self_s(*labels):
            return sum(stats[lb][2] for lb in labels if lb in stats)

        def total_s(*labels):
            return sum(stats[lb][1] for lb in labels if lb in stats)

        def matching(prefix, exclude=()):
            return [lb for lb in stats if lb.startswith(prefix)
                    and lb.rsplit(".", 1)[1] not in exclude]

        mul = ("algebra.Polynomial.__mul__", "algebra.Polynomial.__rmul__")
        rf = matching("algebra.RationalFunction.")
        ce = matching("algebra.CyclotomicElement.")
        padic_ops = [lb for lb in matching("padic.PadicNumber.")
                     if lb.rsplit(".", 1)[1] in PADIC_OPS]
        out = {
            "algebra.poly_mul.calls": calls(*mul),
            "algebra.poly_mul.large_calls": counters.get("poly_mul.large", 0),
            "algebra.poly_mul.self_s": self_s(*mul),
            "algebra.poly_gcd.calls": calls("algebra.poly_gcd"),
            "algebra.poly_gcd.nontrivial_calls": counters.get("poly_gcd.nontrivial", 0),
            "algebra.poly_gcd.self_s": self_s("algebra.poly_gcd"),
            "algebra.reduce_cyclotomic_fraction.calls": calls("algebra.reduce_cyclotomic_fraction"),
            "algebra.reduce_cyclotomic_fraction.self_s": self_s("algebra.reduce_cyclotomic_fraction"),
            "algebra.rational_function.ops": calls(*[lb for lb in rf if not lb.endswith("__init__")]),
            "algebra.rational_function.self_s": self_s(*rf),
            "algebra.cyclotomic_element.ops": calls(*[lb for lb in ce if not lb.endswith("__init__")]),
            "algebra.cyclotomic_element.self_s": self_s(*ce),
            "padic.ops": calls(*padic_ops),
            "padic.constructions": calls("padic.PadicNumber.__init__"),
            "qmeasure.riemann_sum.calls": calls("qmeasure.riemann_sum"),
            "qmeasure.riemann_sum.terms": counters.get("riemann_sum.terms", 0),
            "qmeasure.riemann_sum.self_s": self_s("qmeasure.riemann_sum"),
            "qmeasure.integrate.levels": counters.get("integrate.levels", 0),
            "qmeasure.integrate.self_s": self_s("qmeasure.integrate"),
            "qmeasure.ball_measure_sum.self_s": self_s("qmeasure.ball_measure_sum"),
            "qmeasure.fermionic_finite_rhs.self_s": self_s("qmeasure.fermionic_finite_rhs"),
            "series.truncated_mul.calls": calls("series.TruncatedSeries.__mul__"),
            "characters.character_value.calls": calls("characters.character_value"),
            "cli.main.self_s": self_s("cli.main"),
        }
        for layer in LAYERS[:6]:
            out[f"{layer}.self_s"] = self_s(*matching(layer + "."))
        out["padic.ns_per_op"] = (out["padic.self_s"] / out["padic.ops"] * 1e9
                                  if out["padic.ops"] else 0.0)
        terms = out["qmeasure.riemann_sum.terms"]
        out["qmeasure.riemann_sum.ns_per_term"] = (
            total_s("qmeasure.riemann_sum") / terms * 1e9 if terms else 0.0)
        for name in QNUMBERS:
            out[f"qnumbers.{name}.calls"] = calls(f"qnumbers.{name}")
            out[f"qnumbers.{name}.self_s"] = self_s(f"qnumbers.{name}")
        for name in SERIES:
            out[f"series.{name}.self_s"] = self_s(f"series.{name}")
        for suite in SUITES:
            out[f"verify.{suite}.s"] = total_s(self.suite_labels.get(suite, ""))
        out["trace.spans"] = sum(1 for s in self.spans if s is not None)
        return out
