"""In-process tracing of the modulimotives layers, installed from outside.

``Tracer.install()`` replaces the layer entry points with timing wrappers.
Every binding of a wrapped object is patched: module attributes of every
``modulimotives`` module (so ``pairs.sym_curve`` and ``higgs.pair_motive_flip``
are caught as well as the defining ones), tuples held in module-level dicts
(``verify.SUITES``) and class attributes (so ``__rmul__ = __mul__`` aliases
count with ``__mul__``).  Nothing under ``src/`` is edited.

Calls into the layers above ``polyring`` record a span each: name, start,
end, parent span and query id.  The ``polyring`` leaves are called hundreds
of thousands of times per query, so they only bump in-place counters.  Both
kinds keep calls, total time and self time (duration minus the time spent in
wrapped callees), computed online from a frame stack.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

PACKAGE = "modulimotives"

# (metric name, module, owner class or None, attribute, records spans)
POINTS = (
    ("polyring.intpoly_new", "polyring", "IntPoly", "__init__", False),
    ("polyring.intpoly_mul", "polyring", "IntPoly", "__mul__", False),
    ("polyring.intpoly_add", "polyring", "IntPoly", "__add__", False),
    ("polyring.exact_div", "polyring", None, "exact_div", False),
    ("polyring.bipoly_new", "polyring", "BiPoly", "__init__", False),
    ("polyring.bipoly_mul", "polyring", "BiPoly", "__mul__", False),
    ("polyring.bipoly_add", "polyring", "BiPoly", "__add__", False),
    ("motive.class_new", "motive", "MotiveClass", "__init__", True),
    ("motive.class_mul", "motive", "MotiveClass", "__mul__", True),
    ("motive.class_add", "motive", "MotiveClass", "__add__", True),
    ("motive.hodge_realization", "motive", "MotiveClass", "hodge_realization", True),
    ("motive.sym_curve", "motive", None, "sym_curve", True),
    ("motive.jacobian", "motive", None, "jacobian", True),
    ("pairs.pair_motive_flip", "pairs", None, "pair_motive_flip", True),
    ("pairs.pair_motive_sym", "pairs", None, "pair_motive_sym", True),
    ("pairs.pair_motive_geo", "pairs", None, "pair_motive_geo", True),
    ("pairs.sym_coeff_poly", "pairs", None, "sym_coeff_poly", True),
    ("bundles.bundle_motive", "bundles", None, "bundle_motive", True),
    ("bundles.bundle_motive_fixed_det", "bundles", None, "bundle_motive_fixed_det", True),
    ("higgs.fixed_locus_bundles", "higgs", None, "fixed_locus_bundles", True),
    ("higgs.fixed_locus_111", "higgs", None, "fixed_locus_111", True),
    ("higgs.fixed_locus_12", "higgs", None, "fixed_locus_12", True),
    ("higgs.fixed_locus_21", "higgs", None, "fixed_locus_21", True),
    ("higgs.higgs_motive", "higgs", None, "higgs_motive", True),
    ("higgs.higgs_motive_mod_jac", "higgs", None, "higgs_motive_mod_jac", True),
    ("higgs.audit_fixed_loci", "higgs", None, "audit_fixed_loci", True),
    ("verify.route_agreement", "verify", None, "sweep_route_agreement", True),
    ("verify.symmetric_power_identity", "verify", None, "sweep_symmetric_power_identity", True),
    ("verify.positivity", "verify", None, "sweep_positivity", True),
    ("verify.duality", "verify", None, "sweep_duality", True),
    ("verify.degree_independence", "verify", None, "sweep_degree_independence", True),
    ("verify.twist_audit", "verify", None, "sweep_twist_audit", True),
    ("cli.render_class", "cli", None, "render_class", True),
    ("cli.main", "cli", None, "main", True),
)


def add_src_to_path() -> None:
    """Make ``import modulimotives`` load the checkout's ``src/`` tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def package_modules() -> list:
    import modulimotives  # noqa: F401  (imports every submodule)
    import modulimotives.cli  # noqa: F401

    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def find_caches() -> dict:
    """Every ``lru_cache`` defined in the package, keyed ``module.function``."""
    caches = {}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            if (
                callable(getattr(obj, "cache_info", None))
                and hasattr(obj, "__wrapped__")
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                caches[mod.__name__.split(".")[-1] + "." + attr] = obj
    return caches


def code_key(fn) -> str:
    """``file:line:name`` of a function's code, as cProfile keys it."""
    code = getattr(fn, "__wrapped__", fn).__code__
    return f"{Path(code.co_filename).name}:{code.co_firstlineno}:{code.co_name}"


def _rebind(modules: list, original, wrapper) -> int:
    """Replace every module-level reference to ``original``; return the count."""
    count = 0
    for mod in modules:
        namespace = vars(mod)
        for attr, obj in list(namespace.items()):
            if obj is original:
                namespace[attr] = wrapper
                count += 1
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if isinstance(value, tuple) and any(v is original for v in value):
                        obj[key] = tuple(wrapper if v is original else v for v in value)
                        count += 1
    return count


class Tracer:
    """Counters, self-time accumulators and spans for one process."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.checks: dict[str, int] = {}
        # polyring counter -> enclosing span name -> self_s
        self.under: dict[str, dict[str, float]] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent, query)
        self.query: object = None
        self.originals: dict[str, object] = {}
        self.caches: dict[str, object] = {}
        # Frames are [callee time, enclosing span id, enclosing span name].
        self._stack: list[list] = [[0.0, None, "(top)"]]
        self._next_span = 0

    def install(self) -> None:
        modules = package_modules()
        self.caches = find_caches()
        by_name = {mod.__name__.split(".")[-1]: mod for mod in modules}
        for name, module, owner, attr, span in POINTS:
            mod = by_name[module]
            if owner is None:
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original, span)
                if not _rebind(modules, original, wrapper):
                    raise RuntimeError(f"no binding of {name} found")
            else:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                wrapper = self._wrap(name, original, span)
                for alias, obj in list(cls.__dict__.items()):
                    if obj is original:
                        setattr(cls, alias, wrapper)
            self.originals[name] = original

    def _wrap(self, name: str, fn, span: bool):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        under = None if span else self.under.setdefault(name, {})
        stack = self._stack
        clock = time.perf_counter
        checks = name.startswith("verify.")

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                frame = [0.0, self._next_span, name]
                self._next_span += 1
            else:
                frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time = duration - frame[0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += self_time
                parent[0] += duration
                if span:
                    self.spans.append((frame[1], name, start, end, parent[1], self.query))
                else:
                    under[frame[2]] = under.get(frame[2], 0.0) + self_time
            if checks:
                self.checks[name] = self.checks.get(name, 0) + result.checked
            return result

        return wrapper

    def report(self) -> dict:
        """Counters, cache statistics and spans as a JSON-ready dict."""
        caches = {}
        for name, cache in self.caches.items():
            info = cache.cache_info()
            caches[name] = [info.hits, info.misses]
        return {
            "stats": self.stats,
            "checks": self.checks,
            "under": self.under,
            "caches": caches,
            "code": {name: code_key(fn) for name, fn in self.originals.items()},
            "spans": self.spans,
        }


def profile_counts(profiler) -> dict:
    """cProfile ``ncalls`` for every function of the package, by code key."""
    import pstats

    counts = {}
    for (filename, line, func), (_, ncalls, *_rest) in pstats.Stats(profiler).stats.items():
        if f"{PACKAGE}/" in filename.replace("\\", "/"):
            key = f"{Path(filename).name}:{line}:{func}"
            counts[key] = counts.get(key, 0) + ncalls
    return counts
