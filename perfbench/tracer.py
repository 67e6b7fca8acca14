"""Layer tracer for bscat: wraps public functions from outside the package.

Each traced function is replaced by a wrapper in every ``bscat`` module that
holds a reference to it (module globals and module-level dicts such as the
diagram table), and put back by ``uninstall``.  The wrapper records a span
per call: its name, duration and the span that called it.  Spans are
aggregated in memory as they close (per name, and per parent -> child edge),
so millions of kernel calls cost no memory.  A span's self time is its
duration minus the time covered by its traced children.  Inclusive time of a
recursive function is counted at its outermost call only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Dict, List, Tuple

# (module, function) pairs wrapped with spans; the module is where the
# function is defined, the metric prefix is its short name.
TRACED: Tuple[Tuple[str, str], ...] = (
    ("quadrature", "adaptive_1d"),
    ("quadrature", "integrate_simplex"),
    ("quadrature", "integrate_semi_infinite"),
    ("formfactors", "exp_I"),
    ("formfactors", "zeta"),
    ("formfactors", "bigH"),
    ("formfactors", "bigF"),
    ("formfactors", "f_pm"),
    ("formfactors", "f_pm1"),
    ("formfactors", "f_111"),
    ("formfactors", "f_breather1"),
    ("formfactors", "r0_weights"),
    ("reflection", "r_s"),
    ("reflection", "soliton_pair_bracket"),
    ("smatrix", "s0"),
    ("twopoint", "reflection_coefficient"),
    ("twopoint", "r_term_breather"),
    ("twopoint", "r_term_soliton_pair"),
    ("twopoint", "r_term_pm1"),
    ("spectrum", "diagram_g1_1"),
    ("spectrum", "diagram_g1_3"),
    ("spectrum", "diagram_g2_1"),
    ("spectrum", "diagram_g3a"),
    ("spectrum", "diagram_g4a"),
    ("spectrum", "diagram_g5a"),
    ("spectrum", "spectrum_point"),
    ("spectrum", "sum_rule_check"),
    ("spectrum", "spectrum_curve"),
)

# GK15 panels are counted without a span: a span per panel would cost more
# than the counter tells.
COUNTED: Tuple[Tuple[str, str], ...] = (("quadrature", "_gk15"),)

# memoised kernels whose functools statistics are reported
CACHES: Tuple[Tuple[str, str, str], ...] = (
    ("formfactors.exp_I", "formfactors", "_exp_i_cached"),
    ("formfactors.bigF", "formfactors", "_bigf_cached"),
    ("reflection.r_s.phase", "reflection", "_rs_phase_cached"),
)

ROOT_SPAN = "<root>"


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth", "errors", "parents")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0  # inclusive time, outermost calls only
        self.self_time = 0.0
        self.depth = 0
        self.errors: Dict[str, int] = {}
        self.parents: Dict[str, List[float]] = {}  # parent -> [calls, seconds]


class Tracer:
    """Span aggregation plus install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {}
        self.counts: Dict[str, int] = {}
        # frames of open spans: [name, seconds covered by child spans]
        self._stack: List[list] = [[ROOT_SPAN, 0.0]]
        self._patches: List[Tuple[object, object, object]] = []

    # -- spans -------------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def wrap(self, name: str, fn):
        st = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                key = type(exc).__name__
                st.errors[key] = st.errors.get(key, 0) + 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_time += dt - frame[1]
                if st.depth == 0:
                    st.total += dt
                parent[1] += dt
                edge = st.parents.get(parent[0])
                if edge is None:
                    st.parents[parent[0]] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt

        return functools.wraps(fn)(traced)

    def call(self, name: str, fn, *args, **kwargs):
        """Run a call of the benchmark's own code inside a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    # -- rebinding ---------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "bscat" or mod_name.startswith("bscat.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, key, original))
                    namespace[key] = replacement
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original))
                            value[k] = replacement

    def install(self) -> None:
        for mod_name, fn_name in TRACED:
            mod = importlib.import_module(f"bscat.{mod_name}")
            fn = getattr(mod, fn_name)
            self._rebind(fn, self.wrap(f"{mod_name}.{fn_name}", fn))
        for mod_name, fn_name in COUNTED:
            mod = importlib.import_module(f"bscat.{mod_name}")
            fn = getattr(mod, fn_name)
            self._rebind(fn, self.counter(f"{mod_name}.{fn_name}", fn))

    def uninstall(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original

    # -- report ------------------------------------------------------------

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        out = {}
        for label, mod_name, fn_name in CACHES:
            info = getattr(importlib.import_module(f"bscat.{mod_name}"), fn_name).cache_info()
            out[label] = {"hits": info.hits, "misses": info.misses}
        return out

    def dump(self) -> Dict:
        """Everything recorded, as plain data (written next to the results)."""
        return {
            "spans": {
                name: {
                    "calls": st.calls,
                    "seconds": st.total,
                    "self_seconds": st.self_time,
                    "errors": dict(st.errors),
                    "parents": {p: {"calls": c, "seconds": s} for p, (c, s) in st.parents.items()},
                }
                for name, st in sorted(self.stats.items())
            },
            "counts": dict(self.counts),
            "caches": self.cache_stats(),
        }


def _ratio(hits: int, misses: int) -> float:
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def layer_metrics(dump: Dict) -> Dict[str, float]:
    """Per-layer metric values from a trace dump (names as in BENCHMARK.json)."""
    spans = dump["spans"]

    def span(name: str) -> Dict:
        return spans.get(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "errors": {}})

    m: Dict[str, float] = {}
    adaptive = span("quadrature.adaptive_1d")
    m["quadrature.adaptive_1d.calls"] = adaptive["calls"]
    m["quadrature.adaptive_1d.panels"] = dump["counts"].get("quadrature._gk15", 0)
    m["quadrature.adaptive_1d.self_s"] = adaptive["self_seconds"]
    for fn in ("integrate_simplex", "integrate_semi_infinite"):
        m[f"quadrature.{fn}.calls"] = span(f"quadrature.{fn}")["calls"]
        m[f"quadrature.{fn}.s"] = span(f"quadrature.{fn}")["seconds"]
    m["quadrature.tolerance_not_met"] = adaptive["errors"].get("ToleranceNotMet", 0)

    for fn in ("exp_I", "zeta", "bigH", "bigF", "f_pm", "f_pm1", "f_111", "f_breather1"):
        m[f"formfactors.{fn}.calls"] = span(f"formfactors.{fn}")["calls"]
        m[f"formfactors.{fn}.self_s"] = span(f"formfactors.{fn}")["self_seconds"]
    caches = dump["caches"]
    for fn in ("exp_I", "bigF"):
        c = caches[f"formfactors.{fn}"]
        m[f"formfactors.{fn}.cache_misses"] = c["misses"]
        m[f"formfactors.{fn}.hit_ratio"] = _ratio(c["hits"], c["misses"])
    m["formfactors.r0_weights.calls"] = span("formfactors.r0_weights")["calls"]
    m["formfactors.r0_weights.s"] = span("formfactors.r0_weights")["seconds"]

    r_s = span("reflection.r_s")
    phase = caches["reflection.r_s.phase"]
    m["reflection.r_s.calls"] = r_s["calls"]
    m["reflection.r_s.self_s"] = r_s["self_seconds"]
    m["reflection.r_s.phase_cache_misses"] = phase["misses"]
    m["reflection.r_s.phase_hit_ratio"] = _ratio(phase["hits"], phase["misses"])
    bracket = span("reflection.soliton_pair_bracket")
    m["reflection.soliton_pair_bracket.calls"] = bracket["calls"]
    m["reflection.soliton_pair_bracket.self_s"] = bracket["self_seconds"]

    m["smatrix.s0.calls"] = span("smatrix.s0")["calls"]
    m["smatrix.s0.self_s"] = span("smatrix.s0")["self_seconds"]

    rc = span("twopoint.reflection_coefficient")
    m["twopoint.reflection_coefficient.calls"] = rc["calls"]
    m["twopoint.reflection_coefficient.s"] = rc["seconds"]
    for term in ("breather", "soliton_pair", "pm1"):
        m[f"twopoint.r_term_{term}.s"] = span(f"twopoint.r_term_{term}")["seconds"]

    for d in ("g1_1", "g1_3", "g2_1", "g3a", "g4a", "g5a"):
        m[f"spectrum.{d}.calls"] = span(f"spectrum.diagram_{d}")["calls"]
        m[f"spectrum.{d}.s"] = span(f"spectrum.diagram_{d}")["seconds"]
    m["spectrum.spectrum_point.calls"] = span("spectrum.spectrum_point")["calls"]
    m["spectrum.sum_rule_check.s"] = span("spectrum.sum_rule_check")["seconds"]
    m["spectrum.spectrum_curve.s"] = span("spectrum.spectrum_curve")["seconds"]

    m["cli.self_s"] = span("cli")["self_seconds"]
    return m
