"""Outside-in tracer for balacyc: spans around public functions, no source edits.

Callers inside balacyc bind functions at import time
(``from .intlinalg import smith_normal_form``), so patching only the
defining module would miss them. ``Tracer.install`` therefore rebinds each
traced function in every ``balacyc`` / ``balacyc.*`` module namespace that
holds it, and ``Tracer.restore`` puts every original binding back.

Spans are kept in memory as ``[id, parent, name, start, end, bookkeeping]``
and written out at the end. The wrappers sit outside ``lru_cache``, so a
span's call count includes cache hits; misses come from ``cache_info()``.
Work the tracer itself does after a call (entry bit-lengths, nonzero
counts) is timed and subtracted from every enclosing span, so self times
cover balacyc's work only. Single-threaded use only: the benchmark pins
``BALACYC_THREADS=1``.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cyclotomic", "intlinalg", "groups", "complexes", "cyclo_family", "sweeps", "cli")

# (module, public function, span name). Several functions may share a name.
TRACED = (
    ("cyclotomic", "cyclotomic", "cyclotomic.poly"),
    ("intlinalg", "smith_normal_form", "intlinalg.snf"),
    ("intlinalg", "hermite_normal_form", "intlinalg.hnf"),
    ("intlinalg", "kernel_basis", "intlinalg.kernel"),
    ("intlinalg", "solve_in_lattice", "intlinalg.solve"),
    ("groups", "fourier_transform", "groups.fourier_transform"),
    ("complexes", "build_complex", "complexes.build"),
    ("complexes", "boundary_matrix", "complexes.boundary"),
    ("complexes", "coboundary_top_matrix", "complexes.coboundary"),
    ("complexes", "coboundary_restriction", "complexes.coboundary"),
    ("complexes", "fourier_vanishing_matrix", "complexes.fourier_matrix"),
    ("complexes", "coboundary_matches_fourier", "complexes.lattice_compare"),
    ("cyclo_family", "verify_homology_tables", "cyclo_family.verify_homology"),
    ("cyclo_family", "pullback_matches_root_kernel", "cyclo_family.pullback"),
    ("cyclo_family", "root_relation_lattice", "cyclo_family.root_lattice"),
    ("cyclo_family", "transform_pullback_check", "cyclo_family.transform_pullback"),
    ("cyclo_family", "quotient_presentation", "cyclo_family.presentation"),
    ("cyclo_family", "coefficient_vector_is_coboundary", "cyclo_family.coeff_coboundary"),
    ("sweeps", "default_sweep_report", "sweeps"),
    ("sweeps", "family_subsets", "sweeps"),
    ("sweeps", "pullback_subsets", "sweeps"),
    ("sweeps", "random_point_subsets", "sweeps"),
    ("sweeps", "run_family_sweep", "sweeps"),
    ("sweeps", "run_coboundary_sweep", "sweeps"),
    ("sweeps", "run_pullback_sweep", "sweeps"),
    ("sweeps", "run_presentation_sweep", "sweeps"),
    ("sweeps", "run_transform_pullback_sweep", "sweeps"),
    ("sweeps", "run_coefficient_coboundary_sweep", "sweeps"),
    ("cli", "main", "cli"),
)

# Called too often for a span each: counted only.
COUNTED = (("cyclotomic", "root_power", "cyclotomic.root_power"),)

ITEM_SPAN = "bench.item"


def _max_bits(*matrices) -> int:
    return max((max(map(abs, m.entries), default=0).bit_length() for m in matrices), default=0)


def _snf_stats(counts, maxes, args, result, miss):
    if miss:
        m = args[0]
        counts["intlinalg.snf.misses"] += 1
        counts["intlinalg.snf.cells"] += m.rows * m.cols
        maxes["intlinalg.snf.max_bits"] = max(
            maxes["intlinalg.snf.max_bits"], _max_bits(result.d, result.u, result.v)
        )


def _hnf_stats(counts, maxes, args, result, miss):
    counts["intlinalg.hnf.cells"] += args[0].rows * args[0].cols


def _boundary_stats(counts, maxes, args, result, miss):
    if miss:
        counts["complexes.boundary.cells"] += result.rows * result.cols
        counts["complexes.boundary.nonzeros"] += sum(1 for x in result.entries if x)


def _fourier_stats(counts, maxes, args, result, miss):
    if miss:
        counts["complexes.fourier_matrix.rows"] += result.rows


STATS = {
    "intlinalg.snf": _snf_stats,
    "intlinalg.hnf": _hnf_stats,
    "complexes.boundary": _boundary_stats,
    "complexes.fourier_matrix": _fourier_stats,
}

COUNT_KEYS = (
    "intlinalg.snf.misses",
    "intlinalg.snf.cells",
    "intlinalg.hnf.cells",
    "complexes.boundary.cells",
    "complexes.boundary.nonzeros",
    "complexes.fourier_matrix.rows",
) + tuple(f"{name}.calls" for _, _, name in COUNTED)
MAX_KEYS = ("intlinalg.snf.max_bits",)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))


def balacyc_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "balacyc" or name.startswith("balacyc.")]


def bindings() -> dict:
    """Every (module, attribute) -> object binding in the loaded balacyc modules."""
    return {(m.__name__, attr): value for m in balacyc_modules() for attr, value in vars(m).items()}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = defaultdict(int)
        self.maxes = defaultdict(int)
        self.bookkeeping = 0.0
        self._saved: list[tuple] = []

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"balacyc.{layer}")
        for module, func, name in TRACED:
            orig = getattr(sys.modules[f"balacyc.{module}"], func)
            self._rebind(orig, self._span_wrapper(orig, name, STATS.get(name)))
        for module, func, name in COUNTED:
            orig = getattr(sys.modules[f"balacyc.{module}"], func)
            self._rebind(orig, self._count_wrapper(orig, f"{name}.calls"))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _rebind(self, orig, wrapper) -> None:
        for module in balacyc_modules():
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._saved.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None, name, 0.0, 0.0, self.bookkeeping]
        self.spans.append(rec)
        self.stack.append(rec[0])
        rec[3] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = perf_counter()
        self.stack.pop()
        rec[5] = self.bookkeeping - rec[5]

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _span_wrapper(self, orig, name, stats):
        cache_info = getattr(orig, "cache_info", None)

        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            rec = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(rec)
            if stats:
                t0 = perf_counter()
                miss = cache_info is None or cache_info().misses > misses
                stats(self.counts, self.maxes, args, result, miss)
                self.bookkeeping += perf_counter() - t0
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _count_wrapper(self, orig, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    def self_times(self) -> list[float]:
        """Per span: duration minus tracer bookkeeping minus its children's durations."""
        own = [end - start - kept for _, _, _, start, end, kept in self.spans]
        result = list(own)
        for (_, parent, *_), d in zip(self.spans, own):
            if parent is not None:
                result[parent] -= d
        return result

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counters."""
        per_name = {}
        self_times = self.self_times()
        for (_, _, name, *_), self_s in zip(self.spans, self_times):
            entry = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        return {
            "spans": per_name,
            "counts": dict(self.counts),
            "maxes": dict(self.maxes),
            "min_self_s": min(self_times, default=0.0),
        }

    def dump(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end, self_s."""
        with open(path, "w", encoding="utf-8") as fh:
            for (sid, parent, name, start, end, _), self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps([sid, parent, name, start, end, self_s]) + "\n")
