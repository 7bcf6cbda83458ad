"""Per-layer tracing installed from outside the program.

Each traced function is replaced by a wrapper in every solvhull module
that binds it (report, cli and formality import names directly, so
patching the defining module alone would miss their calls); Mat.matmul
is patched on the class.  A stack of open spans turns the wrappers'
CPU times into self times: a span's self time is its duration minus
the durations of the traced spans it directly encloses.  Work counts are
read from the arguments and results at the same boundaries.  Spans are
aggregated in memory per function and written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
from time import thread_time

TRACED = {
    "lie": ("validate", "nilradical", "is_solvable", "is_nilpotent"),
    "hull": ("jordan_chevalley", "build_splittable_hull", "recognize_split_form",
             "hull_action_data", "validate_hull_data", "enumerate_finite_group"),
    "cochain": ("ce_complex", "cohomology", "cup"),
    "formality": ("invariant_subcomplex", "averaging_projector", "formality_verdict",
                  "massey_triple"),
    "lefschetz": ("verify_symplectic", "hard_lefschetz"),
    "report": ("analyze", "type_one_check"),
    "iodoc": ("parse_document", "render_document"),
    "cli": ("run",),
    "linalg": ("Mat.matmul", "rref", "solve", "kernel_basis", "char_poly"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _ce_cells(args, cx) -> int:
    return sum(cx.dmat(k).rows * cx.dmat(k).cols for k in range(cx.dim + 1))


# work count name -> (traced function, count from (args, result))
COUNTS = {
    "linalg.Mat.matmul.mults": ("linalg.Mat.matmul",
                                lambda args, r: args[0].rows * args[0].cols * args[1].cols),
    "linalg.rref.cells": ("linalg.rref", lambda args, r: args[0].rows * args[0].cols),
    "cochain.ce_complex.cells": ("cochain.ce_complex", _ce_cells),
    "hull.enumerate_finite_group.elements": ("hull.enumerate_finite_group",
                                             lambda args, r: len(r)),
    "formality.formality_verdict.triples": ("formality.formality_verdict",
                                            lambda args, r: r.triples_scanned),
}


class Tracer:
    """Call counts, self times and work counts of the traced functions."""

    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open: list[list[float]] = []  # child time of each open span

    def _wrap(self, key: str, fn):
        counters = [(name, count) for name, (k, count) in COUNTS.items() if k == key]
        calls, self_s, counts, stack = self.calls, self.self_s, self.counts, self._open

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = thread_time() - start
                stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            for name, count in counters:
                counts[name] += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a solvhull module binds it."""
        importlib.import_module("solvhull.cli")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "solvhull" or name.startswith("solvhull."))]
        for key in FUNCTIONS:
            mod_name, _, fn_name = key.partition(".")
            home = sys.modules[f"solvhull.{mod_name}"]
            if fn_name == "Mat.matmul":
                home.Mat.__matmul__ = self._wrap(key, home.Mat.__matmul__)
                continue
            original = getattr(home, fn_name)
            wrapper = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def merge(total: dict, part: dict) -> None:
    """Add one snapshot (e.g. a child process's) into another."""
    for section in ("calls", "self_s", "counts"):
        for key, value in part[section].items():
            total[section][key] += value


def empty_snapshot() -> dict:
    return Tracer().snapshot()


def per_layer_metrics(snapshot: dict, overhead_s: float) -> dict:
    """The per-layer metrics in the benchmark's result format."""
    out = {}
    for key in FUNCTIONS:
        out[f"{key}.calls"] = {"value": snapshot["calls"][key], "unit": "count"}
        out[f"{key}.self_s"] = {"value": snapshot["self_s"][key], "unit": "s"}
    for name in COUNTS:
        out[name] = {"value": snapshot["counts"][name], "unit": "count"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out
