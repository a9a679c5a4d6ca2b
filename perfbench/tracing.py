"""Spans and counts around the engine's public functions, for the traced pass.

The engine has no instrumentation of its own, so the traced pass rebinds
each listed function wherever a `symmetrizer.*` module holds it (modules
import functions by name, so one rebinding is not enough) and each listed
method on its class. `Tracer.uninstall` puts every original back. Spans
stay in memory until the run ends; nothing is written while timing.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

# Layer names are `<module>.<function>`; a dotted function is a method.
LAYERS = (
    "polytext.parse_poly",
    "polytext.format_poly",
    "forms.symmetry_violation",
    "forms.SymForm.evaluate",
    "forms.SymForm.contract",
    "forms.jacobian_matrix",
    "forms.grassmann_point",
    "forms.twist",
    "forms.vanishing_order",
    "forms.compose_linear",
    "linalg.rref",
    "linalg.nullspace",
    "linalg.solve",
    "linalg.span_contains",
    "linalg.Matrix.__mul__",
    "linalg.Matrix.inverse",
    "linalg.minimal_polynomial",
    "linalg.jordan_chevalley",
    "polys.factor_rational",
    "polys.squarefree_part",
    "polys.poly_gcd",
    "algebra.constraint_matrix",
    "algebra.symmetrizer_algebra",
    "algebra.algebra_closure_check",
    "algebra.kernel_image_vanishing",
    "algebra.fiber_invariance_check",
    "algebra.check_identities",
    "algebra.recover_symmetrizer",
    "algebra.nilpotent_report",
    "algebra.st_decompose",
    "algebra.sample_invertible_symmetrizers",
    "corpus.generate",
    "corpus.nilpotent_form_space",
    "corpus.census",
    "cli.main",
)

# Extra counts, each `(metric, unit, better)`; they repeat exactly.
EXTRAS = (
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.rref.max_bits", "bits", "lower"),
    ("polys.factor_rational.max_degree", "count", "lower"),
    ("algebra.constraint_matrix.cells", "count", "lower"),
    ("algebra.symmetrizer_algebra.per_op", "ratio", "lower"),
    ("algebra.st_decompose.candidates", "count", "lower"),
    ("algebra.sample_invertible_symmetrizers.accept_ratio", "ratio", "higher"),
)


def _max_bits(rows) -> int:
    top = 0
    for row in rows:
        for x in row:
            top = max(top, x.numerator.bit_length(), x.denominator.bit_length())
    return top


class Tracer:
    """Records one span per call of a listed function: name, start, end,
    parent span and op id, in parallel arrays."""

    def __init__(self):
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.calls = [0] * len(LAYERS)
        self.inclusive = [0.0] * len(LAYERS)
        self.active = [0] * len(LAYERS)
        self.hook_time: dict[int, float] = {}
        self.counts = {"rref_cells": 0, "rref_max_bits": 0, "factor_max_degree": 0,
                       "constraint_cells": 0, "candidates": 0, "samples_returned": 0,
                       "rank_tests": 0}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        self.active[idx] += 1
        return sid

    def _close(self, idx: int, sid: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1
        self.active[idx] -= 1
        if not self.active[idx]:
            self.inclusive[idx] += t1 - t0

    def _wrap(self, idx: int, fn, hook):
        tracer = self
        perf = perf_counter

        def traced(*args, **kwargs):
            tracer.calls[idx] += 1
            sid = tracer._open(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, sid, t0, perf())
            if hook is not None:
                h0 = perf()
                hook(tracer, sid, args, result)
                parent = tracer.parent[sid]
                tracer.hook_time[parent] = tracer.hook_time.get(parent, 0.0) + perf() - h0
            return result

        def traced_generator(*args, **kwargs):
            # a generator works only while resumed, so each resumption is a span
            tracer.calls[idx] += 1
            it = fn(*args, **kwargs)
            while True:
                sid = tracer._open(idx)
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx, sid, t0, perf())
                yield item

        wrapper = traced_generator if inspect.isgeneratorfunction(fn) else traced
        return functools.update_wrapper(wrapper, fn)

    # -- per-function counts, kept out of the span they describe -----------

    def _hooks(self):
        counts = self.counts
        index = self.index

        def rref(tracer, sid, args, result):
            red = result[0]
            counts["rref_cells"] += red.nrows * red.ncols
            counts["rref_max_bits"] = max(counts["rref_max_bits"], _max_bits(red.rows))
            if tracer.parent[sid] >= 0 and tracer.name[tracer.parent[sid]] == index[
                "algebra.sample_invertible_symmetrizers"
            ]:
                counts["rank_tests"] += 1

        def factor_rational(tracer, sid, args, result):
            counts["factor_max_degree"] = max(counts["factor_max_degree"], args[0].degree)

        def constraint_matrix(tracer, sid, args, result):
            counts["constraint_cells"] += result.nrows * result.ncols

        def minimal_polynomial(tracer, sid, args, result):
            parent = tracer.parent[sid]
            if parent >= 0 and tracer.name[parent] == index["algebra.st_decompose"]:
                counts["candidates"] += 1

        def sample_invertible(tracer, sid, args, result):
            counts["samples_returned"] += len(result)

        return {
            "linalg.rref": rref,
            "polys.factor_rational": factor_rational,
            "algebra.constraint_matrix": constraint_matrix,
            "linalg.minimal_polynomial": minimal_polynomial,
            "algebra.sample_invertible_symmetrizers": sample_invertible,
        }

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Rebind every listed function in the loaded symmetrizer modules."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "symmetrizer" or k.startswith("symmetrizer."))]
        hooks = self._hooks()
        for idx, layer in enumerate(LAYERS):
            modname, _, attr = layer.partition(".")
            home = sys.modules[f"symmetrizer.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(idx, original, hooks.get(layer)))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(idx, original, hooks.get(layer))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._saved):
            setattr(obj, key, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def layer_table(self, op_wall_s: float) -> list[dict]:
        """Per layer: calls, self time (span minus the part its child spans
        cover), inclusive time of outermost spans, and both as a share of
        the summed op wall time."""
        n = len(self.start)
        covered = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        self_s = [0.0] * len(LAYERS)
        for sid in range(n):
            own = self.end[sid] - self.start[sid] - covered[sid] - self.hook_time.get(sid, 0.0)
            self_s[self.name[sid]] += own
        rows = []
        for idx, layer in enumerate(LAYERS):
            rows.append({
                "layer": layer,
                "calls": self.calls[idx],
                "self_s": self_s[idx],
                "self_share": self_s[idx] / op_wall_s if op_wall_s else 0.0,
                "incl_s": self.inclusive[idx],
                "incl_share": self.inclusive[idx] / op_wall_s if op_wall_s else 0.0,
            })
        return rows

    def extras(self, ops: int) -> dict[str, float]:
        c = self.counts
        sym_calls = self.calls[self.index["algebra.symmetrizer_algebra"]]
        return {
            "linalg.rref.cells": c["rref_cells"],
            "linalg.rref.max_bits": c["rref_max_bits"],
            "polys.factor_rational.max_degree": c["factor_max_degree"],
            "algebra.constraint_matrix.cells": c["constraint_cells"],
            "algebra.symmetrizer_algebra.per_op": sym_calls / ops if ops else 0.0,
            "algebra.st_decompose.candidates": c["candidates"],
            "algebra.sample_invertible_symmetrizers.accept_ratio":
                c["samples_returned"] / c["rank_tests"] if c["rank_tests"] else 0.0,
        }

    def write_spans(self, path: Path) -> None:
        """All spans as gzip'd tab-separated lines: id, layer, parent, op,
        start and end in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tlayer\tparent\top\tstart_s\tend_s\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{LAYERS[self.name[sid]]}\t{self.parent[sid]}\t{self.op[sid]}"
                    f"\t{self.start[sid] - t0:.7f}\t{self.end[sid] - t0:.7f}\n"
                )
