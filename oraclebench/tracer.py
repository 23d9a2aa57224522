"""Nested spans around the public functions of each tlschur layer.

The tracer wraps functions from outside the package: nothing under src/ is
changed.  Each wrapped call is one span; spans nest through a stack, and a
span's self time is its duration minus the time of the spans directly inside
it.  Spans are aggregated in memory by call path (the tuple of span names from
the outermost traced call down), so the full call tree survives while memory
stays bounded however many calls the oracle makes.

Counts are computed from the arguments, never measured: `cells` is rows x cols
of the input matrix of a kernel, `out_bytes` the size of the dense int64 array
that `Matrix.kron` builds, and `steps` the number of `progress` callbacks
`relative_domdim` makes, one per coresolution step.
"""

from __future__ import annotations

import inspect
import sys
import time

# traced functions, layer by layer from the bottom of the stack; a span is
# named "<layer>.<function>", with "kernels" for the private _kernels module
# because a metric name may not start with an underscore
KERNELS = ("gf2_rref", "gf2_matmul", "gfp_rref", "gfp_charpoly")
MATRIX_METHODS = ("kron", "__matmul__", "rref", "kernel_basis_matrix", "solve_many")
TENSOR_ACTION = ("commutant_basis", "algebra_closure_dim", "double_centralizer_report")
HOM_LABELS = ("endq", "fromq", "toq")

# the per-layer metrics a traced run reports: span name and its fields
LAYER_METRICS = (
    [(f"kernels.{k}", ("calls", "self_s", "cells")) for k in KERNELS]
    + [(f"linalg.Matrix.{m}", ("calls", "self_s")) for m in MATRIX_METHODS]
    + [("linalg.Matrix.kron", ("out_bytes",)), ("linalg.RowSpace.insert", ("calls", "self_s"))]
    + [(f"tensor_action.{f}", ("calls", "total_s", "self_s")) for f in TENSOR_ACTION]
    + [("oracle.schur_algebra", ("total_s", "self_s"))]
    + [(f"oracle.hom_space.{h}", ("calls", "total_s", "self_s")) for h in HOM_LABELS]
    + [("oracle.relative_domdim", ("calls", "total_s", "self_s", "steps"))]
    + [("oracle.standard_module", ("total_s",))]
)
UNITS = {"calls": "count", "cells": "count", "steps": "count", "out_bytes": "B", "total_s": "s", "self_s": "s"}


class Tracer:
    """Call-path tree of spans: calls, total and self seconds, counters."""

    def __init__(self):
        self.paths: dict[tuple, dict] = {}
        self._stack: list[list] = []  # frames: [path, child seconds, counters]

    def wrap(self, name, fn, label=None, counts=None, prepare=None):
        """Return fn wrapped in a span.

        label(*args, **kwargs) appends a suffix to the span name; counts(...)
        returns counters for the call; prepare(counters, args, kwargs) may
        rewrite the arguments and bump counters while the call runs.
        """
        stack = self._stack
        paths = self.paths
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = name if label is None else f"{name}.{label(*args, **kwargs)}"
            path = (stack[-1][0] if stack else ()) + (span,)
            counters = counts(*args, **kwargs) if counts else {}
            if prepare:
                args, kwargs = prepare(counters, args, kwargs)
            frame = [path, 0.0, counters]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stat = paths.get(path)
                if stat is None:
                    stat = paths[path] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                stat["calls"] += 1
                stat["total_s"] += dur
                stat["self_s"] += dur - frame[1]
                for key, value in counters.items():
                    stat[key] = stat.get(key, 0) + value

        return traced

    def by_name(self) -> dict[str, dict]:
        """Per-span totals; total_s counts only the outermost span of a name."""
        out: dict[str, dict] = {}
        for path, stat in self.paths.items():
            name = path[-1]
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in stat.items():
                if key == "total_s" and name in path[:-1]:
                    continue  # already inside a span of the same name
                agg[key] = agg.get(key, 0) + value
        return out

    def tree(self) -> list[dict]:
        """The call-path tree, one row per path, sorted by path."""
        return [{"path": " > ".join(path), **stat} for path, stat in sorted(self.paths.items())]


def _hom_label(m, n, *args, **kwargs) -> str:
    # End(Q) has the same module on both sides; the split test maps out of
    # tensor space; every other hom solve in these workloads maps into Q
    if m is n:
        return "endq"
    if m.label == "tensor space":
        return "fromq"
    return "toq"


def _count_steps(fn):
    sig = inspect.signature(fn)

    def prepare(counters, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        user = bound.arguments.get("progress")
        counters["steps"] = 0

        def progress(message):
            counters["steps"] += 1
            if user is not None:
                user(message)

        bound.arguments["progress"] = progress
        return bound.args, bound.kwargs

    return prepare


def install(tracer: Tracer) -> None:
    """Wrap every traced function in place, in every tlschur module that binds it."""
    from tlschur import _kernels, linalg, oracle, tensor_action

    modules = [m for key, m in sys.modules.items() if key == "tlschur" or key.startswith("tlschur.")]

    def patch(module, attr, name, **kw):
        orig = getattr(module, attr)
        wrapped = tracer.wrap(name, orig, **kw)
        for mod in modules:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)

    kernel_cells = {
        "gf2_rref": lambda rows, ncols: {"cells": rows.shape[0] * ncols},
        "gf2_matmul": lambda a, a_ncols, b, out: {"cells": a.shape[0] * a_ncols},
        "gfp_rref": lambda m, p, inv: {"cells": m.shape[0] * m.shape[1]},
        "gfp_charpoly": lambda a, p, inv: {"cells": a.shape[0] * a.shape[1]},
    }
    for attr in KERNELS:
        patch(_kernels, attr, f"kernels.{attr}", counts=kernel_cells[attr])

    kron_bytes = {"kron": lambda a, b: {"out_bytes": a.nrows * b.nrows * a.ncols * b.ncols * 8}}
    for attr in MATRIX_METHODS:
        orig = linalg.Matrix.__dict__[attr]
        setattr(linalg.Matrix, attr, tracer.wrap(f"linalg.Matrix.{attr}", orig, counts=kron_bytes.get(attr)))
    insert = linalg.RowSpace.__dict__["insert"]
    linalg.RowSpace.insert = tracer.wrap("linalg.RowSpace.insert", insert)

    for attr in TENSOR_ACTION:
        patch(tensor_action, attr, f"tensor_action.{attr}")
    patch(oracle, "schur_algebra", "oracle.schur_algebra")
    patch(oracle, "hom_space", "oracle.hom_space", label=_hom_label)
    patch(oracle, "relative_domdim", "oracle.relative_domdim", prepare=_count_steps(oracle.relative_domdim))
    patch(oracle, "standard_module", "oracle.standard_module")
