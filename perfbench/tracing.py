"""Trace fraclap from outside: wrap the public functions of each module.

A `Tracer` used as a context manager replaces every public module-level
function of the fraclap layers, and every scipy function that a fraclap
module imports by name, with a wrapper. Each function is replaced in its
defining module, in every fraclap module that imported it by name, and in
module-level dicts that hold it (such as the CLI's runner table). Leaving the
context puts the originals back.

Most wrappers record a span (name, start, end, parent) in memory. Closed
forms called per cell piece or per quadrature node (everything in `kernels`
and the evaluation methods of `profiles.Profile`) get a timed counter
instead, and quad callbacks a plain counter: a span per call would cost more
than the call. A layer's self time is its spans' durations minus their child
spans and the counted time directly inside them, plus its own counted time.

Probes that the benchmark computes on return values (solve backward error,
dense matrix bytes, bytes written, kernel samples) run inside spans named
`bench.*`, so their cost is excluded from every fraclap layer.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import json
import os
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

LAYERS = (
    "grid",
    "kernels",
    "energies",
    "assembly",
    "mollifier",
    "solver",
    "boundary",
    "profiles",
    "config",
    "report",
    "experiments",
    "cli",
    "scipy",
)
# layers whose functions are timed counters rather than spans
COUNTED_LAYERS = ("kernels",)
PROFILE_EVALS = ("__call__", "derivative", "second_derivative")
ITERATIVE_SOLVERS = ("cg", "cgs", "bicg", "bicgstab", "gmres", "lgmres", "minres", "qmr", "gcrotmk", "tfqmr")

# span record fields
NAME, START, END, PARENT, COUNTED = range(5)


def is_solve(name: str) -> bool:
    """True for scipy entry points that factor or solve a linear system."""
    short = name.rsplit(".", 1)[-1]
    return "solve" in short or "factor" in short or short in ITERATIVE_SOLVERS


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith(("calls", "evals")):
        return "count"
    if last.endswith("bytes") or last.startswith("bytes"):
        return "B"
    if last.endswith("_err"):
        return "ratio"
    return "s"


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: its duration minus the durations of its
    direct children and the counted time recorded directly inside it."""
    out = [s[END] - s[START] - s[COUNTED] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_self_times(spans: Sequence[Sequence], counted_s: Dict[str, float]) -> Dict[str, float]:
    """Self time per layer (the part of a span name before the first dot)."""
    totals: Dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        totals[s[NAME].split(".", 1)[0]] += own
    for layer, t in counted_s.items():
        totals[layer] += t
    return dict(totals)


def _scipy_imports(module) -> List[Tuple[str, str]]:
    """(scipy module, name) for every `from scipy... import name` in the
    module's source, including imports inside function bodies."""
    path = getattr(module, "__file__", None)
    if not path or not path.endswith(".py"):
        return []
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.extend((node.module, alias.name) for alias in node.names)
    return found


def _dense_arrays(value) -> Iterable:
    """Square 2-d arrays in a return value or in its dataclass fields."""
    import numpy as np

    candidates = [value]
    fields = getattr(value, "__dataclass_fields__", None)
    if fields:
        candidates.extend(getattr(value, f, None) for f in fields)
    for c in candidates:
        if isinstance(c, np.ndarray) and c.ndim == 2 and c.shape[0] == c.shape[1] > 1:
            yield c


def _inf_norm_dense(a) -> float:
    import numpy as np

    # row blocks keep the |A| temporary small for large matrices
    return max(float(np.abs(a[i : i + 512]).sum(axis=1).max()) for i in range(0, a.shape[0], 512))


def _banded_upper_matvec(ab, x):
    """A @ x for a symmetric band matrix in scipy's upper storage."""
    import numpy as np

    u = ab.shape[0] - 1
    y = ab[u] * x
    for k in range(1, u + 1):
        sup = ab[u - k, k:]
        y[:-k] += sup * x[k:]
        y[k:] += sup * x[:-k]
    return y


class Tracer:
    """Wraps fraclap for the duration of a `with` block and collects spans,
    counters and probe values."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.counted_s: Dict[str, float] = defaultdict(float)
        self.in_counter = False
        self.quad_evals = 0
        self.dense_bytes = 0
        self.bytes_written = 0
        self.backward_errs: List[float] = []
        self.kernel_samples: List[Tuple[float, float, int, float]] = []
        self._dense_seen: "weakref.WeakValueDictionary[int, object]" = weakref.WeakValueDictionary()
        self._factor_inputs: Dict[int, object] = {}
        self._restore: List[Callable[[], None]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn: Callable, probe: Callable = None) -> Callable:
        spans, stack, calls, clock = self.spans, self.stack, self.calls, time.perf_counter
        signature = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if self.in_counter:
                # inside a timed counter the counter owns the time
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if probe is not None:
                self._probe(probe, result, signature.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def _probe(self, probe: Callable, result, arguments: Dict[str, object]) -> None:
        rec = ["bench.probe", 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0]
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            probe(result, arguments)
        finally:
            rec[END] = time.perf_counter()

    def _counter(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        spans, stack, calls, counted, clock = (
            self.spans,
            self.stack,
            self.calls,
            self.counted_s,
            time.perf_counter,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if self.in_counter:
                return fn(*args, **kwargs)
            self.in_counter = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.in_counter = False
                counted[layer] += dt
                if stack:
                    spans[stack[-1]][COUNTED] += dt

        return wrapper

    def _quad(self, name: str, fn: Callable) -> Callable:
        def counted(func):
            @functools.wraps(func)
            def callback(*a):
                self.quad_evals += 1
                return func(*a)

            return callback

        @functools.wraps(fn)
        def quad(func, *args, **kwargs):
            return fn(counted(func), *args, **kwargs)

        return self._span(name, quad)

    # -- probes: each takes the return value and the bound arguments ----

    def _count_dense(self, result, arguments) -> None:
        for a in _dense_arrays(result):
            if self._dense_seen.get(id(a)) is a:
                continue
            self._dense_seen[id(a)] = a
            self.dense_bytes += a.nbytes

    def _record_written(self, result, arguments) -> None:
        path = arguments.get("path")
        if path is not None and os.path.isfile(path):
            self.bytes_written += os.path.getsize(path)

    def _record_kernel(self, result, arguments) -> None:
        k = int(arguments["kmax"])
        self.kernel_samples.append((float(arguments["p"].s), float(arguments["h"]), k, float(result[k])))

    def _remember_factor(self, result, arguments) -> None:
        self._factor_inputs[id(result[0])] = arguments["a"]

    def _backward_error(self, matvec: Callable, norm_a: float, u, b) -> None:
        import numpy as np

        r = matvec(u) - b
        denom = norm_a * float(np.max(np.abs(u))) + float(np.max(np.abs(b)))
        self.backward_errs.append(float(np.max(np.abs(r))) / denom if denom > 0.0 else 0.0)

    def _probe_cho_solve(self, u, arguments) -> None:
        a = self._factor_inputs.pop(id(arguments["c_and_lower"][0]), None)
        if a is not None:
            self._backward_error(lambda x: a @ x, _inf_norm_dense(a), u, arguments["b"])

    def _probe_solveh_banded(self, u, arguments) -> None:
        import numpy as np

        if arguments.get("lower", False):
            return  # only the upper storage that fraclap uses is modelled
        ab = arguments["ab"]
        norm_a = float(np.max(_banded_upper_matvec(np.abs(ab), np.ones(ab.shape[1]))))
        self._backward_error(lambda x: _banded_upper_matvec(ab, x), norm_a, u, arguments["b"])

    def _probe_solve_toeplitz(self, u, arguments) -> None:
        import numpy as np
        from scipy.linalg import matmul_toeplitz

        c = arguments["c_or_cr"]
        if isinstance(c, tuple):
            return  # only the symmetric form (first column alone) is modelled
        norm_a = float(np.max(matmul_toeplitz(np.abs(c), np.ones(len(c)))))
        self._backward_error(lambda x: matmul_toeplitz(c, x), norm_a, u, arguments["b"])

    def _scipy_probe(self, short: str):
        return {
            "cho_factor": self._remember_factor,
            "cho_solve": self._probe_cho_solve,
            "solveh_banded": self._probe_solveh_banded,
            "solve_toeplitz": self._probe_solve_toeplitz,
        }.get(short)

    def _fraclap_probe(self, layer: str, short: str):
        if layer == "assembly" and short == "stiffness_kernel":
            return lambda r, a: (self._count_dense(r, a), self._record_kernel(r, a))
        if layer in ("assembly", "solver"):
            return self._count_dense
        if layer == "report" and short.startswith("emit_"):
            return self._record_written
        return None

    # -- patching -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import fraclap.cli  # noqa: F401  (imports every layer)

        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "fraclap" or name.startswith("fraclap.")
        }
        wrappers: Dict[int, Tuple[object, Callable]] = {}
        for layer in LAYERS[:-1]:
            mod = modules.get(f"fraclap.{layer}")
            if mod is None:
                continue
            for short, obj in list(vars(mod).items()):
                if short.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{short}"
                if layer in COUNTED_LAYERS:
                    wrapper = self._counter(name, obj)
                else:
                    wrapper = self._span(name, obj, self._fraclap_probe(layer, short))
                wrappers[id(obj)] = (obj, wrapper)
        for mod in modules.values():
            for sci_mod, short in _scipy_imports(mod):
                home = importlib.import_module(sci_mod)
                obj = getattr(home, short, None)
                if not (inspect.isfunction(obj) or inspect.isbuiltin(obj)) or id(obj) in wrappers:
                    continue
                name = f"scipy.{short}"
                if short == "quad":
                    wrapper = self._quad(name, obj)
                else:
                    wrapper = self._span(name, obj, self._scipy_probe(short))
                wrappers[id(obj)] = (obj, wrapper)
                self._setattr(home, short, wrapper)
        for mod in modules.values():
            for short, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._setattr(mod, short, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self._setitem(value, key, wrappers[id(item)][1])
        profile_cls = modules["fraclap.profiles"].Profile
        for short in PROFILE_EVALS:
            original = vars(profile_cls)[short]
            self._setattr(profile_cls, short, self._counter(f"profiles.{short}", original))
        return self

    def _setattr(self, owner, name: str, value) -> None:
        original = vars(owner)[name]
        setattr(owner, name, value)
        self._restore.append(lambda: setattr(owner, name, original))

    def _setitem(self, mapping: dict, key, value) -> None:
        original = mapping[key]
        mapping[key] = value
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def __exit__(self, *exc) -> None:
        while self._restore:
            self._restore.pop()()
        self._factor_inputs.clear()

    # -- results --------------------------------------------------------

    def kernel_rel_err(self) -> float:
        """Largest relative error of stiffness_kernel at its last offset
        against the same closed form evaluated with mpmath at 60 digits."""
        worst = 0.0
        for s, h, k, value in set(self.kernel_samples):
            exact = stiffness_kernel_mp(s, h, k)
            worst = max(worst, abs(value - exact) / abs(exact))
        return worst

    def metrics(self) -> Dict[str, float]:
        """Per-layer calls and self times plus the probe values."""
        own = layer_self_times(self.spans, self.counted_s)
        calls: Dict[str, int] = defaultdict(int)
        for name, n in self.calls.items():
            calls[name.split(".", 1)[0]] += n
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = own.get(layer, 0.0)
        span_self = self_times(self.spans)
        solve = [t for s, t in zip(self.spans, span_self) if s[NAME].startswith("scipy.") and is_solve(s[NAME])]
        quad = [t for s, t in zip(self.spans, span_self) if s[NAME] == "scipy.quad"]
        out.update(
            {
                "scipy.solve_calls": len(solve),
                "scipy.solve_s": sum(solve),
                "scipy.backward_err": max(self.backward_errs, default=0.0),
                "scipy.quad_calls": len(quad),
                "scipy.quad_s": sum(quad),
                "scipy.quad_evals": self.quad_evals,
                "assembly.dense_bytes": self.dense_bytes,
                "assembly.kernel_rel_err": self.kernel_rel_err(),
                "profiles.evals": sum(self.calls.get(f"profiles.{m}", 0) for m in PROFILE_EVALS),
                "report.bytes_written": self.bytes_written,
                "trace_probe_s": own.get("bench", 0.0),
            }
        )
        return out

    def write_spans(self, path: Path) -> None:
        rows = [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT], "counted": s[COUNTED]}
            for s in self.spans
        ]
        Path(path).write_text(json.dumps(rows), encoding="utf-8")


def stiffness_kernel_mp(s: float, h: float, k: int, dps: int = 60) -> float:
    """c[k] = (1-s) h**(1-2s) / (s (2-2s)(3-2s)) * D4[V](k) with
    V(m) = (m**(3-2s) - m**2) / (1-2s), evaluated in mpmath."""
    import mpmath

    with mpmath.workdps(dps):
        s_ = mpmath.mpf(s)
        g = 1 - 2 * s_

        def v(m: int):
            m = abs(m)
            if m < 2:
                return mpmath.mpf(0)
            mm = mpmath.mpf(m)
            if g == 0:
                return mm**2 * mpmath.log(mm)
            return (mm ** (3 - 2 * s_) - mm**2) / g

        d4 = v(k + 2) - 4 * v(k + 1) + 6 * v(k) - 4 * v(k - 1) + v(k - 2)
        pref = (1 - s_) * mpmath.mpf(h) ** g / (s_ * (2 - 2 * s_) * (3 - 2 * s_))
        return float(pref * d4)
