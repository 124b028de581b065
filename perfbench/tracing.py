"""Span tracing of kronspec's public functions, installed from outside.

``Tracer.install`` replaces every public function a kronspec module defines,
in each kronspec module namespace that holds it (that is, where the pipeline
looks it up, e.g. ``kronspec.experiments.sym_eigenvalues``), with a wrapper
that records a span ``[name, layer, start, end, parent, info]`` in memory.
``src/`` is not edited, and ``uninstall`` restores the originals. A function
that a later version no longer defines or calls records no spans, so its
metrics read 0 instead of failing the run.

Work a hook does after a call (hashing a product matrix, counting pairs) runs
with the span clock paused, so it lands in no span's time; it still shows in
the traced round's wall time, which is what the overhead metric compares.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import importlib.util
import inspect
import time

import numpy as np

LAYERS = (
    "generators", "graphs", "spectral", "estimators", "metrics",
    "theory", "checks", "experiments", "cli",
)

# An eigensolve or Laplacian of at least this dimension counts as a product
# one. Every factor graph the workloads draw has order <= 200; every product
# the experiment workloads solve has order >= 1500.
PRODUCT_DIM = 1000

SOLVERS = {"spectral.sym_eig", "spectral.sym_eigenvalues"}
LAPLACIANS = {"graphs.laplacian", "graphs.normalized_laplacian", "graphs.normalized_laplacian_of"}
AGGREGATES = {"metrics.aggregate_profile", "metrics.kde"}

# name -> unit of every per-layer metric, in print order
PER_LAYER = {
    "spectral.product_s": "s",
    "spectral.product_calls": "count",
    "spectral.product_repeat_calls": "count",
    "spectral.product_gflop": "GFLOP",
    "spectral.product_gflops": "GFLOP/s",
    "spectral.factor_s": "s",
    "spectral.factor_calls": "count",
    "metrics.correlation_s": "s",
    "metrics.correlation_pairs": "count",
    "metrics.correlation_gflop": "GFLOP",
    "metrics.errors_s": "s",
    "metrics.aggregate_s": "s",
    "graphs.kron_s": "s",
    "graphs.laplacian_s": "s",
    "graphs.product_mb": "MB",
    "generators.s": "s",
    "generators.connected_yield": "ratio",
    "estimators.s": "s",
    "estimators.calls": "count",
    "experiments.self_s": "s",
    "experiments.write_s": "s",
    "experiments.report_kb": "KiB",
    "experiments.version_calls": "count",
    "checks.self_s": "s",
    "theory.s": "s",
    "cli.self_s": "s",
    **{f"{layer}.lines": "lines" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def _solve_info(tracer, args, kwargs, result) -> dict:
    m = np.asarray(args[0] if args else kwargs["m"])
    dim = m.shape[0]
    # Golub & Van Loan: 4n^3/3 for the tridiagonal reduction of an
    # eigenvalues-only solve, 9n^3 for symmetric QR with eigenvectors
    flop = (9.0 if hasattr(result, "eigenvectors") else 4.0 / 3.0) * float(dim) ** 3
    info = {"dim": dim, "flop": flop, "repeat": False}
    if dim >= PRODUCT_DIM:
        m = np.ascontiguousarray(m)
        key = (hashlib.sha1(m).hexdigest(), m.shape, m.dtype.str)
        info["repeat"] = key in tracer.solved
        tracer.solved.add(key)
    return info


def _correlation_info(tracer, args, kwargs, result) -> dict:
    basis1 = args[1] if len(args) > 1 else kwargs["basis1"]
    basis2 = args[2] if len(args) > 2 else kwargs["basis2"]
    dim = basis1.shape[0] * basis2.shape[0]
    pairs = len(result)
    # dense path: one dim x dim matvec, 2 dim^2 flops, per cosine
    return {"pairs": pairs, "flop": 2.0 * dim * dim * pairs}


def _kron_info(tracer, args, kwargs, result) -> dict:
    return {"bytes": result.adjacency.nbytes + result.degrees.nbytes}


def _laplacian_info(tracer, args, kwargs, result) -> dict:
    return {"bytes": result.nbytes if result.shape[0] >= PRODUCT_DIM else 0}


def _graphs_returned(tracer, args, kwargs, result) -> dict:
    items = result if isinstance(result, tuple) else (result,)
    return {"graphs": sum(1 for g in items if hasattr(g, "adjacency"))}


HOOKS = {
    **{name: _solve_info for name in SOLVERS},
    "metrics.correlation_profile": _correlation_info,
    "graphs.kronecker_graph": _kron_info,
    **{name: _laplacian_info for name in LAPLACIANS},
}


class Tracer:
    """In-memory span recorder for one traced round."""

    def __init__(self):
        self.spans: list[list] = []
        self.solved: set = set()
        self._open: list[int] = []
        self._paused = 0.0
        self._restore: list[tuple] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def install(self) -> None:
        # import every module before patching any, so that no module copies
        # an already wrapped function into its namespace at import time
        modules = [importlib.import_module(f"kronspec.{layer}") for layer in LAYERS
                   if importlib.util.find_spec(f"kronspec.{layer}") is not None]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("kronspec.") or home not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(home, obj)
                setattr(module, attr, wrappers[obj])
                self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        hook = HOOKS.get(name) or (_graphs_returned if layer == "generators" else None)
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, self.now(), 0.0, open_spans[-1] if open_spans else -1, None]
            spans.append(span)
            open_spans.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = self.now()
                open_spans.pop()
            if hook is not None:
                started = time.perf_counter()
                span[5] = hook(self, args, kwargs, result)
                self._paused += time.perf_counter() - started
            return result

        return traced


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-round totals from one round's spans; see ``per_layer`` for the names."""
    durations = [s[3] - s[2] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s[4] >= 0:
            child_time[s[4]] += d

    def outermost(i: int, member) -> bool:
        parent = spans[i][4]
        while parent >= 0:
            if member(spans[parent]):
                return False
            parent = spans[parent][4]
        return True

    def time_in(member) -> float:
        return sum(d for i, (s, d) in enumerate(zip(spans, durations))
                   if member(s) and outermost(i, member))

    t = dict.fromkeys([
        "spectral.product_s", "spectral.product_calls", "spectral.product_repeat_calls",
        "spectral.product_gflop", "spectral.factor_s", "spectral.factor_calls",
        "metrics.correlation_pairs", "metrics.correlation_gflop", "graphs.product_mb",
        "generators.graphs", "generators.tests", "estimators.calls",
        "experiments.version_calls", "experiments.self_s", "checks.self_s", "cli.self_s",
    ], 0.0)
    for i, (s, d) in enumerate(zip(spans, durations)):
        # a call that raised ran no hook, so it has no info
        name, layer, info = s[0], s[1], s[5] or {}
        if name in SOLVERS and info:
            kind = "product" if info["dim"] >= PRODUCT_DIM else "factor"
            t[f"spectral.{kind}_s"] += d
            t[f"spectral.{kind}_calls"] += 1
            if kind == "product":
                t["spectral.product_repeat_calls"] += info["repeat"]
                t["spectral.product_gflop"] += info["flop"] / 1e9
        elif name == "metrics.correlation_profile" and info:
            t["metrics.correlation_pairs"] += info["pairs"]
            t["metrics.correlation_gflop"] += info["flop"] / 1e9
        elif name == "graphs.is_connected":
            t["generators.tests"] += 1
        elif name == "experiments.version_string":
            t["experiments.version_calls"] += 1
        t["graphs.product_mb"] += info.get("bytes", 0) / 2**20
        if layer in ("experiments", "checks", "cli"):
            t[f"{layer}.self_s"] += d - child_time[i]
        if layer == "generators" and outermost(i, lambda p: p[1] == "generators"):
            t["generators.graphs"] += info.get("graphs", 0)
        if layer == "estimators" and outermost(i, lambda p: p[1] == "estimators"):
            t["estimators.calls"] += 1

    t["metrics.correlation_s"] = time_in(lambda s: s[0] == "metrics.correlation_profile")
    t["metrics.errors_s"] = time_in(lambda s: s[0] == "metrics.percentage_errors")
    t["metrics.aggregate_s"] = time_in(lambda s: s[0] in AGGREGATES)
    t["graphs.kron_s"] = time_in(lambda s: s[0] == "graphs.kronecker_graph")
    t["graphs.laplacian_s"] = time_in(lambda s: s[0] in LAPLACIANS)
    t["experiments.write_s"] = time_in(lambda s: s[0].startswith("experiments.write_"))
    for layer in ("generators", "estimators", "theory"):
        t[f"{layer}.s"] = time_in(lambda s, layer=layer: s[1] == layer)
    return t


def per_layer(rounds: list[dict], lines: dict[str, int], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics: the mean over traced rounds of each round's totals.

    ``rounds`` holds one ``summarize`` result per traced round, each with
    ``experiments.report_kb`` added. Rates and yields are taken over the
    sums, so a round without product solves or connectivity tests counts as
    zero work rather than as an undefined ratio.
    """
    total = {key: sum(r[key] for r in rounds) for key in rounds[0]}
    out = {key: value / len(rounds) for key, value in total.items()}
    out["spectral.product_gflops"] = (
        total["spectral.product_gflop"] / total["spectral.product_s"]
        if total["spectral.product_s"] > 0 else 0.0
    )
    tests = total["generators.tests"]
    out["generators.connected_yield"] = total["generators.graphs"] / tests if tests else 1.0
    out.update({f"{layer}.lines": float(lines.get(layer, 0)) for layer in LAYERS})
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in PER_LAYER}
