"""Out-of-process-boundary tracing of the otgp layers.

The tracer wraps public functions by replacing every reference to them in
the loaded ``otgp`` modules (module attributes and module-level dicts such as
``experiments.RUNNERS``), so calls made through any importing module are
seen. Nothing under ``src/`` is edited; ``uninstall`` puts every original
back.

Two kinds of wrapper exist:

* span wrappers record (name, start, end, parent) in memory and accumulate
  self time, i.e. the span's duration minus the part its child spans cover;
* counter wrappers only count calls (and failures or a stat taken from the
  result), for hot, tiny calls such as ``kernels.kernel_eval`` where a span
  per call would cost more than the call.

A target that no longer exists is recorded in ``absent`` and skipped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


def _cost_mb(args, kwargs, result):
    # dense (source support x target support) float64 cost matrix, computed
    # from the two support sizes rather than measured
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    return np.count_nonzero(a.weights) * np.count_nonzero(b.weights) * 8 / 1e6


def _pairs(args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "features"))
    return n * (n - 1) / 2


# (module, function, kind, {stat: (extractor(args, kwargs, result), aggregate)})
# kind "span" times the call; kind "count" only counts it.
TARGETS = (
    ("measures", "disks_to_grid", "span", {}),
    ("measures", "rasterize_gaussian", "span", {}),
    ("barycenter", "grid_barycenter", "span",
     {"iterations": (lambda a, k, r: r.iterations, "sum")}),
    ("barycenter", "gaussian_barycenter", "span",
     {"iterations": (lambda a, k, r: r.iterations, "sum")}),
    ("ot", "inverse_grid_map", "span", {}),
    ("ot", "sinkhorn_plan", "span", {"cost_mb": (_cost_mb, "max")}),
    ("ot", "gaussian_transport_map", "span", {}),
    ("ot", "gaussian_w2", "span", {}),
    ("kernels", "embed_grids", "span", {}),
    ("kernels", "embed_gaussians", "span", {}),
    ("kernels", "pairwise_distances", "span", {"pairs": (_pairs, "sum")}),
    ("kernels", "kernel_eval", "count", {}),
    ("kernels", "naive_w2_gram", "span", {}),
    ("kernels", "psd_diagnostic", "span", {}),
    ("gp", "gp_fit_mle", "span", {}),
    ("gp", "gp_fit_cv", "span", {}),
    ("gp", "log_likelihood", "count", {}),
    ("gp", "loo_residuals", "count", {}),
    ("gp", "chol_with_jitter", "count",
     {"jittered": (lambda a, k, r: float(r[1] > 0), "sum")}),
    ("gp", "gp_predict", "span", {}),
    ("baseline", "fit_smoother", "span", {}),
    ("baseline", "smoother_predict", "span",
     {"fallbacks": (lambda a, k, r: float(r.fallback), "sum")}),
)

# Modules whose public functions are all traced, grouped under the module name.
WHOLE_MODULES = ("dataio",)
# Experiment drivers, traced so experiments.self_s can be told apart.
EXPERIMENT_PREFIX = "run_"


def _otgp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "otgp" or name.startswith("otgp."))]


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name_id, start, end, parent_index)
        # open spans: [span_index, child_seconds, name_id, parent, name, start]
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.stats: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> list:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0, self._id(name), parent, name, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        index, child_s, nid, parent, name, start = frame
        duration = end - start
        self.spans[index] = (nid, start, end, parent)
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield
        except Exception:
            self.failed[name] += 1
            raise
        finally:
            self._close(frame)

    def _record(self, name, stats, args, kwargs, result):
        for stat, (extract, aggregate) in stats.items():
            try:
                value = float(extract(args, kwargs, result))
            except (AttributeError, TypeError, IndexError, KeyError):
                continue  # the result or signature changed shape; skip the stat
            key = f"{name}.{stat}"
            if aggregate == "max":
                self.stats[key] = max(self.stats[key], value)
            else:
                self.stats[key] += value

    def _span_wrapper(self, fn, name, stats):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                self._close(frame)
            if stats:
                self._record(name, stats, args, kwargs, result)
            return result
        return traced

    def _count_wrapper(self, fn, name, stats):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            self._record(name, stats, args, kwargs, result)
            return result
        return counted

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _otgp_modules():
            namespace = vars(module)
            hits = [attr for attr, val in namespace.items() if val is original]
            for attr in hits:
                self._undo.append((namespace, attr, original))
                namespace[attr] = wrapper
            for table in [v for v in namespace.values() if isinstance(v, dict)]:
                for key in [k for k, v in table.items() if v is original]:
                    self._undo.append((table, key, original))
                    table[key] = wrapper

    def _targets(self):
        for module, func, kind, stats in TARGETS:
            yield module, func, kind, stats
        for module in WHOLE_MODULES:
            mod = sys.modules.get(f"otgp.{module}")
            for func, fn in inspect.getmembers(mod, inspect.isfunction) if mod else []:
                if fn.__module__ == mod.__name__ and not func.startswith("_"):
                    yield module, func, "span", {}
        mod = sys.modules.get("otgp.experiments")
        for func, fn in inspect.getmembers(mod, inspect.isfunction) if mod else []:
            if fn.__module__ == mod.__name__ and func.startswith(EXPERIMENT_PREFIX):
                yield "experiments", func, "span", {}

    def install(self) -> None:
        """Wrap every target in every otgp module that references it."""
        for module, func, kind, stats in list(self._targets()):
            name = f"{module}.{func}"
            home = sys.modules.get(f"otgp.{module}")
            original = getattr(home, func, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            self._replace_everywhere(original, make(original, name, stats))
        self._install_numpy_io()

    def _install_numpy_io(self) -> None:
        # The CLI writes and reads the Gram CSV through numpy directly; that
        # file I/O is counted under dataio with the rest of the file formats.
        cli = sys.modules.get("otgp.cli")
        if cli is None or getattr(cli, "np", None) is not np:
            return
        proxy = _NumpyProxy({
            "savetxt": self._span_wrapper(np.savetxt, "dataio.np.savetxt", {}),
            "loadtxt": self._span_wrapper(np.loadtxt, "dataio.np.loadtxt", {}),
        })
        self._undo.append((vars(cli), "np", np))
        cli.np = proxy

    def uninstall(self) -> None:
        for table, key, original in reversed(self._undo):
            table[key] = original
        self._undo.clear()

    def write_spans(self, path: Path, origin: float) -> None:
        """Spans as parallel arrays; times in seconds from ``origin``."""
        done = [s for s in self.spans if s is not None]
        arr = np.array(done, dtype=float).reshape(-1, 4)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=arr[:, 0].astype(np.int32),
            start=arr[:, 1] - origin, end=arr[:, 2] - origin,
            parent=arr[:, 3].astype(np.int64))

    def layer_totals(self) -> dict[str, float]:
        """Self seconds summed per top-level name (module)."""
        out: dict[str, float] = defaultdict(float)
        for name, secs in self.self_s.items():
            out[name.split(".", 1)[0]] += secs
        return dict(out)


class _NumpyProxy:
    """numpy stand-in that overrides a few attributes."""

    def __init__(self, overrides):
        self._overrides = overrides

    def __getattr__(self, attr):
        if attr in self._overrides:
            return self._overrides[attr]
        return getattr(np, attr)
