"""Span recording around logchol's layers, installed from outside the package.

:class:`Tracer` wraps every module-level function and method of the
package's modules, plus the ``numpy.linalg`` and ``scipy.linalg`` entry
points the package calls, with a recorder of ``(name, start, end, parent)``
spans.  Each wrapper is rebound wherever the original is referenced: in
every package module that imported the name (``from .chol_map import
cholesky_factor``, ``from scipy.linalg import solve_triangular``, ...), on
the defining class, and in the fields of registry objects such as
``MetricOps``.  Spans are recorded only under a root span opened by the
benchmark around a timed call, so checking code never shows up.

Spans are kept in memory while a slice of work runs and reduced to self
times between slices, outside every timed region.  A name that a later
version of the package no longer defines is skipped; the metrics that need
it are reported as unmeasured.
"""
from __future__ import annotations

import dataclasses
import functools
import gc
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# Package modules, in the order their layers are reported.
MODULE_LAYERS = (
    "tri",
    "chol_map",
    "chol_manifold",
    "spd_manifold",
    "baselines",
    "sampling",
    "experiments",
    "report",
    "cli",
)

# LAPACK-backed entry points: (owner module, attribute, routine label).
LAPACK_ENTRY_POINTS = (
    ("numpy.linalg", "cholesky", "cholesky"),
    ("numpy.linalg", "eigh", "eigh"),
    ("numpy.linalg", "eigvalsh", "eigvalsh"),
    ("numpy.linalg", "inv", "inv"),
    ("numpy.linalg", "det", "det"),
    ("numpy.linalg", "slogdet", "det"),
    ("numpy.linalg", "solve", "solve"),
    ("numpy.linalg", "qr", "qr"),
    ("scipy.linalg", "solve_triangular", "trsm"),
    ("scipy.linalg.lapack", "dtrtrs", "trsm"),
)

# Sub-layers: a span whose own name is listed takes that group; any other
# span inherits the group of a parent in the same layer.
GROUPS = {
    "tri.LowerTriangular.__post_init__": "tri.wrap",
    "tri.SymMatrix.__post_init__": "tri.wrap",
    "tri.LowerTriangular.from_dense": "tri.from_dense",
    "tri.SymMatrix.from_dense": "tri.from_dense",
    "tri.SpdMatrix.from_dense": "tri.from_dense",
    "tri.pack_lower": "tri.pack",
    "tri.unpack_lower": "tri.pack",
    "tri.unpack_sym": "tri.pack",
    "tri.LowerTriangular.dense": "tri.pack",
    "tri.SymMatrix.dense": "tri.pack",
    "baselines.dlog_spd": "baselines.le_series",
    "baselines.dexp_sym": "baselines.le_series",
    "baselines._sqrt_pair": "baselines.ai",
}
AI_PREFIX = "baselines.affine_"
KARCHER = "baselines.affine_karcher_mean"
AFFINE_LOG = "baselines.affine_log"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def own_group(name: str) -> str | None:
    if name.startswith(AI_PREFIX):
        return "baselines.ai"
    return GROUPS.get(name)


def _array_bytes(args, out) -> int:
    n = out.nbytes if isinstance(out, np.ndarray) else 0
    if args and isinstance(args[0], np.ndarray):
        n += args[0].nbytes
    return n


def _self_bytes(args, out) -> int:
    # ``dense()`` is a method: the packed input is ``self.data``.
    n = out.nbytes if isinstance(out, np.ndarray) else 0
    data = getattr(args[0], "data", None) if args else None
    return n + (data.nbytes if isinstance(data, np.ndarray) else 0)


def _text_bytes(args, out) -> int:
    return len(out) if isinstance(out, str) else 0


def _count(args, out) -> int:
    return len(args[0]) if args else 0


# Extra per-span quantity, by span name: bytes moved (computed from array
# sizes, not measured), report text length, and the number of matrices a
# Karcher mean averages.
MEASURES = {
    "tri.pack_lower": _array_bytes,
    "tri.unpack_lower": _array_bytes,
    "tri.unpack_sym": _array_bytes,
    "tri.LowerTriangular.dense": _self_bytes,
    "tri.SymMatrix.dense": _self_bytes,
    "report.ExperimentReport.to_json": _text_bytes,
    "report.ExperimentReport.nontiming_json": _text_bytes,
    "report.ExperimentReport.to_csv": _text_bytes,
    "report.GlyphRecord.to_json": _text_bytes,
    KARCHER: _count,
}


def _set(owner, attr: str, value) -> None:
    try:
        setattr(owner, attr, value)
    except dataclasses.FrozenInstanceError:
        object.__setattr__(owner, attr, value)


class Tracer:
    """Records spans under benchmark-opened roots and reduces them to
    per-name, per-layer and per-group totals."""

    def __init__(self, package: str = "logchol"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Spans of the current slice, one entry per span in each array; the
        # root spans the benchmark opens have name id -1.  Flat integer
        # arrays keep the recorder from feeding the garbage collector.
        self.nid = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.extra_q = array("q")
        self.stack: list[int] = []
        self.patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        # Totals over the run.
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.extra: dict[str, int] = defaultdict(int)
        self.root_ns = 0
        self.karcher_logs = 0
        self.karcher_n = 0
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._gc_start = None

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.extra_q.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _wrapper(self, name: str, fn):
        nid = self._name_id(name)
        measure = MEASURES.get(name)
        stack = self.stack
        end = self.end
        extra = self.extra_q
        open_span = self._open

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = open_span(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                extra[idx] = measure(args, out)
            return out

        try:
            functools.update_wrapper(traced, fn)
        except (AttributeError, TypeError):
            pass
        return traced

    def plan(self) -> None:
        """Build the wrappers for the package as currently imported."""
        pkg = sys.modules[self.package]
        modules = {}
        for layer in MODULE_LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                self.missing.append(layer)
        originals: dict[int, object] = {}  # id(original) -> wrapper

        def add(owner, attr, name, fn):
            wrapper = self._wrapper(name, fn)
            originals[id(fn)] = wrapper
            self.patches.append((owner, attr, fn, wrapper))

        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if inspect.isclass(val) and val.__module__ == mod.__name__:
                    for mattr, mval in list(vars(val).items()):
                        if mattr.startswith("__") and mattr != "__post_init__":
                            continue
                        name = f"{layer}.{val.__name__}.{mattr}"
                        if isinstance(mval, classmethod):
                            w = self._wrapper(name, mval.__func__)
                            self.patches.append((val, mattr, mval, classmethod(w)))
                        elif isinstance(mval, staticmethod):
                            w = self._wrapper(name, mval.__func__)
                            self.patches.append((val, mattr, mval, staticmethod(w)))
                        elif inspect.isfunction(mval):
                            add(val, mattr, name, mval)
                elif (
                    callable(val)
                    and not inspect.isclass(val)
                    and getattr(val, "__module__", None) == mod.__name__
                ):
                    add(mod, attr, f"{layer}.{attr}", val)

        for modname, attr, label in LAPACK_ENTRY_POINTS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            if id(fn) in originals:
                self.patches.append((owner, attr, fn, originals[id(fn)]))
            else:
                add(owner, attr, f"lapack.{label}", fn)

        # Rebind every other reference to a wrapped original: names imported
        # into other package modules, and fields of registry objects.
        scanned = [pkg, *modules.values()]
        for mod in scanned:
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and not any(
                    p[0] is mod and p[1] == attr for p in self.patches
                ):
                    self.patches.append((mod, attr, val, originals[id(val)]))
                if isinstance(val, dict):
                    for item in val.values():
                        if dataclasses.is_dataclass(item) and not inspect.isclass(item):
                            for f in dataclasses.fields(item):
                                cur = getattr(item, f.name)
                                if id(cur) in originals:
                                    self.patches.append(
                                        (item, f.name, cur, originals[id(cur)])
                                    )

    def install(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            _set(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self.patches):
            _set(owner, attr, original)
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.stack:
            return
        if phase == "start":
            self._gc_start = perf_counter_ns()
        elif self._gc_start is not None:
            self.gc_pause_ns += perf_counter_ns() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- recording --------------------------------------------------------

    def root(self, fn, *args):
        """Call ``fn(*args)`` under a root span; returns ``(result, ns)``."""
        idx = self._open(-1)
        try:
            out = fn(*args)
        finally:
            self.end[idx] = perf_counter_ns()
            self.stack.pop()
        return out, self.end[idx] - self.start[idx]

    def reduce(self) -> None:
        """Fold the recorded spans into the run totals and drop them."""
        n = len(self.nid)
        if not n:
            return
        nid = np.array(self.nid, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        extra = np.array(self.extra_q, dtype=np.int64)
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child

        is_root = nid < 0
        self.root_ns += int(dur[is_root].sum())

        # Per-name totals; index 0 holds the roots.
        k = len(self.names) + 1
        calls = np.bincount(nid + 1, minlength=k)
        self_tot = np.bincount(nid + 1, weights=self_ns, minlength=k)
        extra_tot = np.bincount(nid + 1, weights=extra, minlength=k)
        for i, name in enumerate(self.names, start=1):
            if calls[i]:
                self.calls[name] += int(calls[i])
                self.self_ns[name] += int(self_tot[i])
                self.extra[name] += int(extra_tot[i])

        # Groups and Karcher membership follow the parent chain; a parent is
        # always recorded before its children.
        groups = sorted({g for g in map(own_group, self.names) if g})
        gid = {g: j for j, g in enumerate(groups)}
        own = [gid.get(own_group(nm), -1) for nm in self.names]
        layer = [_layer(nm) for nm in self.names]
        karcher = self._name_ids.get(KARCHER, -2)
        affine_log = self._name_ids.get(AFFINE_LOG, -2)
        grp = [-1] * n
        in_k = [False] * n
        nl = nid.tolist()
        pl = parent.tolist()
        for i in range(n):
            a = nl[i]
            if a < 0:
                continue
            p = pl[i]
            g = own[a]
            if g < 0 and p >= 0 and nl[p] >= 0 and layer[nl[p]] == layer[a]:
                g = grp[p]
            grp[i] = g
            inside = p >= 0 and in_k[p]
            in_k[i] = a == karcher or inside
            if a == affine_log and inside:
                self.karcher_logs += 1
        garr = np.asarray(grp, dtype=np.int64) + 1
        gcalls = np.bincount(
            garr, weights=np.asarray([own[a] >= 0 if a >= 0 else False for a in nl], dtype=float),
            minlength=len(groups) + 1,
        )
        gself = np.bincount(garr, weights=self_ns, minlength=len(groups) + 1)
        gextra = np.bincount(garr, weights=extra, minlength=len(groups) + 1)
        for g, j in gid.items():
            self.calls["group:" + g] += int(gcalls[j + 1])
            self.self_ns["group:" + g] += int(gself[j + 1])
            self.extra["group:" + g] += int(gextra[j + 1])
        if karcher >= 0:
            self.karcher_n += int(extra[nid == karcher].sum())
        for arr in (self.nid, self.parent, self.start, self.end, self.extra_q):
            del arr[:]

    # -- results ----------------------------------------------------------

    def has(self, name: str) -> bool:
        """Whether ``name`` was found and wrapped."""
        return name in self._name_ids

    def layer_totals(self) -> tuple[dict[str, int], dict[str, int]]:
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for name, c in self.calls.items():
            if name.startswith("group:"):
                continue
            calls[_layer(name)] += c
            self_ns[_layer(name)] += self.self_ns[name]
        return calls, self_ns
