"""Workloads, closed-loop driver and metrics of the logchol benchmark.

One process and one caller drive the package through its public names and
``logchol.cli.main``; each call starts only after the previous one returned.
A run interleaves two kinds of work under a share scheduler:

* a *calls* batch: for each geometry of ``get_metric``, a fixed number of
  inputs each run through the op mix ``transport`` (where one exists),
  ``distance`` and ``exp(P, log(P, Q))``, every call timed on its own;
* *CLI* rounds: in-process ``cli.main`` runs of the paper's experiments,
  each writing its report into a scratch directory.

The workload sets the matrix size of the calls and the share of run time
each kind of work gets, so every run reports every end-to-end metric.  Each
output is checked against :mod:`oracles` outside the timed region.  Times
are CPU time of the process, scaled to a nominal machine speed by
:class:`SpeedProbe`.
"""
from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time, process_time_ns

import numpy as np
from numpy.linalg import cholesky as _cholesky
from scipy.linalg import solve_triangular as _solve_triangular

import oracles as O
from spans import Tracer, own_group

GEOMETRIES = ("log-cholesky", "affine-invariant", "log-euclidean", "cholesky", "euclidean")
SHORT = {
    "log-cholesky": "lc",
    "affine-invariant": "ai",
    "log-euclidean": "le",
    "cholesky": "chol",
    "euclidean": "euclid",
}

# The truncated Log-Euclidean derivative series gives wrong transports,
# exponentials and logarithms on ordinary inputs.  These failures are
# counted in ``failed`` and ``ops_failed_frac`` like any other; they do not
# clear ``correct``, which reports whether any *other* output was wrong.
KNOWN_DEFECTS = {
    ("log-euclidean", "transport"),
    ("log-euclidean", "exp"),
    ("log-euclidean", "log"),
}

# The paper's CLI experiments, run with their own default seeds.
INTERPOLATE_STEPS = 101
STABILITY_KAPPAS = ("1e5", "1e10", "1e15")
STABILITY_M = 3
MEAN_GAP = {"n": 20, "m": 3, "trials": 100, "seed": 0}
FIXTURE_COUNT = 1000
FIXTURE_M = 5

# Probe times at the speed this host shows when no neighbour slows it, and
# how far around a sample's span its probes are taken from.
PROBE_NOMINAL_NS = {"python": 1_500_000, "blas": 1_450_000}
PROBE_WINDOW_S = 1.0
# From this call size on, LAPACK and BLAS take most of a call's time, and
# runs use the ``blas`` probe; below it, the ``python`` one.
BLAS_BOUND_M = 64


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    pool: int  # inputs generated for the calls
    le_pool: int  # Log-Euclidean uses the first ``le_pool`` of them
    batch: dict  # inputs per geometry in one calls batch
    shares: dict  # share of run time per item
    setups: int  # set-ups timed per run; ``setup_s`` is their median

    @property
    def calls_probe(self) -> str:
        return "blas" if self.m >= BLAS_BOUND_M else "python"


_CLI_SMALL = {"cli-interpolate": 0.05, "cli-mean": 0.05, "cli-stability": 0.05, "cli-mean-gap": 0.25}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "calls-m5", 5, 512, 256,
            {"log-cholesky": 64, "affine-invariant": 64, "log-euclidean": 4,
             "cholesky": 128, "euclidean": 128},
            {"calls": 0.6, **_CLI_SMALL}, 5,
        ),
        Workload(
            "calls-m128", 128, 64, 8,
            {"log-cholesky": 64, "affine-invariant": 16, "log-euclidean": 1,
             "cholesky": 32, "euclidean": 32},
            {"calls": 0.6, **_CLI_SMALL}, 5,
        ),
        Workload(
            "cli-paper", 3, 512, 256,
            {"log-cholesky": 128, "affine-invariant": 128, "log-euclidean": 8,
             "cholesky": 128, "euclidean": 128},
            {"calls": 0.3, "cli-interpolate": 0.1, "cli-mean": 0.1,
             "cli-stability": 0.07, "cli-mean-gap": 0.43}, 5,
        ),
    )
}

END_TO_END = {
    "setup_s": "s",
    "lc_ops_per_s": "1/s",
    "ai_ops_per_s": "1/s",
    "le_ops_per_s": "1/s",
    "chol_ops_per_s": "1/s",
    "euclid_ops_per_s": "1/s",
    "lc_transport_p50_us": "us",
    "lc_transport_p99_us": "us",
    "ai_transport_p50_us": "us",
    "cli_interpolate_s": "s",
    "cli_mean_lc_s": "s",
    "cli_stability_s": "s",
    "cli_mean_gap_s": "s",
    "ops_failed_frac": "frac",
}

# ``inv`` is left out: only ``affine_inner`` calls it, and no workload does.
LAPACK_ROUTINES = ("cholesky", "eigh", "eigvalsh", "trsm", "det")

# Per-layer metrics: rates per second of traced op time, so that runs of
# equal length but different speed stay comparable.
PER_LAYER = {
    "tri.self_us": "us/s",
    "tri.wrap.calls": "1/s",
    "tri.wrap.self_us": "us/s",
    "tri.from_dense.calls": "1/s",
    "tri.from_dense.self_us": "us/s",
    "tri.pack.calls": "1/s",
    "tri.pack.self_us": "us/s",
    "tri.pack.bytes": "B_computed/s",
    "python.gc_pause_us": "us/s",
    "python.gc_collections": "1/s",
    "lapack.self_us": "us/s",
    "lapack.share": "frac",
    **{f"lapack.{r}.{k}": u for r in LAPACK_ROUTINES for k, u in (("calls", "1/s"), ("self_us", "us/s"))},
    "chol_map.self_us": "us/s",
    "chol_map.cholesky_factor.calls": "1/s",
    "chol_map.diff_S_inv.calls": "1/s",
    "chol_map.reconstruct.calls": "1/s",
    "chol_manifold.self_us": "us/s",
    "chol_manifold.calls": "1/s",
    "spd_manifold.self_us": "us/s",
    "spd_manifold.calls": "1/s",
    "baselines.self_us": "us/s",
    "baselines.le_series.self_us": "us/s",
    "baselines.ai.self_us": "us/s",
    "baselines.karcher.iters_per_mean": "count",
    "sampling.self_us": "us/s",
    "experiments.self_us": "us/s",
    "report.self_us": "us/s",
    "report.bytes": "B/s",
    "cli.self_us": "us/s",
    "trace.overhead_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no package to import)."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_package(src: Path):
    """Import ``logchol`` afresh from ``src`` and return the package."""
    for name in [k for k in sys.modules if k == "logchol" or k.startswith("logchol.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("logchol")
        importlib.import_module("logchol.cli")
        importlib.import_module("logchol.experiments")
    except ImportError as exc:
        raise BenchError(f"cannot import logchol from {src}: {exc}") from exc
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"logchol was imported from {pkg.__file__}, not from {src}")
    return pkg


@dataclass
class Inputs:
    dense: list  # (p, q, w) dense arrays
    wrapped: list  # (P, Q, W) package objects
    fixture: Path
    fixture_stack: np.ndarray
    digest: str


def make_inputs(pkg, work: Workload, seed: int, outdir: Path) -> Inputs:
    pool_ss, fixture_ss = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(pool_ss)
    h = hashlib.sha256()
    dense, wrapped = [], []
    for _ in range(work.pool):
        p, q, w = O.spd_law(rng, work.m), O.spd_law(rng, work.m), O.tangent_law(rng, work.m)
        for a in (p, q, w):
            h.update(a.tobytes())
        dense.append((p, q, w))
        wrapped.append(
            (pkg.SpdMatrix.from_dense(p), pkg.SpdMatrix.from_dense(q), pkg.SymMatrix.from_dense(w))
        )
    frng = np.random.default_rng(fixture_ss)
    stack = np.stack([O.wishart_law(frng, FIXTURE_M) for _ in range(FIXTURE_COUNT)])
    blocks = []
    for a in stack:
        rows = [" ".join(repr(float(x)) for x in row) for row in a]
        blocks.append("\n".join([str(FIXTURE_M), *rows]))
    text = "\n\n".join(blocks) + "\n"
    h.update(text.encode())
    fixture = outdir / "fixture.txt"
    fixture.write_text(text, encoding="utf-8")
    return Inputs(dense, wrapped, fixture, stack, h.hexdigest())


def warm_up(pkg, inputs: Inputs, outdir: Path) -> None:
    P, Q, W = inputs.wrapped[0]
    for g in GEOMETRIES:
        ops = pkg.get_metric(g)
        if ops.transport is not None:
            ops.transport(P, Q, W)
        ops.distance(P, Q)
        ops.exp(P, ops.log(P, Q))
    out = str(outdir / "warmup.json")
    pkg.cli.main(["interpolate", "--steps", "2", "--out", out])
    pkg.cli.main(["stability", "--kappa", "1e5", "--m", str(STABILITY_M), "--out", out])


def setup(src: Path, work: Workload, seed: int, outdir: Path):
    """Set up once; returns the package, the inputs and the CPU seconds taken."""
    t0 = process_time()
    pkg = import_package(src)
    inputs = make_inputs(pkg, work, seed, outdir)
    warm_up(pkg, inputs, outdir)
    return pkg, inputs, process_time() - t0


# ---------------------------------------------------------------------------
# Timed calls and their checks
# ---------------------------------------------------------------------------


def _dense(x) -> np.ndarray:
    return x if isinstance(x, np.ndarray) else x.dense()


class Ledger:
    """Outcomes of distinct operations, with the first few failure messages.

    An operation is one geometry's op on one input, or one CLI run.  The
    timed loop repeats operations as often as its time allows and checks
    every repeat; an operation fails when any of its repeats does.  Counting
    operations rather than repeats makes ``attempted`` and ``failed`` depend
    on the seed alone, not on how many repeats fit into the run.
    """

    def __init__(self):
        self.outcomes: dict[tuple, bool] = {}
        self.failed = 0
        self.by_kind: dict[str, int] = {}
        self.unexpected = 0
        self.messages: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    def record(self, geometry: str, op: str, key, ok: bool, why: str = "") -> None:
        """Record one repeat of operation ``op`` of ``geometry`` on ``key``."""
        known = self.outcomes.setdefault((geometry, op, key), True)
        if ok or not known:
            return
        self.outcomes[(geometry, op, key)] = False
        self.failed += 1
        kind = f"{geometry}.{op}"
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if (geometry, op) not in KNOWN_DEFECTS or why.startswith("raised"):
            self.unexpected += 1
            if len(self.messages) < 10:
                self.messages.append(f"{kind}[{key}]: {why}")


class Runner:
    """Times calls in CPU time of the process, with an optional tracer
    opening a root span around each.

    CPU time equals wall time when the machine is otherwise idle, and stays
    put when other processes or virtual machines take the processor away,
    which on a shared host moved wall time by up to 2x between runs.  Wall
    time is kept as well, to report how far the two drifted apart.
    """

    def __init__(self):
        self.tracer: Tracer | None = None
        self.cpu_ns = 0
        self.wall_ns = 0

    def call(self, fn, *args):
        w0 = perf_counter_ns()
        c0 = process_time_ns()
        try:
            if self.tracer is not None:
                out, _ = self.tracer.root(fn, *args)
            else:
                out = fn(*args)
        finally:
            ns = process_time_ns() - c0
            self.wall_ns += perf_counter_ns() - w0
            self.cpu_ns += ns
        return out, ns


class SpeedProbe:
    """A fixed mix of work that shares no code with logchol, timed before
    every block of work to track the machine's speed.

    On a shared host the speed of the processor drifts by up to 1.9x over
    seconds to minutes, moving every timing taken at the time together, but
    not every kind of work by the same factor: interpreter-bound work (small
    matrices, the CLI) and LAPACK-bound work (m = 128) drifted apart by up
    to 1.5x.  So the probe has two kinds, and a run uses the one that
    matches its calls (``Workload.calls_probe``): ``python``, numpy and
    scipy calls on 5x5 arrays, where dispatch and the interpreter dominate;
    or ``blas``, a Cholesky factor, a triangular solve and a product of
    128x128 matrices.  A probe also runs slower right after work of the
    other kind has filled the caches, so one run uses one kind throughout.

    Each end-to-end sample is scaled by the probe's nominal time over the
    median probe time across the span it was measured in, widened by
    ``PROBE_WINDOW_S`` on each side.  Set-ups take the run's median probe
    instead: the first probes follow the imports, with cold caches, and too
    few fall near each set-up.  The unscaled values are reported too.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        self.small = a @ a.T + np.eye(5)
        self.square = rng.standard_normal((128, 128))
        self.large = self.square @ self.square.T + 128 * np.eye(128)
        self.kind = kind
        self.work = self._python if kind == "python" else self._blas
        self.at: list[float] = []
        self.ns: list[int] = []
        self._scales: dict[tuple[float, float], float] = {}

    def _python(self) -> None:
        for _ in range(25):
            f = _cholesky(self.small)
            np.log(np.diagonal(f).copy())
            np.tril(f, -1) @ f.T
            _solve_triangular(f, self.small, lower=True)
            [i * i for i in range(40)]

    def _blas(self) -> None:
        for _ in range(2):
            f = _cholesky(self.large)
            _solve_triangular(f, self.square, lower=True)
            self.square @ self.square

    def measure(self) -> float:
        """Time the probe; returns the wall clock reading after it."""
        c0 = process_time_ns()
        self.work()
        self.ns.append(process_time_ns() - c0)
        self.at.append(perf_counter())
        return self.at[-1]

    def run_scale(self) -> float:
        """Factor from the median probe of the whole run."""
        return PROBE_NOMINAL_NS[self.kind] / statistics.median(self.ns)

    def scale(self, span: tuple[float, float]) -> float:
        """Factor that takes times measured during ``span`` to the nominal speed."""
        if span not in self._scales:
            at = np.asarray(self.at)
            near = (at >= span[0] - PROBE_WINDOW_S) & (at <= span[1] + PROBE_WINDOW_S)
            ns = np.asarray(self.ns, dtype=float)[near]
            self._scales[span] = PROBE_NOMINAL_NS[self.kind] / float(np.median(ns))
        return self._scales[span]


class Samples:
    """Measured values, each with the wall-clock span it was measured in."""

    def __init__(self):
        self.raw: list[float] = []
        self.span: list[tuple[float, float]] = []

    def add(self, value: float, span: tuple[float, float]) -> None:
        self.raw.append(value)
        self.span.append(span)

    def __len__(self) -> int:
        return len(self.raw)

    def values(self, probe: SpeedProbe | None, rate: bool = False) -> list[float]:
        """Raw values, or with a probe: times multiplied by the speed scale
        of their span, rates divided by it."""
        if probe is None:
            return self.raw
        scales = [probe.scale(s) for s in self.span]
        if rate:
            return [x / s for x, s in zip(self.raw, scales)]
        return [x * s for x, s in zip(self.raw, scales)]


class CallsItem:
    """One batch: ``batch[g]`` inputs through geometry ``g``'s op mix."""

    name = "calls"

    def __init__(self, pkg, work: Workload, inputs: Inputs, ledger: Ledger, runner: Runner,
                 probe: SpeedProbe):
        self.pkg = pkg
        self.work = work
        self.inputs = inputs
        self.ledger = ledger
        self.runner = runner
        self.probe = probe
        self.cursor = {g: 0 for g in GEOMETRIES}
        self.refs: dict[tuple[str, int], dict] = {}
        self.rates = {g: Samples() for g in GEOMETRIES}
        self.transport_ns = {g: Samples() for g in GEOMETRIES}
        # Each batch's 99th percentile transport time.  A median over
        # batches keeps a burst of slow calls in one batch, from a neighbour
        # on a shared host, from setting the run's tail.
        self.transport_tail = {g: Samples() for g in GEOMETRIES}
        self.op_ns = 0

    def run_slice(self) -> int:
        """Run one batch; returns the number of units (batches) done."""
        for g in GEOMETRIES:
            ops = self.pkg.get_metric(g)
            limit = self.work.le_pool if g == "log-euclidean" else self.work.pool
            calls = 0
            ns = 0
            transports = []
            start = self.probe.measure()
            for _ in range(self.work.batch[g]):
                i = self.cursor[g]
                self.cursor[g] = (i + 1) % limit
                c, t = self._op_mix(g, ops, i, transports)
                calls += c
                ns += t
            span = (start, perf_counter())
            self.op_ns += ns
            for t in transports:
                self.transport_ns[g].add(t, span)
            if transports:
                self.transport_tail[g].add(_quantile(transports, 0.99), span)
            if ns:
                self.rates[g].add(calls / (ns * 1e-9), span)
        return 1

    def cover(self) -> None:
        """Check, untimed, each operation the timed loop did not reach, so
        that every run checks the same operations whatever its length."""
        for g in GEOMETRIES:
            ops = self.pkg.get_metric(g)
            limit = self.work.le_pool if g == "log-euclidean" else self.work.pool
            for i in range(limit):
                if (g, i) not in self.refs:
                    self._op_mix(g, ops, i, [])

    def _timed(self, g: str, op: str, i: int, fn, *args):
        try:
            out, ns = self.runner.call(fn, *args)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed call
            self.ledger.record(g, op, i, False, f"raised {type(exc).__name__}: {exc}")
            return None, 0
        return out, ns

    def _op_mix(self, g: str, ops, i: int, transports: list[int]) -> tuple[int, int]:
        P, Q, W = self.inputs.wrapped[i]
        p, q, w = self.inputs.dense[i]
        ref = self.refs.get((g, i))
        if ref is None:
            ref = self.refs[(g, i)] = self._reference(g, ops, i)
        R = O.REFERENCES[g]
        ns_total = 0
        calls = 0
        if ops.transport is not None:
            out, ns = self._timed(g, "transport", i, ops.transport, P, Q, W)
            if out is not None:
                calls += 1
                ns_total += ns
                transports.append(ns)
                err = O.rel_err(_dense(out), ref["transport"])
                self.ledger.record(g, "transport", i, err <= O.RTOL, f"rel error {err:.3g}")
        out, ns = self._timed(g, "distance", i, ops.distance, P, Q)
        if out is not None:
            calls += 1
            ns_total += ns
            err = O.rel_err(out, ref["distance"])
            ok = err <= O.RTOL and ref["symmetric"]
            self.ledger.record(g, "distance", i, ok, f"rel error {err:.3g}, symmetric {ref['symmetric']}")
        tangent, ns = self._timed(g, "log", i, ops.log, P, Q)
        if tangent is None:
            self.ledger.record(g, "exp", i, False, "raised: log failed")
            return calls, ns_total
        calls += 1
        ns_total += ns
        t_dense = _dense(tangent)
        if R["log"] is not None:
            err = O.rel_err(t_dense, ref["log"])
            self.ledger.record(g, "log", i, err <= O.RTOL, f"rel error {err:.3g}")
        else:
            self.ledger.record(g, "log", i, bool(np.all(np.isfinite(t_dense))), "non-finite")
        back, ns = self._timed(g, "exp", i, ops.exp, P, tangent)
        if back is None:
            return calls, ns_total
        calls += 1
        ns_total += ns
        b_dense = _dense(back)
        err = O.rel_err(b_dense, q)
        why = f"round trip rel error {err:.3g}"
        ok = err <= O.RTOL
        if R["exp"] is not None:
            if "exp" not in ref:
                ref["exp"] = R["exp"](p, t_dense)
            e2 = O.rel_err(b_dense, ref["exp"])
            ok = ok and e2 <= O.RTOL
            why += f", exp rel error {e2:.3g}"
        self.ledger.record(g, "exp", i, ok, why)
        return calls, ns_total

    def _reference(self, g: str, ops, i: int) -> dict:
        P, Q, _ = self.inputs.wrapped[i]
        p, q, w = self.inputs.dense[i]
        R = O.REFERENCES[g]
        ref = {"distance": R["distance"](p, q)}
        if R["transport"] is not None:
            ref["transport"] = R["transport"](p, q, w)
        if R["log"] is not None:
            ref["log"] = R["log"](p, q)
        try:
            d1, d2 = ops.distance(P, Q), ops.distance(Q, P)
            ref["symmetric"] = abs(d1 - d2) <= O.RTOL * max(abs(d1), 1e-300)
        except Exception:  # noqa: BLE001 - the timed call reports the raise
            ref["symmetric"] = False
        return ref

    def fingerprint(self, h) -> None:
        """Hash the outputs of the op mix on the first input (untimed)."""
        P, Q, W = self.inputs.wrapped[0]
        for g in GEOMETRIES:
            ops = self.pkg.get_metric(g)
            outs = [ops.distance(P, Q)]
            if ops.transport is not None:
                outs.append(_dense(ops.transport(P, Q, W)))
            t = ops.log(P, Q)
            outs += [_dense(t), _dense(ops.exp(P, t))]
            for o in outs:
                h.update(np.asarray(o, dtype=float).tobytes())


class CliItem:
    """One round of a paper experiment through ``cli.main``."""

    def __init__(self, name: str, argvs: list[list[str]], check, pkg, ledger: Ledger,
                 runner: Runner, probe: SpeedProbe, outdir: Path):
        self.name = name
        self.probe = probe
        self.argvs = argvs
        self.check = check
        self.pkg = pkg
        self.ledger = ledger
        self.runner = runner
        self.outdir = outdir
        self.seconds = Samples()
        self.first_outputs: list[str] | None = None
        self.op_ns = 0

    def _main(self, argv):
        try:
            return self.pkg.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    def run_slice(self) -> int:
        total = 0
        outputs = []
        start = None
        for k, argv in enumerate(self.argvs):
            at = self.probe.measure()
            start = at if start is None else start
            out = self.outdir / f"{self.name}-{k}.json"
            glyph_path = Path(str(out) + ".glyphs.jsonl")
            for stale in (out, glyph_path):
                stale.unlink(missing_ok=True)
            try:
                rc, ns = self.runner.call(self._main, [*argv, "--out", str(out)])
            except Exception as exc:  # noqa: BLE001 - any raise is a failed run
                self.ledger.record(self.name, "run", k, False, f"raised {type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            total += ns
            if rc != 0:
                self.ledger.record(self.name, "run", k, False, f"exit code {rc}")
                outputs.append(None)
                continue
            text = None
            try:
                report = json.loads(out.read_text(encoding="utf-8"))
                glyphs = glyph_path.read_text(encoding="utf-8") if glyph_path.exists() else ""
                problem = self.check(argv, report, glyphs)
                report.pop("timings", None)
                # The scratch directory differs between runs; the rest of the
                # report must not.
                text = (json.dumps(report, sort_keys=True) + glyphs).replace(
                    str(self.outdir), "<scratch>"
                )
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                problem = f"unreadable report: {type(exc).__name__}: {exc}"
            if problem is None and self.first_outputs is not None:
                if text != self.first_outputs[k]:
                    problem = "report differs from the first run's"
            outputs.append(text)
            self.ledger.record(self.name, "run", k, problem is None, problem or "")
        self.op_ns += total
        self.seconds.add(total * 1e-9, (start, perf_counter()))
        if self.first_outputs is None:
            self.first_outputs = outputs
        return 1


# ---------------------------------------------------------------------------
# CLI checks
# ---------------------------------------------------------------------------


def _results(report: dict) -> dict:
    return {r["name"]: r for r in report["results"]}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class CliChecks:
    """Oracles for the paper experiments; references are built once per run."""

    def __init__(self, pkg, inputs: Inputs):
        self.pkg = pkg
        self.inputs = inputs
        self._interp: dict[str, np.ndarray] = {}
        self._mean = None
        self._gaps = None

    def interpolate(self, argv, report, glyphs) -> str | None:
        metric = argv[argv.index("--metric") + 1]
        if metric not in self._interp:
            p, q = (a.dense() for a in self.pkg.experiments.interpolation_endpoints())
            geo = O.REFERENCES[metric]["geodesic"]
            ts = np.linspace(0.0, 1.0, INTERPOLATE_STEPS)
            self._interp[metric] = np.array([np.exp(O.logdet(geo(p, q, t))) for t in ts])
        ref = self._interp[metric]
        res = _results(report)
        dets = np.array(res["det_sequence"]["values"], dtype=float)
        if dets.shape != ref.shape or O.rel_err(dets, ref) > 1e-8:
            return f"{metric}: det_sequence off by {O.rel_err(dets, ref):.3g}"
        lines = glyphs.splitlines()
        if len(lines) != INTERPOLATE_STEPS:
            return f"{metric}: {len(lines)} glyph records, expected {INTERPOLATE_STEPS}"
        gdet = np.array([json.loads(line)["determinant"] for line in lines])
        if O.rel_err(gdet, ref) > 1e-8:
            return f"{metric}: glyph determinants off by {O.rel_err(gdet, ref):.3g}"
        return None

    def mean(self, argv, report, glyphs) -> str | None:
        if self._mean is None:
            stack = self.inputs.fixture_stack
            ref = O.lc_mean(stack)
            logdets = np.array([O.logdet(a) for a in stack])
            self._mean = (ref, np.exp(O.logdet(ref)), float(np.exp(logdets.mean())))
        ref, det_ref, geo_ref = self._mean
        res = _results(report)
        mat = np.array(res["mean_matrix"]["values"], dtype=float).reshape(ref.shape)
        if O.rel_err(mat, ref) > O.RTOL:
            return f"mean_matrix off by {O.rel_err(mat, ref):.3g}"
        if _rel(res["det_mean"]["value"], det_ref) > 1e-8:
            return "det_mean disagrees with the reference mean"
        if _rel(res["det_geometric_mean"]["value"], geo_ref) > 1e-8:
            return "det_geometric_mean disagrees with the reference"
        gap = res["det_gap_rel"]
        if not gap["value"] <= gap["tolerance"]:
            return f"det_gap_rel {gap['value']} above {gap['tolerance']}"
        if res["det_within_bounds"]["value"] is not True:
            return "mean determinant outside the input range"
        return None

    def stability(self, argv, report, glyphs) -> str | None:
        kappa = float(argv[argv.index("--kappa") + 1])
        res = _results(report)
        if report["inputs"]["kappa"] != kappa:
            return "report does not echo its kappa"
        for g in GEOMETRIES:
            for k in ("roundtrip_rel_error", "mean_success", "mean_det_gap_rel"):
                if f"{g}.{k}" not in res:
                    return f"missing {g}.{k}"
        # The Log-Cholesky claims at this conditioning.  A determinant of a
        # matrix with condition kappa carries a relative error of about
        # m * kappa * eps, which bounds how well the gap can be measured.
        det_tol = max(1e-8, STABILITY_M * kappa * np.finfo(float).eps)
        rt = res["log-cholesky.roundtrip_rel_error"]["value"]
        if rt is None or not rt <= O.RTOL:
            return f"log-cholesky round trip error {rt}"
        if res["log-cholesky.mean_success"]["value"] is not True:
            return "log-cholesky mean failed"
        gap = res["log-cholesky.mean_det_gap_rel"]["value"]
        if gap is None or not gap <= det_tol:
            return f"log-cholesky mean determinant gap {gap} above {det_tol:.3g}"
        return None

    def mean_gap(self, argv, report, glyphs) -> str | None:
        if self._gaps is None:
            rng = np.random.default_rng(MEAN_GAP["seed"])
            gaps = []
            for _ in range(MEAN_GAP["trials"]):
                ps = np.stack([O.wishart_law(rng, MEAN_GAP["m"]) for _ in range(MEAN_GAP["n"])])
                lc, ai = O.lc_mean(ps), O.ai_karcher_mean(ps)
                gaps.append(np.linalg.norm(lc - ai) ** 2 / np.linalg.norm(ai) ** 2)
            self._gaps = np.array(gaps)
        res = _results(report)
        if res["failed_trials"]["value"] != 0:
            return f"{res['failed_trials']['value']:g} trials dropped"
        per = np.array(res["per_trial_gap"]["values"], dtype=float)
        if O.rel_err(per, self._gaps) > O.RTOL:
            return f"per_trial_gap off by {O.rel_err(per, self._gaps):.3g}"
        if _rel(res["mean_gap"]["value"], float(per.mean())) > 1e-12:
            return "mean_gap is not the mean of per_trial_gap"
        return None


def cli_items(pkg, inputs: Inputs, ledger: Ledger, runner: Runner, probe: SpeedProbe,
              outdir: Path) -> list[CliItem]:
    checks = CliChecks(pkg, inputs)
    return [
        CliItem(
            "cli-interpolate",
            [["interpolate", "--metric", g, "--steps", str(INTERPOLATE_STEPS)] for g in pkg.METRIC_NAMES],
            checks.interpolate, pkg, ledger, runner, probe, outdir,
        ),
        CliItem(
            "cli-mean",
            [["mean", "--input", str(inputs.fixture), "--metric", "log-cholesky"]],
            checks.mean, pkg, ledger, runner, probe, outdir,
        ),
        CliItem(
            "cli-stability",
            [["stability", "--kappa", k, "--m", str(STABILITY_M)] for k in STABILITY_KAPPAS],
            checks.stability, pkg, ledger, runner, probe, outdir,
        ),
        CliItem(
            "cli-mean-gap",
            [["mean-gap", *(x for k in ("n", "m", "trials") for x in (f"--{k}", str(MEAN_GAP[k])))]],
            checks.mean_gap, pkg, ledger, runner, probe, outdir,
        ),
    ]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _median(xs) -> float | None:
    return float(statistics.median(xs)) if xs else None


def _quantile(xs, q: float) -> float | None:
    if not xs:
        return None
    return float(np.quantile(np.asarray(xs, dtype=float), q, method="inverted_cdf"))


def schedule(items: dict, shares: dict, seconds: float, tracer: Tracer | None, runner: Runner):
    """Run slices, each time of the item furthest below its share of the
    wall time, until ``seconds`` have passed and every item ran.

    With a tracer, each item alternates traced and untraced slices, traced
    first; returns per item ``{traced: [units, op_ns]}``.
    """
    spent = {k: 0.0 for k in items}
    ran = {k: 0 for k in items}
    # A traced run needs an untraced calls slice to measure tracing overhead.
    need = {k: 2 if tracer is not None and k == "calls" else 1 for k in items}
    split = {k: {True: [0, 0], False: [0, 0]} for k in items}
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or any(ran[k] < need[k] for k in items):
        key = min(items, key=lambda k: (spent[k] / shares[k], k))
        item = items[key]
        traced = tracer is not None and ran[key] % 2 == 0
        # Each slice starts from a collected heap, so the collections its
        # calls pay for do not depend on the garbage of the slice before.
        gc.collect()
        before = item.op_ns
        t0 = perf_counter()
        if traced:
            tracer.install()
            runner.tracer = tracer
        try:
            units = item.run_slice()
        finally:
            if traced:
                runner.tracer = None
                tracer.uninstall()
                tracer.reduce()
        spent[key] += perf_counter() - t0
        ran[key] += 1
        split[key][traced][0] += units
        split[key][traced][1] += item.op_ns - before
    return split


def end_to_end(setups: Samples, calls: CallsItem, clis: dict, ledger: Ledger,
               probe: SpeedProbe | None) -> dict:
    setup = _median(setups.raw)
    m = {"setup_s": setup * probe.run_scale() if probe and setup else setup}
    for g in GEOMETRIES:
        m[f"{SHORT[g]}_ops_per_s"] = _median(calls.rates[g].values(probe, rate=True))
    m["lc_transport_p50_us"] = _q_us(calls.transport_ns["log-cholesky"].values(probe), 0.5)
    tail = _median(calls.transport_tail["log-cholesky"].values(probe))
    m["lc_transport_p99_us"] = None if tail is None else tail * 1e-3
    m["ai_transport_p50_us"] = _q_us(calls.transport_ns["affine-invariant"].values(probe), 0.5)
    m["cli_interpolate_s"] = _median(clis["cli-interpolate"].seconds.values(probe))
    m["cli_mean_lc_s"] = _median(clis["cli-mean"].seconds.values(probe))
    m["cli_stability_s"] = _median(clis["cli-stability"].seconds.values(probe))
    m["cli_mean_gap_s"] = _median(clis["cli-mean-gap"].seconds.values(probe))
    m["ops_failed_frac"] = ledger.failed / ledger.attempted if ledger.attempted else None
    return m


def _q_us(ns, q):
    v = _quantile(ns, q)
    return None if v is None else v * 1e-3


def per_layer(tracer: Tracer, split: dict) -> dict:
    secs = tracer.root_ns * 1e-9
    calls_by_layer, self_by_layer = tracer.layer_totals()

    def rate(x):
        return x / secs if secs > 0 else None

    def name_calls(name):
        return rate(tracer.calls.get(name, 0)) if tracer.has(name) else None

    def group(g, what):
        if not any(own_group(n) == g for n in tracer.names):
            return None
        if what == "self_us":
            return rate(tracer.self_ns.get("group:" + g, 0) * 1e-3)
        src = tracer.calls if what == "calls" else tracer.extra
        return rate(src.get("group:" + g, 0))

    def layer_self(layer):
        if layer in tracer.missing:
            return None
        return rate(self_by_layer.get(layer, 0) * 1e-3)

    m = {"tri.self_us": layer_self("tri")}
    for g in ("tri.wrap", "tri.from_dense", "tri.pack"):
        m[f"{g}.calls"] = group(g, "calls")
        m[f"{g}.self_us"] = group(g, "self_us")
    m["tri.pack.bytes"] = group("tri.pack", "bytes")
    m["python.gc_pause_us"] = rate(tracer.gc_pause_ns * 1e-3)
    m["python.gc_collections"] = rate(tracer.gc_collections)
    lapack_ns = self_by_layer.get("lapack", 0)
    m["lapack.self_us"] = rate(lapack_ns * 1e-3)
    m["lapack.share"] = lapack_ns / tracer.root_ns if tracer.root_ns else None
    for r in LAPACK_ROUTINES:
        name = f"lapack.{r}"
        m[f"{name}.calls"] = name_calls(name)
        m[f"{name}.self_us"] = rate(tracer.self_ns.get(name, 0) * 1e-3) if tracer.has(name) else None
    m["chol_map.self_us"] = layer_self("chol_map")
    for f in ("cholesky_factor", "diff_S_inv", "reconstruct"):
        m[f"chol_map.{f}.calls"] = name_calls(f"chol_map.{f}")
    for layer in ("chol_manifold", "spd_manifold"):
        m[f"{layer}.self_us"] = layer_self(layer)
        m[f"{layer}.calls"] = None if layer in tracer.missing else rate(calls_by_layer.get(layer, 0))
    m["baselines.self_us"] = layer_self("baselines")
    m["baselines.le_series.self_us"] = group("baselines.le_series", "self_us")
    m["baselines.ai.self_us"] = group("baselines.ai", "self_us")
    m["baselines.karcher.iters_per_mean"] = (
        tracer.karcher_logs / tracer.karcher_n if tracer.karcher_n else None
    )
    for layer in ("sampling", "experiments", "report", "cli"):
        m[f"{layer}.self_us"] = layer_self(layer)
    m["report.bytes"] = None if "report" in tracer.missing else rate(
        sum(v for k, v in tracer.extra.items() if k.startswith("report."))
    )
    m["trace.overhead_frac"] = overhead(split)
    return m


def overhead(split: dict) -> float | None:
    """Traced op time over the op time the same work takes untraced, less one."""
    traced = predicted = 0.0
    for parts in split.values():
        (ut, nt), (uu, nu) = parts[True], parts[False]
        if ut and uu and nu:
            traced += nt
            predicted += ut * nu / uu
    return traced / predicted - 1.0 if predicted else None


def run(src: Path, workload: str, seed: int, seconds: int, trace: bool, scratch: Path) -> tuple[dict, dict]:
    work = WORKLOADS[workload]
    outdir = scratch / f"perfbench-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        probe = SpeedProbe(work.calls_probe)
        setups = Samples()
        for _ in range(work.setups):
            start = probe.measure()
            pkg, inputs, secs = setup(src, work, seed, outdir)
            setups.add(secs, (start, perf_counter()))
        ledger = Ledger()
        runner = Runner()
        calls = CallsItem(pkg, work, inputs, ledger, runner, probe)
        clis = {c.name: c for c in cli_items(pkg, inputs, ledger, runner, probe, outdir)}
        items = {"calls": calls, **clis}
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.plan()
        split = schedule(items, work.shares, seconds, tracer, runner)
        probe.measure()  # closes the span of the last sample
        calls.cover()

        h = hashlib.sha256()
        calls.fingerprint(h)
        for c in clis.values():
            for text in c.first_outputs or []:
                h.update((text or "failed").encode())
        if trace:
            metrics = per_layer(tracer, split)
            units = PER_LAYER
        else:
            metrics = end_to_end(setups, calls, clis, ledger, probe)
            unscaled = end_to_end(setups, calls, clis, ledger, None)
            units = END_TO_END
        # Paper ratios, derived from the untimed-by-tracer transports only.
        lc_p50 = None if trace else _quantile(calls.transport_ns["log-cholesky"].raw, 0.5)
        derived = {}
        if lc_p50:
            for g in ("affine-invariant", "log-euclidean"):
                v = _quantile(calls.transport_ns[g].raw, 0.5)
                derived[f"{SHORT[g]}_lc_transport_p50_ratio"] = v / lc_p50 if v else None
        details = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "matrix_size": work.m,
            "derived": derived,
            "samples": {
                **{f"{SHORT[g]}_batches": len(calls.rates[g]) for g in GEOMETRIES},
                **{f"{SHORT[g]}_transports": len(calls.transport_ns[g]) for g in GEOMETRIES
                   if calls.transport_ns[g]},
                **{k: len(c.seconds) for k, c in clis.items()},
                "setups": len(setups),
            },
            "wall_over_cpu": runner.wall_ns / runner.cpu_ns if runner.cpu_ns else None,
            "speed": {
                "probe": probe.kind,
                "probe_median_ns": statistics.median(probe.ns),
                "probes": len(probe.ns),
                "nominal_ns": PROBE_NOMINAL_NS[probe.kind],
                "unscaled": None if trace else unscaled,
            },
            "failures": dict(sorted(ledger.by_kind.items())),
            "unexpected_failures": ledger.messages,
            "fingerprint": {"inputs": inputs.digest, "outputs": h.hexdigest()},
            "unmeasured": sorted(k for k, v in metrics.items() if v is None)
            + (tracer.missing if tracer else []),
        }
        result = {
            "correct": ledger.unexpected == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
        }
        return details, result
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
