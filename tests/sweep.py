"""Bitwise sweep: a digest of what every public operation returns on fixed draws.

Usage, from the root of a checkout::

    python tests/sweep.py                     # digests of this checkout
    python tests/sweep.py --compare <commit>  # and of <commit>, side by side
    python tests/sweep.py --oracle            # and the accuracy table (either mode)

The draws are fixed: 225 triples ``(P, Q, W)``, 45 at each m in
{1, 2, 3, 5, 8}, from ``numpy.random.default_rng(12345)``, with ``P`` and
``Q`` drawn as ``A A^T + 1e-3 I`` and ``W`` as ``G/2 + G^T/2`` (``A``, ``G``
standard normal: the laws of ``sampling.random_spd`` and ``random_sym``).
From each triple come the Cholesky factors ``L``, ``K`` of ``P``, ``Q`` and
the lower triangle ``X`` of ``W``.  Every operation of the five geometries
(through ``get_metric``), the Log-Cholesky operations outside the registry,
the ``chol_manifold`` operations and the ``chol_map`` wrappers runs on
every triple, and the CLI experiments run once each: ``interpolate`` and
``mean`` also on an ``--input`` fixture, written from the ``P`` of the 45
m = 3 triples (``interpolate`` reads the first two) into the sweep's
temporary directory and named by a path relative to it, so that the
reports' ``inputs.fixture`` reads the same on every run.  The ``reuse`` group
runs each operation that takes SPD points (every geometry's, its mean
included, the Log-Cholesky operations outside the registry and
``cholesky_factor``) on each triple with ``P`` and ``Q`` through
``SpdMatrix.from_dense``, which keeps their factors, twice, hashing the
second run: ``reuse.<op>`` must equal ``<op>``, since the kept factor is
the one each use, and each mean, would compute, and no operation may
change it.  The ``steps`` group runs every function that takes a step (the
two geodesics and the five interpolants) on one fixed m = 2 triple, with
each of a fixed list of odd and malformed steps (:data:`STEPS`).  The ``scales`` group runs every
distance and every mean, and ``dist_chol``, on a fixed list of factor pairs
whose distances approach and pass the float max (:data:`SCALES`).  The
``outside`` group types each input of a fixed list of outside data
(:data:`OUTSIDE`: accepted ones, and each kind the README lists as rejected)
through the four public constructors and both ``from_dense``, and hashes
the typed ``data``, the kept factor and their writeable flags, or the class
and text of the error; it also writes each input as a one-block fixture
(:func:`fixture_block`), and the accepted ones of several dimensions as one
fixture (:data:`MIXED`), and loads each through ``load_matrices``, hashing
the same for every point, or the error.  The ``blocked`` group runs every operation that
pulls a tangent back through ``chol_map._diff_S_inv`` (``diff_S_inv``,
``metric_spd``, ``geodesic_spd``, ``exp_spd`` and ``transport_spd``), and
``log_spd``, on draws of the same law at m in {65, 128}, from their own seed
(:data:`BLOCKED_SEED`): the only draws large enough for the pullback's block
recurrence, which splits above m = 64.  The
script prints one sha256 per (group, operation), over the exact bits of
every result, the class and text of every exception and every warning raised
(with memory addresses masked, so that a run is reproducible), and the bytes
of each CLI run's report as written, which holds no ``timings``; then the
failure classes, counted.

``--compare`` extracts ``git archive <commit> src`` into a temporary
directory, runs the same sweep on both trees, each in its own process, and
prints which digests differ.  Each tree's ``reuse`` digests are also held
to its ``<op>`` digests.  The exit code is 1 when any digest differs.  The
sweep is a tool, not a test: its draws are fixed, and a change that moves an
output on purpose says which digests moved and why.

``--oracle`` adds an accuracy table beside the digests: for each geometry
of :data:`ORACLES`, each of its distance, log and transport, and each
condition number ``kappa`` in {1e2, 1e6, 1e8, 1e10, 1e15}, the median and
max relative error (Frobenius, for the matrices) against the geometry's
extended-precision oracle in ``tests/oracles.py``, and the number of draws
on which the operation raised.  Its draws are fixed too, each geometry's
from its own seed: 50 triples per ``kappa`` at m = 5, ``P`` and ``Q`` from
``sampling.random_spd_with_condition`` and ``W`` from ``sampling.random_sym``.
A row added at the end of a geometry's kappas, or a geometry added with a
seed of its own, leaves the draws of every other cell as they were.  With
``--compare``, both trees' tables are printed; a table takes about four
seconds, most of it the Log-Euclidean oracle.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 12345
DIMS = (1, 2, 3, 5, 8)
PER_DIM = 45
TS = (-0.5, 0.0, 0.3, 1.0, 1.7)  # the interpolation grid
GEOMETRIES = ("euclidean", "cholesky", "log-euclidean", "affine-invariant", "log-cholesky")
# The blocked group's draws: above chol_map._BLOCK, so the pullback splits.
BLOCKED_SEED = 64
BLOCKED_DIMS = (65, 128)
BLOCKED_PER_DIM = 3
ORACLE_KAPPAS = (1e2, 1e6, 1e8, 1e10, 1e15)
ORACLE_M = 5
ORACLE_DRAWS = 50
# Each geometry's oracle in tests/oracles.py, its digits and its draws' seed.
ORACLES = {
    "affine-invariant": ("affine_mp", 40, 2019),
    "log-cholesky": ("log_cholesky_mp", 60, 2020),
    "log-euclidean": ("logeuclid_mp", 40, 2021),
}


def draw(rng: np.random.Generator, m: int) -> dict[str, np.ndarray]:
    """One triple and the arrays derived from it: ``p, q, w, l, k, x``."""
    a = rng.standard_normal((m, m))
    p = a @ a.T + 1e-3 * np.eye(m)
    a = rng.standard_normal((m, m))
    q = a @ a.T + 1e-3 * np.eye(m)
    g = rng.standard_normal((m, m)) / 2.0
    w = g + g.T
    return {"p": p, "q": q, "w": w, "l": np.linalg.cholesky(p),
            "k": np.linalg.cholesky(q), "x": np.tril(w)}


def draws():
    rng = np.random.default_rng(SEED)
    return [draw(rng, m) for m in DIMS for _ in range(PER_DIM)]


def typed(arrays: dict[str, np.ndarray]) -> dict:
    """The arrays through the public constructors: ``P, Q, W, L, K, X``."""
    from logchol import CholeskyFactor, LowerTriangular, SpdMatrix, SymMatrix

    a = arrays
    return {"P": SpdMatrix(a["p"]), "Q": SpdMatrix(a["q"]), "W": SymMatrix(a["w"]),
            "L": CholeskyFactor(a["l"]), "K": CholeskyFactor(a["k"]),
            "X": LowerTriangular(a["x"])}


def operations() -> dict[str, object]:
    """``{"group.op": fn(args)}`` for every public operation, ``args`` as from
    :func:`typed`."""
    import logchol as lc

    ops = {}
    for g in GEOMETRIES:
        reg = lc.get_metric(g)
        tangent = "X" if g == "cholesky" else "W"
        ops[f"{g}.distance"] = lambda a, r=reg: r.distance(a["P"], a["Q"])
        ops[f"{g}.interpolate"] = lambda a, r=reg: r.interpolate(a["P"], a["Q"], TS)
        ops[f"{g}.mean"] = lambda a, r=reg: r.mean([a["P"], a["Q"]])
        ops[f"{g}.exp"] = lambda a, r=reg, t=tangent: r.exp(a["P"], a[t])
        ops[f"{g}.log"] = lambda a, r=reg: r.log(a["P"], a["Q"])
        ops[f"{g}.exp-log"] = lambda a, r=reg: r.exp(a["P"], r.log(a["P"], a["Q"]))
        if reg.transport is not None:
            ops[f"{g}.transport"] = lambda a, r=reg: r.transport(a["P"], a["Q"], a["W"])
    ops.update({
        "spd_manifold.metric_spd": lambda a: lc.metric_spd(a["P"], a["W"], a["W"]),
        "spd_manifold.geodesic_spd": lambda a: lc.geodesic_spd(a["P"], a["W"], 0.7),
        "spd_manifold.group_op_spd": lambda a: lc.group_op_spd(a["P"], a["Q"]),
        "spd_manifold.group_inv_spd": lambda a: lc.group_inv_spd(a["P"]),
        "chol_map.cholesky_factor": lambda a: lc.cholesky_factor(a["P"]),
        "chol_map.reconstruct": lambda a: lc.reconstruct(a["L"]),
        "chol_map.diff_S": lambda a: lc.diff_S(a["L"], a["X"]),
        "chol_map.diff_S_inv": lambda a: lc.diff_S_inv(a["L"], a["W"]),
        "chol_manifold.metric_chol": lambda a: lc.metric_chol(a["L"], a["X"], a["X"]),
        "chol_manifold.geodesic_chol": lambda a: lc.geodesic_chol(a["L"], a["X"], 0.7),
        "chol_manifold.exp_chol": lambda a: lc.exp_chol(a["L"], a["X"]),
        "chol_manifold.log_chol": lambda a: lc.log_chol(a["L"], a["K"]),
        "chol_manifold.dist_chol": lambda a: lc.dist_chol(a["L"], a["K"]),
        "chol_manifold.group_op": lambda a: lc.group_op(a["L"], a["K"]),
        "chol_manifold.group_inv": lambda a: lc.group_inv(a["L"]),
        "chol_manifold.group_identity": lambda a: lc.group_identity(a["L"].dim),
        "chol_manifold.transport_chol": lambda a: lc.transport_chol(a["L"], a["K"], a["X"]),
        "chol_manifold.frechet_mean_chol": lambda a: lc.frechet_mean_chol([a["L"], a["K"]]),
    })
    return ops


# Odd and malformed steps, each made fresh: a generator is spent once read.
STEPS = {
    "int": lambda: 1,
    "bool": lambda: True,
    "float32": lambda: np.float32(0.7),
    "fraction": lambda: Fraction(1, 3),
    "0-d array": lambda: np.array(0.5),
    "huge": lambda: 1e308,
    "decimal": lambda: Decimal("0.5"),
    "str": lambda: "0.5",
    "complex": lambda: 1j,
    "none": lambda: None,
    "nan": lambda: float("nan"),
    "inf": lambda: float("inf"),
    "-inf": lambda: float("-inf"),
    "array": lambda: np.array([0.5, 2.0]),
    "list": lambda: [0.5, 2.0],
    "2-d array": lambda: np.array([[0.5, 2.0]]),
    "generator": lambda: (t for t in (0.5, 2.0)),
}


def reused(key: str) -> bool:
    """Whether the ``reuse`` group runs operation ``key``: it takes SPD points."""
    group = key.split(".")[0]
    return group in GEOMETRIES or group == "spd_manifold" or key == "chol_map.cholesky_factor"


def reuse_moved(digests: dict[str, str]) -> list[str]:
    """The operations whose runs on kept factors, ``reuse.<op>``, differ from
    their runs on constructor-built points, ``<op>``."""
    return [key for key in digests
            if key.startswith("reuse.") and digests[key] != digests[key[len("reuse."):]]]


def step_operations() -> dict[str, object]:
    """``{"steps.op": fn(args, step)}`` for every function that takes a step:
    each geodesic takes ``step`` as its ``t``, and each interpolant takes it
    as the one point of its grid (``.interpolate``) and as its grid
    (``.interpolate-grid``)."""
    import logchol as lc

    ops = {
        "steps.geodesic_chol": lambda a, s: lc.geodesic_chol(a["L"], a["X"], s),
        "steps.geodesic_spd": lambda a, s: lc.geodesic_spd(a["P"], a["W"], s),
    }
    for g in GEOMETRIES:
        reg = lc.get_metric(g)
        ops[f"steps.{g}.interpolate"] = lambda a, s, r=reg: r.interpolate(a["P"], a["Q"], [s])
        ops[f"steps.{g}.interpolate-grid"] = lambda a, s, r=reg: r.interpolate(a["P"], a["Q"], s)
    return ops


# Factor pairs L = [[a, 0], [b, d]] and K = [[a, 0], [-b, d]], each (a, b, d):
# from unit scale to distances whose sums of squares pass the float max; then
# a Euclidean distance past the float max, an L L^T that is not SPD in floats,
# one that overflows, and an affine-invariant whitening that overflows.
SCALES = (
    (1.0, 7.0, 1.0),
    (1.0, 7e100, 1e100),
    (1.0, 7e153, 1e153),
    (8e153, 7e153, 1e153),
    (1e100, 8e153, 3e153),
    (1e154, 7e153, 1e153),
    (1.0, 1e154, 1.0),
    (1.0, 7e154, 1e154),
    (1.0, 1.2e154, 5e153),
)


def scale_operations() -> dict[str, object]:
    """``{"scales.op": fn(l, k)}`` for every distance and every mean: each
    geometry's on ``L L^T`` and ``K K^T`` through ``SpdMatrix.from_dense``, and
    ``dist_chol`` on ``L`` and ``K``."""
    import logchol as lc

    def spd(a):
        return lc.SpdMatrix.from_dense(a @ a.T)

    ops = {f"scales.{g}.distance": lambda l, k, r=lc.get_metric(g): r.distance(spd(l), spd(k))
           for g in GEOMETRIES}
    ops.update({f"scales.{g}.mean": lambda l, k, r=lc.get_metric(g): r.mean([spd(l), spd(k)])
                for g in GEOMETRIES})
    ops["scales.dist_chol"] = lambda l, k: lc.dist_chol(lc.CholeskyFactor(l), lc.CholeskyFactor(k))
    return ops


# Outside data, each made fresh as a caller would pass it: what the public
# constructors and from_dense accept (exact and near symmetry, entries up to
# the float max, integers, nested lists, a lower triangle) and each input they
# reject (README, "Types").
_A = ((4.0, 2.0, 0.5), (2.0, 5.0, 1.0), (0.5, 1.0, 3.0))
_FMAX = np.finfo(float).max


def _asymmetric(rel: float) -> np.ndarray:
    """``_A`` with its entry (0, 1) moved by ``rel * max|_A|``."""
    a = np.array(_A)
    a[0, 1] += rel * 5.0
    return a


OUTSIDE = {
    "symmetric": lambda: np.array(_A),
    "nested lists": lambda: [list(row) for row in _A],
    "integers": lambda: [[2, 1], [1, 2]],
    "1x1": lambda: [[2.0]],
    "asymmetry 1e-12": lambda: _asymmetric(1e-12),
    "asymmetry just inside 1e-8": lambda: _asymmetric(0.99e-8),
    "asymmetry beyond 1e-8": lambda: _asymmetric(1.01e-8),
    "float max": lambda: np.array([[_FMAX, 1e308], [1e308, _FMAX]]),
    "float max, asymmetry 1e-12": lambda: np.array([[_FMAX, 1e308 * (1 + 1e-12)],
                                                    [1e308, _FMAX]]),
    "lower triangle": lambda: np.linalg.cholesky(np.array(_A)),
    "ragged": lambda: [[1.0, 2.0], [3.0]],
    "strings": lambda: [["1", "0"], ["0", "1"]],
    "string": lambda: "1",
    "object array with a string": lambda: np.array([[1.0, "1"], ["1", 1.0]], dtype=object),
    "complex": lambda: np.array([[1.0, 0.5j], [-0.5j, 1.0]]),
    "integer too large for a float": lambda: [[10**400, 0], [0, 1]],
    "nan": lambda: np.array([[1.0, np.nan], [np.nan, 1.0]]),
    "inf": lambda: np.diag([np.inf, 1.0]),
    "-inf": lambda: np.diag([1.0, -np.inf]),
    "non-square": lambda: np.ones((2, 3)),
    "1-d": lambda: np.ones(3),
    "empty": lambda: np.zeros((0, 0)),
    "empty list": lambda: [],
    "negative diagonal": lambda: np.diag([-1.0, 1.0]),
    "not positive definite": lambda: np.array([[1.0, 2.0], [2.0, 1.0]]),
}


# The accepted inputs of OUTSIDE, 3x3, 2x2 and 1x1, as one fixture.
MIXED = ("symmetric", "integers", "1x1", "asymmetry 1e-12", "float max", "nested lists",
         "asymmetry just inside 1e-8")


def fixture_block(data) -> str:
    """``data`` as a fixture holds it: its number of rows, then each row's
    entries by ``str``.  A row that is not a sequence is one entry, and a
    string is one row."""
    rows = [data] if isinstance(data, str) else list(data)
    lines = [" ".join(map(str, row)) if isinstance(row, (list, tuple, np.ndarray)) else str(row)
             for row in rows]
    return "\n".join([str(len(rows)), *lines]) + "\n"


def _kept(out) -> bytes:
    """The bits and writeable flag of the factor ``out`` keeps, if any."""
    kept = getattr(out, "_kept", None)
    return b"" if kept is None else (
        b" kept " + kept.tobytes() + f" writeable {kept.flags.writeable}".encode())


def outside_operations() -> dict[str, object]:
    """``{"outside.op": fn(data)}`` for the four public constructors and both
    ``from_dense``: each returns the typed matrix, whether its ``data`` is
    writeable and shares memory with ``data``, and the bits and writeable
    flag of the factor it keeps, if any."""
    from logchol import CholeskyFactor, LowerTriangular, SpdMatrix, SymMatrix

    def typed_by(make):
        def op(data):
            out = make(data)
            shared = isinstance(data, np.ndarray) and np.shares_memory(out.data, data)
            return [out, f" writeable {out.data.flags.writeable} shared {shared}".encode() + _kept(out)]
        return op

    makers = {"SymMatrix.from_dense": SymMatrix.from_dense,
              "SpdMatrix.from_dense": SpdMatrix.from_dense,
              **{cls.__name__: cls for cls in (SymMatrix, SpdMatrix, LowerTriangular,
                                               CholeskyFactor)}}
    return {f"outside.{name}": typed_by(make) for name, make in makers.items()}


def fixture_operations() -> dict[str, object]:
    """``{"outside.load_matrices": fn(text)}``: the points ``load_matrices``
    reads from a fixture holding ``text``, each with whether its ``data`` is
    writeable, and the bits and writeable flag of the factor it keeps."""
    from logchol.tri import load_matrices

    def load(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fixture.txt"
            path.write_text(text, encoding="utf-8")
            return [x for P in load_matrices(path)
                    for x in (P, f" writeable {P.data.flags.writeable}".encode() + _kept(P))]

    return {"outside.load_matrices": load}


def blocked_operations() -> dict[str, object]:
    """``{"blocked.op": fn(args)}`` for the operations that pull a tangent back,
    and ``log_spd``, ``args`` as from :func:`typed`."""
    import logchol as lc

    return {
        "blocked.diff_S_inv": lambda a: lc.diff_S_inv(a["L"], a["W"]),
        "blocked.metric_spd": lambda a: lc.metric_spd(a["P"], a["W"], a["W"]),
        "blocked.geodesic_spd": lambda a: lc.geodesic_spd(a["P"], a["W"], 0.7),
        "blocked.exp_spd": lambda a: lc.exp_spd(a["P"], a["W"]),
        "blocked.log_spd": lambda a: lc.log_spd(a["P"], a["Q"]),
        "blocked.transport_spd": lambda a: lc.transport_spd(a["P"], a["Q"], a["W"]),
    }


def results(out) -> list:
    """The typed matrices in an operation's output: itself, or a list's members."""
    return [r for r in (out if isinstance(out, list) else [out]) if hasattr(r, "data")]


def _bits(out) -> bytes:
    if isinstance(out, bytes):
        return out
    if isinstance(out, list):
        return b"".join(_bits(r) for r in out)
    if hasattr(out, "data"):
        return type(out).__name__.encode() + np.ascontiguousarray(out.data, float).tobytes()
    return np.float64(out).tobytes()


def _masked(message) -> str:
    """A message with each memory address (``0x...``) masked: the repr of an
    object such as a generator carries one, and it differs run to run."""
    return re.sub(r"0x[0-9a-fA-F]+", "0x?", str(message))


def outcome(fn) -> tuple[bytes, list[str]]:
    """What ``fn()`` returned or raised, as bytes, and the failures seen."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = b"ok " + _bits(fn())
            seen = []
        except Exception as exc:  # noqa: BLE001 - every raise is an outcome
            got = f"raised {type(exc).__name__}: {_masked(exc)}".encode()
            seen = [f"raised {type(exc).__name__}"]
    notes = sorted({f"warned {w.category.__name__}: {_masked(w.message)}" for w in caught})
    seen += sorted({f"warned {w.category.__name__}" for w in caught})
    return got + "".join(notes).encode(), seen


CLI_RUNS = {
    **{f"cli.interpolate.{g}": ["interpolate", "--metric", g] for g in GEOMETRIES},
    **{f"cli.mean.{g}": ["mean", "--metric", g, "--n", "10", "--m", "3"] for g in GEOMETRIES},
    "cli.stability.1e10": ["stability", "--kappa", "1e10", "--m", "3"],
    "cli.stability.1e15": ["stability", "--kappa", "1e15", "--m", "3"],
    "cli.mean-gap": ["mean-gap", "--n", "5", "--m", "3", "--trials", "5"],
    "cli.mean-gap.m1": ["mean-gap", "--n", "3", "--m", "1", "--trials", "4"],
    "cli.mean-gap.m4": ["mean-gap", "--n", "6", "--m", "4", "--trials", "7"],
    "cli.interpolate.fixture": ["interpolate", "--input", "pair.txt"],
    "cli.mean.fixture": ["mean", "--input", "sample.txt"],
}


def _cli(argv: list[str], out: Path) -> bytes:
    """Exit code, report bytes as written and glyph lines of one CLI run.  No
    run of :data:`CLI_RUNS` times anything: a report with ``timings`` stops
    the sweep, since its bytes would differ between runs."""
    from logchol.cli import main

    for f in out.parent.glob(out.name + "*"):
        f.unlink()
    code = main([*argv, "--out", str(out)])
    body = f"exit {code}\n".encode()
    if out.exists():
        report = out.read_bytes()
        if json.loads(report)["timings"] != {}:
            raise SystemExit(f"sweep: {argv} reports timings; a digest cannot hold them")
        body += report
    glyphs = Path(f"{out}.glyphs.jsonl")
    if glyphs.exists():
        body += glyphs.read_bytes()
    return body


def sweep() -> tuple[dict[str, str], dict[str, dict[str, int]]]:
    """``({key: sha256}, {key: {failure: count}})`` of this interpreter's ``logchol``."""
    from support import dump_matrices

    from logchol import SpdMatrix

    ops = operations()
    hashes = {"inputs": hashlib.sha256()}
    hashes.update({key: hashlib.sha256() for key in ops})
    again = {f"reuse.{key}": fn for key, fn in ops.items() if reused(key)}
    hashes.update({key: hashlib.sha256() for key in again})
    failures = {key: Counter() for key in ops}
    drawn = draws()
    for arrays in drawn:
        for a in arrays.values():
            hashes["inputs"].update(a.tobytes())
        args = typed(arrays)
        for key, fn in ops.items():
            got, seen = outcome(lambda: fn(args))
            hashes[key].update(got)
            failures[key].update(seen)
        kept = dict(args, P=SpdMatrix.from_dense(arrays["p"]),
                    Q=SpdMatrix.from_dense(arrays["q"]))
        for fn in again.values():
            outcome(lambda: fn(kept))
        for key, fn in again.items():
            hashes[key].update(outcome(lambda: fn(kept))[0])
    args = typed(draw(np.random.default_rng(SEED), 2))
    pairs = [(np.array([[a, 0.0], [b, d]]), np.array([[a, 0.0], [-b, d]])) for a, b, d in SCALES]
    rng = np.random.default_rng(BLOCKED_SEED)
    large = [typed(draw(rng, m)) for m in BLOCKED_DIMS for _ in range(BLOCKED_PER_DIM)]
    for ops, cases in ((step_operations(), [lambda m=m: (args, m()) for m in STEPS.values()]),
                       (scale_operations(), [lambda p=p: p for p in pairs]),
                       (outside_operations(), [lambda m=m: (m(),) for m in OUTSIDE.values()]),
                       (fixture_operations(),
                        [lambda m=m: (fixture_block(m()),) for m in OUTSIDE.values()]
                        + [lambda: ("\n".join(fixture_block(OUTSIDE[k]()) for k in MIXED),)]),
                       (blocked_operations(), [lambda a=a: (a,) for a in large])):
        for key, fn in ops.items():
            hashes[key], failures[key] = hashlib.sha256(), Counter()
            for case in cases:
                got, seen = outcome(lambda: fn(*case()))
                hashes[key].update(got)
                failures[key].update(seen)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            sample = [a["p"] for a in drawn if len(a["p"]) == 3]
            dump_matrices(sample[:2], "pair.txt")
            dump_matrices(sample, "sample.txt")
            for key, argv in CLI_RUNS.items():
                got, seen = outcome(lambda: _cli(argv, Path("report.json")))
                hashes[key] = hashlib.sha256(got)
                failures[key] = Counter(seen)
        finally:
            os.chdir(cwd)
    return ({k: h.hexdigest() for k, h in hashes.items()},
            {k: dict(sorted(c.items())) for k, c in failures.items() if c})


def accuracy() -> dict[str, list]:
    """``{"geometry op kappa": [median, max, failed]}`` of each geometry's
    distance, log and transport against its oracle on the fixed oracle draws;
    the relative errors are of the draws on which the operation returned."""
    import logchol as lc
    from logchol.sampling import random_spd_with_condition, random_sym
    import oracles

    table = {}
    for g, (oracle, dps, seed) in ORACLES.items():
        reg = lc.get_metric(g)
        reference = getattr(oracles, oracle)
        rng = np.random.default_rng(seed)
        for kappa in ORACLE_KAPPAS:
            errors = {"distance": [], "log": [], "transport": []}
            failed = Counter()
            for _ in range(ORACLE_DRAWS):
                P, Q = (random_spd_with_condition(rng, ORACLE_M, kappa) for _ in range(2))
                W = random_sym(rng, ORACLE_M)
                ref = dict(zip(errors, reference(P.data, Q.data, W.data, dps=dps)))
                ops = {"distance": lambda: reg.distance(P, Q), "log": lambda: reg.log(P, Q).data,
                       "transport": lambda: reg.transport(P, Q, W).data}
                for op, fn in ops.items():
                    try:
                        got = fn()
                    except lc.LogCholError:
                        failed[op] += 1
                        continue
                    errors[op].append(np.linalg.norm(got - ref[op]) / np.linalg.norm(ref[op]))
            for op, e in errors.items():
                stats = [float(np.median(e)), float(np.max(e))] if e else [None, None]
                table[f"{g} {op} {kappa:.0e}"] = [*stats, failed[op]]
    return table


def _print_accuracy(table: dict[str, list], label: str) -> None:
    sources = "; ".join(f"{g}: oracles.{o} at {dps} digits, seed {seed}"
                        for g, (o, dps, seed) in ORACLES.items())
    print(f"accuracy of {label} (m = {ORACLE_M}, {ORACLE_DRAWS} draws per kappa; {sources}):")
    print(f"  {'geometry':<17} {'op':<10} {'kappa':<6} {'median':>9} {'max':>9}  failed")
    for key, (median, top, failed) in table.items():
        g, op, kappa = key.split()
        cells = ("-" if x is None else f"{x:.2e}" for x in (median, top))
        print(f"  {g:<17} {op:<10} {kappa:<6} {next(cells):>9} {next(cells):>9}  {failed}")


def _in_process(src: Path, oracle: bool) -> dict:
    """The sweep of the package under ``src``, run in a fresh interpreter."""
    argv = [sys.executable, __file__, "--src", str(src), "--json"] + ["--oracle"] * oracle
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _print_reuse(digests: dict[str, str], label: str) -> int:
    moved = reuse_moved(digests)
    total = sum(key.startswith("reuse.") for key in digests)
    print(f"{len(moved)} of {total} reuse digests of {label} differ from their operations'"
          + "".join(f"\n  DIFFER  {key}" for key in moved))
    return len(moved)


def _print(digests: dict[str, str], failures: dict) -> None:
    for key, digest in digests.items():
        print(f"{digest}  {key}")
    _print_reuse(digests, "this checkout")
    print("failures:")
    for key, counts in failures.items():
        print(f"  {key}: " + ", ".join(f"{n} {what}" for what, n in counts.items()))


def compare(commit: str, oracle: bool = False) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        other = _in_process(Path(tmp) / "src", oracle)
    here = _in_process(ROOT / "src", oracle)
    moved = 0
    for key in sorted(set(here["digests"]) | set(other["digests"])):
        a, b = here["digests"].get(key), other["digests"].get(key)
        moved += a != b
        print(f"{'equal ' if a == b else 'DIFFER'}  {key}  {a}  {commit}: {b}")
    for key in sorted(set(here["failures"]) | set(other["failures"])):
        a, b = here["failures"].get(key), other["failures"].get(key)
        if a != b:
            print(f"failures differ  {key}: {a}  {commit}: {b}")
    print(f"{moved} of {len(here['digests'])} digests differ from {commit}")
    moved += _print_reuse(here["digests"], "this checkout")
    moved += _print_reuse(other["digests"], commit)
    if oracle:
        _print_accuracy(here["accuracy"], "this checkout")
        _print_accuracy(other["accuracy"], commit)
    return 1 if moved else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--compare", metavar="COMMIT", help="also sweep COMMIT and compare")
    p.add_argument("--src", default=str(ROOT / "src"), help="the directory to import logchol from")
    p.add_argument("--json", action="store_true", help="print one JSON object")
    p.add_argument("--oracle", action="store_true", help="also print the accuracy table")
    args = p.parse_args(argv)
    if args.compare:
        return compare(args.compare, args.oracle)
    sys.path.insert(0, args.src)
    digests, failures = sweep()
    out = {"digests": digests, "failures": failures}
    if args.oracle:
        out["accuracy"] = accuracy()
    if args.json:
        print(json.dumps(out))
        return 0
    _print(digests, failures)
    if args.oracle:
        _print_accuracy(out["accuracy"], "this checkout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
