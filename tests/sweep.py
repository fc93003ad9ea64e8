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
every triple, and the CLI experiments run once each.  The ``steps`` group
runs every function that takes a step (the two geodesics and the five
interpolants) on one fixed m = 2 triple, with each of a fixed list of odd
and malformed steps (:data:`STEPS`).  The ``scales`` group runs every
distance, and ``dist_chol``, on a fixed list of factor pairs whose
distances approach and pass the float max (:data:`SCALES`).  The script
prints one
sha256 per (group, operation), over the exact bits of every result, the
class and text of every exception and every warning raised (with memory
addresses masked, so that a run is reproducible), and the report
of each CLI run without its ``timings``; then the failure classes, counted.

``--compare`` extracts ``git archive <commit> src`` into a temporary
directory, runs the same sweep on both trees, each in its own process, and
prints which digests differ.  The exit code is 1 when any does.  The sweep
is a tool, not a test: its draws are fixed, and a change that moves an
output on purpose says which digests moved and why.

``--oracle`` adds an accuracy table beside the digests: for each of the
affine-invariant distance, log and transport and each condition number
``kappa`` in {1e2, 1e6, 1e8}, the median and max relative error (Frobenius,
for the matrices) against ``tests/oracles.affine_mp`` at 40 digits, and the
number of draws on which the operation raised.  Its draws are fixed too, with
their own seed: 50 triples per ``kappa`` at m = 5, ``P`` and ``Q`` from
``sampling.random_spd_with_condition`` and ``W`` from ``sampling.random_sym``.
With ``--compare``, both trees' tables are printed; a table takes a few
seconds.
"""
from __future__ import annotations

import argparse
import hashlib
import json
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
ORACLE_SEED = 2019
ORACLE_KAPPAS = (1e2, 1e6, 1e8)
ORACLE_M = 5
ORACLE_DRAWS = 50
ORACLE_DPS = 40


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
    """``{"scales.op": fn(l, k)}`` for every distance: each geometry's on
    ``L L^T`` and ``K K^T`` through ``SpdMatrix.from_dense``, and ``dist_chol``
    on ``L`` and ``K``."""
    import logchol as lc

    def spd(a):
        return lc.SpdMatrix.from_dense(a @ a.T)

    ops = {f"scales.{g}.distance": lambda l, k, r=lc.get_metric(g): r.distance(spd(l), spd(k))
           for g in GEOMETRIES}
    ops["scales.dist_chol"] = lambda l, k: lc.dist_chol(lc.CholeskyFactor(l), lc.CholeskyFactor(k))
    return ops


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
}


def _cli(argv: list[str], out: Path) -> bytes:
    """Exit code, report without ``timings`` and glyph lines of one CLI run."""
    from logchol.cli import main

    for f in out.parent.glob(out.name + "*"):
        f.unlink()
    code = main([*argv, "--out", str(out)])
    body = f"exit {code}\n".encode()
    if out.exists():
        report = json.loads(out.read_text())
        report.pop("timings", None)
        body += json.dumps(report, sort_keys=True).encode()
    glyphs = Path(f"{out}.glyphs.jsonl")
    if glyphs.exists():
        body += glyphs.read_bytes()
    return body


def sweep() -> tuple[dict[str, str], dict[str, dict[str, int]]]:
    """``({key: sha256}, {key: {failure: count}})`` of this interpreter's ``logchol``."""
    ops = operations()
    hashes = {"inputs": hashlib.sha256()}
    hashes.update({key: hashlib.sha256() for key in ops})
    failures = {key: Counter() for key in ops}
    for arrays in draws():
        for a in arrays.values():
            hashes["inputs"].update(a.tobytes())
        args = typed(arrays)
        for key, fn in ops.items():
            got, seen = outcome(lambda: fn(args))
            hashes[key].update(got)
            failures[key].update(seen)
    args = typed(draw(np.random.default_rng(SEED), 2))
    pairs = [(np.array([[a, 0.0], [b, d]]), np.array([[a, 0.0], [-b, d]])) for a, b, d in SCALES]
    for ops, cases in ((step_operations(), [lambda m=m: (args, m()) for m in STEPS.values()]),
                       (scale_operations(), [lambda p=p: p for p in pairs])):
        for key, fn in ops.items():
            hashes[key], failures[key] = hashlib.sha256(), Counter()
            for case in cases:
                got, seen = outcome(lambda: fn(*case()))
                hashes[key].update(got)
                failures[key].update(seen)
    with tempfile.TemporaryDirectory() as tmp:
        for key, argv in CLI_RUNS.items():
            got, seen = outcome(lambda: _cli(argv, Path(tmp) / "report.json"))
            hashes[key] = hashlib.sha256(got)
            failures[key] = Counter(seen)
    return ({k: h.hexdigest() for k, h in hashes.items()},
            {k: dict(sorted(c.items())) for k, c in failures.items() if c})


def accuracy() -> dict[str, list]:
    """``{"op kappa": [median, max, failed]}`` of the affine-invariant distance,
    log and transport against ``oracles.affine_mp`` on the fixed oracle draws;
    the relative errors are of the draws on which the operation returned."""
    import logchol as lc
    from logchol.sampling import random_spd_with_condition, random_sym
    from oracles import affine_mp

    ai = lc.get_metric("affine-invariant")
    rng = np.random.default_rng(ORACLE_SEED)
    table = {}
    for kappa in ORACLE_KAPPAS:
        errors = {"distance": [], "log": [], "transport": []}
        failed = Counter()
        for _ in range(ORACLE_DRAWS):
            P, Q = (random_spd_with_condition(rng, ORACLE_M, kappa) for _ in range(2))
            W = random_sym(rng, ORACLE_M)
            ref = dict(zip(errors, affine_mp(P.data, Q.data, W.data, dps=ORACLE_DPS)))
            ops = {"distance": lambda: ai.distance(P, Q), "log": lambda: ai.log(P, Q).data,
                   "transport": lambda: ai.transport(P, Q, W).data}
            for op, fn in ops.items():
                try:
                    got = fn()
                except lc.LogCholError:
                    failed[op] += 1
                    continue
                errors[op].append(np.linalg.norm(got - ref[op]) / np.linalg.norm(ref[op]))
        for op, e in errors.items():
            stats = [float(np.median(e)), float(np.max(e))] if e else [None, None]
            table[f"{op} {kappa:.0e}"] = [*stats, failed[op]]
    return table


def _print_accuracy(table: dict[str, list], label: str) -> None:
    print(f"accuracy of {label} against oracles.affine_mp at {ORACLE_DPS} digits "
          f"(m = {ORACLE_M}, {ORACLE_DRAWS} draws per kappa, seed {ORACLE_SEED}):")
    print(f"  {'op':<10} {'kappa':<6} {'median':>9} {'max':>9}  failed")
    for key, (median, top, failed) in table.items():
        op, kappa = key.split()
        cells = ("-" if x is None else f"{x:.2e}" for x in (median, top))
        print(f"  {op:<10} {kappa:<6} {next(cells):>9} {next(cells):>9}  {failed}")


def _in_process(src: Path, oracle: bool) -> dict:
    """The sweep of the package under ``src``, run in a fresh interpreter."""
    argv = [sys.executable, __file__, "--src", str(src), "--json"] + ["--oracle"] * oracle
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _print(digests: dict[str, str], failures: dict) -> None:
    for key, digest in digests.items():
        print(f"{digest}  {key}")
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
