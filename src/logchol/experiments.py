"""Experiment drivers behind the CLI: interpolation/determinant studies,
mean determinant identities, transport timing, ill-conditioning stability,
and the mean-gap statistic.

Each driver is a pure function from ``(config, seed)`` to an
:class:`~logchol.report.ExperimentReport`; wall-clock measurements are the
only nondeterministic outputs and live in the report's ``timings`` field.
Each experiment checks its own parameters, raising :class:`ParameterError`.
``run_interpolate`` and ``run_mean`` also read their own ``--input``
fixture, through :func:`~logchol.tri.load_matrices`, which checks and
factors a fixture of one dimension as one stack, and check how many matrices
it holds: exactly two for ``run_interpolate``, at least one for
``run_mean``.  The report's ``inputs`` name what the experiment read or drew.
``run_mean``'s random members are one drawn stack, typed by
``SpdMatrix._from_stack``, so that each keeps its factor for the mean.
``run_mean_gap`` works on arrays from draw to gap: it draws its trials as
one ``(trials, n, m, m)`` stack, checks and factors it as one stack, takes
every trial's Log-Cholesky mean in one ``_frechet_mean`` of the factor
stack and their affine-invariant means in one stacked Karcher iteration,
and types only the means; its memory grows with ``trials n m^2``.
"""
from __future__ import annotations

import math
import time
from collections.abc import Sequence

import numpy as np

from . import baselines as bl
from .chol_manifold import _frechet_mean
from .chol_map import _spd_point
from .report import ExperimentReport, GlyphRecord, ResultRecord
from .sampling import (
    random_orthogonal,
    random_spd,
    random_spd_stack,
    random_spd_with_condition,
    random_sym,
    random_wishart_stack,
)
from .tri import (
    DomainError,
    LogCholError,
    NotSpdError,
    SpdMatrix,
    SymMatrix,
    _eigh,
    _factors,
    _norm,
    _stack,
    load_matrices,
)


class ParameterError(DomainError):
    """An experiment parameter is out of range: a usage error, not a
    numerical failure (the CLI exits 2 on it)."""


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator of a seeded experiment; a negative seed is a usage error."""
    _at_least(0, seed=seed)
    return np.random.default_rng(seed)


def _at_least(low: int, **params: int) -> None:
    """``ParameterError`` naming the first of ``params`` below ``low``."""
    for name, value in params.items():
        if value < low:
            raise ParameterError(f"{name} must be >= {low}, got {value}")


# Interpolation-study endpoints: the reference determinant pair (5.40 and
# 6.46 at display precision; the trailing digits keep every geometric
# interpolant within 0.005 of the reference sequence).  The endpoint
# matrices themselves are an arbitrary seeded fixture; only their
# determinants are comparable across machines.
FIG_DETS = (5.4032, 6.4572)
FIG_SEED = 20190417


def interpolation_endpoints() -> tuple[SpdMatrix, SpdMatrix]:
    """Canonical 3x3 endpoint fixture with determinants 5.40 and 6.46."""
    rng = np.random.default_rng(FIG_SEED)
    return (
        _seeded_spd_with_det(rng, 3, FIG_DETS[0]),
        _seeded_spd_with_det(rng, 3, FIG_DETS[1]),
    )


def _seeded_spd_with_det(rng: np.random.Generator, dim: int, det: float) -> SpdMatrix:
    q = random_orthogonal(rng, dim)
    d = rng.uniform(0.5, 2.0, dim)
    d *= (det / np.prod(d)) ** (1.0 / dim)
    return SpdMatrix.from_dense((q * d) @ q.T)


def run_interpolate(
    metric: str, steps: int, fixture: str | None = None
) -> tuple[ExperimentReport, list[GlyphRecord]]:
    """Geodesic interpolation study between the two matrices of ``fixture``,
    or :func:`interpolation_endpoints` without one: (log-)determinant
    sequences, read from glyph eigenvalues, plus glyph stream."""
    if fixture:
        loaded = load_matrices(fixture)
        if len(loaded) != 2:
            raise ParameterError("--input fixture must contain exactly two matrices")
        p, q = loaded
        inputs = {"fixture": fixture, "seed": None}
    else:
        p, q = interpolation_endpoints()
        inputs = {"fixture": "builtin", "seed": FIG_SEED}
    _at_least(2, steps=steps)
    ops = bl.get_metric(metric)
    ts = np.linspace(0.0, 1.0, steps)
    mats = ops.interpolate(p, q, ts)
    glyphs = [GlyphRecord.from_spd_dense(m.data, 0, i) for i, m in enumerate(mats)]
    ends = [GlyphRecord.from_spd_dense(a.data, 0, 0) for a in (p, q)]
    dets = [g.determinant for g in glyphs]
    report = ExperimentReport(
        experiment="interpolate",
        metrics=[metric],
        inputs=inputs,
        environment={"dim": p.dim, "steps": steps},
        results=[
            ResultRecord(name="t_grid", values=[float(t) for t in ts], units="t"),
            ResultRecord(
                name="det_sequence", values=dets, units="determinant", tolerance=5e-3
            ),
            ResultRecord(
                name="endpoint_dets", values=[g.determinant for g in ends], units="determinant"
            ),
            ResultRecord(
                name="log_det_sequence",
                values=[g.log_determinant for g in glyphs],
                units="log determinant",
            ),
            ResultRecord(
                name="endpoint_log_dets",
                values=[g.log_determinant for g in ends],
                units="log determinant",
            ),
        ],
    )
    return report, glyphs


def run_mean(metric: str, fixture: str | None, n: int, m: int, seed: int) -> ExperimentReport:
    """Mean study on the matrices of ``fixture``, or without one on ``n``
    seeded random SPD matrices of size ``m``: mean matrix, its determinant,
    and the determinant-law gap."""
    if fixture:
        mats = load_matrices(fixture)
        if not mats:
            raise ParameterError("--input fixture contains no matrices")
        inputs = {"fixture": fixture}
    else:
        _at_least(1, n=n, m=m)
        mats = SpdMatrix._from_stack(random_spd_stack(seeded_rng(seed), (n,), m))
        inputs = {"seed": seed, "spd_law": "A A^T + 1e-3 I, A standard normal"}
    ops = bl.get_metric(metric)
    mean = ops.mean(mats)
    det_mean, geo, gap, within = _det_law(mean, mats)
    return ExperimentReport(
        experiment="mean",
        metrics=[metric],
        inputs=inputs,
        environment={"dim": mats[0].dim, "count": len(mats)},
        results=[
            ResultRecord(
                name="mean_matrix",
                values=[float(x) for x in mean.data.ravel()],
                units="matrix entries, row-major",
            ),
            ResultRecord(name="det_mean", value=det_mean, units="determinant"),
            ResultRecord(
                name="det_geometric_mean", value=geo, units="determinant"
            ),
            ResultRecord(
                name="det_gap_rel", value=gap, units="relative", tolerance=1e-10
            ),
            ResultRecord(
                name="det_within_bounds",
                value=within,
                units="flag",
                tolerance=1e-12,
            ),
        ],
    )


def _det_law(mean: SymMatrix, mats: Sequence[SpdMatrix]) -> tuple[float, float, float, bool]:
    """The determinant law ``det(mean) = geometric mean of det(P_i)``, in
    log-determinants so that none under- or overflows: the mean's
    determinant, the members' geometric mean, their relative gap, and
    whether the mean's lies in the members' range (relative slack 1e-12).
    Raises ``NotSpdError`` on a determinant that is not positive."""
    signs, lds = np.linalg.slogdet(_stack(P.data for P in mats))
    sign, ld_mean = np.linalg.slogdet(mean.data)
    if sign != 1.0 or (signs != 1.0).any():
        raise NotSpdError("determinant law undefined: a determinant is not positive")
    ld_geo = lds.mean()
    within = lds.min() + math.log1p(-1e-12) <= ld_mean <= lds.max() + math.log1p(1e-12)
    with np.errstate(over="ignore"):  # a value beyond the float range reads inf
        det_mean, geo = np.exp([ld_mean, ld_geo]).tolist()
        gap = float(abs(np.expm1(ld_mean - ld_geo)))
    return det_mean, geo, gap, bool(within)


BENCH_METRICS = tuple(n for n in bl.METRIC_NAMES if bl.get_metric(n).transport is not None)


def run_bench_transport(m: int, reps: int, seed: int) -> ExperimentReport:
    """Parallel-transport timing comparison over identical seeded inputs.

    Reports the median wall time of one transport call per metric
    (nanoseconds) and the ratios of the two baselines to Log-Cholesky.  Each
    case times the metrics' transports back to back, the first rotating from
    case to case, so that a burst of load on the host moves every median
    alike.  Absolute times are hardware-bound; only orderings and coarse
    ratios are meaningful.
    """
    _at_least(2, m=m)
    _at_least(100, reps=reps)
    rng = seeded_rng(seed)
    cases = [
        (random_spd(rng, m), random_spd(rng, m), random_sym(rng, m))
        for _ in range(reps)
    ]
    call_ns: dict[str, list[int]] = {name: [] for name in BENCH_METRICS}
    for i, (p, q, w) in enumerate(cases):
        k = i % len(BENCH_METRICS)
        for name in BENCH_METRICS[k:] + BENCH_METRICS[:k]:
            transport = bl.get_metric(name).transport
            t0 = time.perf_counter_ns()
            transport(p, q, w)
            call_ns[name].append(time.perf_counter_ns() - t0)
    median_ns = {name: float(np.median(ns)) for name, ns in call_ns.items()}
    timings = {f"{name}_ns": median_ns[name] for name in BENCH_METRICS}
    timings["ratio_le_lc"] = median_ns["log-euclidean"] / median_ns["log-cholesky"]
    timings["ratio_ai_lc"] = median_ns["affine-invariant"] / median_ns["log-cholesky"]
    return ExperimentReport(
        experiment="bench-transport",
        metrics=list(BENCH_METRICS),
        inputs={"seed": seed},
        environment={"dim": m, "reps": reps},
        results=[
            ResultRecord(
                name="timing_note",
                note="wall times and ratios are in the timings field",
            )
        ],
        timings=timings,
    )


STABILITY_SET_SIZE = 5


def run_stability(kappa: float, m: int, seed: int) -> ExperimentReport:
    """Ill-conditioning study: per metric, exponential/logarithm round-trip
    error at a well-conditioned base, mean-computation success, and the
    determinant-identity gap.  Failures are recorded, never raised.
    """
    if not (math.isfinite(kappa) and kappa >= 1.0):
        raise ParameterError(f"kappa must be finite and >= 1, got {kappa}")
    _at_least(1, m=m)
    rng = seeded_rng(seed)
    base = _stability_base(rng, m)
    target = random_spd_with_condition(rng, m, kappa)
    sample = [
        random_spd_with_condition(rng, m, kappa) for _ in range(STABILITY_SET_SIZE)
    ]
    results: list[ResultRecord] = []
    for name in bl.METRIC_NAMES:
        ops = bl.get_metric(name)
        results.append(_roundtrip_record(name, ops, base, target))
        results.extend(_mean_records(name, ops, sample))
    return ExperimentReport(
        experiment="stability",
        metrics=list(bl.METRIC_NAMES),
        inputs={"seed": seed, "kappa": kappa, "set_size": STABILITY_SET_SIZE},
        environment={"dim": m},
        results=results,
    )


def _stability_base(rng: np.random.Generator, m: int) -> SpdMatrix:
    # Mildly conditioned base so round-trip errors isolate the target's
    # conditioning, not the base's.
    a = rng.standard_normal((m, m))
    s = a @ a.T
    return SpdMatrix(np.eye(m) + 0.5 * s / _eigh(s, vectors=False)[-1])


def _attempt(compute) -> tuple[object, str]:
    """``(compute(), "")``, or ``(None, note)`` if it raises a library error."""
    try:
        return compute(), ""
    except LogCholError as exc:
        return None, f"failed: {type(exc).__name__}: {exc}"


def _roundtrip_record(
    name: str, ops: bl.MetricOps, base: SpdMatrix, target: SpdMatrix
) -> ResultRecord:
    def rel_error() -> float:
        back = ops.exp(base, ops.log(base, target))
        return float(_norm(back.data - target.data) / _norm(target.data))

    err, note = _attempt(rel_error)
    return ResultRecord(
        name=f"{name}.roundtrip_rel_error", value=err, units="relative", note=note
    )


def _mean_records(
    name: str, ops: bl.MetricOps, sample: list[SpdMatrix]
) -> list[ResultRecord]:
    gap, note = _attempt(lambda: _det_law(ops.mean(sample), sample)[2])
    return [
        ResultRecord(
            name=f"{name}.mean_success", value=gap is not None, units="flag", note=note
        ),
        ResultRecord(name=f"{name}.mean_det_gap_rel", value=gap, units="relative"),
    ]


def run_mean_gap(n: int, m: int, trials: int, seed: int) -> ExperimentReport:
    """Average relative squared-Frobenius gap between the Log-Cholesky and
    affine-invariant means of ``n`` random SPD matrices, over ``trials``
    draws.  The trials are one ``(trials, n, m, m)`` stack, drawn at once and
    checked and factored as one stack (each member has eigenvalues of at
    least ``1e-3``, so each factors); no member is typed.  Every trial's
    Log-Cholesky mean comes from one ``_frechet_mean`` of the factor stack,
    and the affine-invariant means from one stacked Karcher iteration,
    ``affine_karcher_mean`` on the array of trials; only if that raises a
    library error does each trial take its own ``_karcher_alone``.  Each mean has the bits of
    ``log_cholesky_mean`` or ``affine_karcher_mean`` on the trial's members;
    a trial whose mean raises a library error, in its typing too, counts in
    ``failed_trials``.  Memory grows with ``trials n m^2``."""
    _at_least(1, n=n, m=m, trials=trials)
    ps = random_wishart_stack(seeded_rng(seed), (trials, n), m)
    s, ls = _factors(ps.reshape(-1, m, m))
    lcs = _frechet_mean(ls.reshape(trials, n, m, m))
    s = s.reshape(trials, n, m, m)
    try:
        ais = bl.affine_karcher_mean(s)
    except LogCholError:
        ais = [_attempt(lambda: bl._karcher_alone(trial))[0] for trial in s]
    gaps: list[float] = []
    for k, ai in zip(lcs, ais):
        lc, _ = _attempt(lambda: _spd_point(k))
        if lc is not None and ai is not None:
            gaps.append(float(_norm(lc.data - ai.data) ** 2 / _norm(ai.data) ** 2))
    failures = trials - len(gaps)
    return ExperimentReport(
        experiment="mean-gap",
        metrics=["log-cholesky", "affine-invariant"],
        inputs={
            "seed": seed,
            "spd_law": "A A^T / (2m) + 1e-3 I, A standard normal of shape (m, 2m)",
        },
        environment={"dim": m, "count": n, "trials": trials},
        results=[
            ResultRecord(
                name="mean_gap",
                value=float(np.mean(gaps)) if gaps else None,
                units="relative squared Frobenius",
            ),
            ResultRecord(
                name="per_trial_gap",
                values=gaps,
                units="relative squared Frobenius",
            ),
            ResultRecord(name="failed_trials", value=float(failures), units="count"),
        ],
    )
