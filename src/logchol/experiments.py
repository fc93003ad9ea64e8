"""Experiment drivers behind the CLI: interpolation/determinant studies,
mean determinant identities, transport timing, ill-conditioning stability,
and the mean-gap statistic.

Each driver is a pure function from ``(config, seed)`` to an
:class:`~logchol.report.ExperimentReport`; wall-clock measurements are the
only nondeterministic outputs and live in the report's ``timings`` field.
"""
from __future__ import annotations

import math
import time
from collections.abc import Sequence

import numpy as np

from . import baselines as bl
from .report import ExperimentReport, GlyphRecord, ResultRecord
from .sampling import (
    random_orthogonal,
    random_spd,
    random_spd_wishart,
    random_spd_with_condition,
    random_sym,
)
from .spd_manifold import log_cholesky_mean
from .tri import (
    DomainError,
    LogCholError,
    NoConvergenceError,
    SpdMatrix,
    SymMatrix,
    _stack,
)


class ParameterError(DomainError):
    """An experiment parameter is out of range: a usage error, not a
    numerical failure (the CLI exits 2 on it)."""


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator of a seeded experiment; a negative seed is a usage error."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


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
    p = (q * d) @ q.T
    return SpdMatrix((p + p.T) / 2.0)


def run_interpolate(
    metric: str,
    steps: int,
    endpoints: tuple[SpdMatrix, SpdMatrix] | None = None,
    fixture: str = "builtin",
) -> tuple[ExperimentReport, list[GlyphRecord]]:
    """Geodesic interpolation study: determinant sequence plus glyph stream."""
    if steps < 2:
        raise ParameterError(f"steps must be >= 2, got {steps}")
    ops = bl.get_metric(metric)
    if endpoints is None:
        endpoints = interpolation_endpoints()
    p, q = endpoints
    ts = np.linspace(0.0, 1.0, steps)
    mats = [ops.interpolate(p, q, float(t)) for t in ts]
    dets = [float(np.linalg.det(m.data)) for m in mats]
    glyphs = [
        GlyphRecord.from_spd_dense(m.data, 0, i) for i, m in enumerate(mats)
    ]
    report = ExperimentReport(
        experiment="interpolate",
        metrics=[metric],
        inputs={"fixture": fixture, "seed": FIG_SEED if fixture == "builtin" else None},
        environment={"dim": p.dim, "steps": steps},
        results=[
            ResultRecord(name="t_grid", values=[float(t) for t in ts], units="t"),
            ResultRecord(
                name="det_sequence", values=dets, units="determinant", tolerance=5e-3
            ),
            ResultRecord(
                name="endpoint_dets",
                values=[
                    float(np.linalg.det(p.data)),
                    float(np.linalg.det(q.data)),
                ],
                units="determinant",
            ),
        ],
    )
    return report, glyphs


def run_mean(
    metric: str,
    mats: Sequence[SpdMatrix],
    inputs: dict | None = None,
) -> ExperimentReport:
    """Mean study: mean matrix, its determinant, and the determinant-law gap."""
    ops = bl.get_metric(metric)
    mean = ops.mean(list(mats))
    dets, det_mean, geo, gap = _det_law(mean, mats)
    return ExperimentReport(
        experiment="mean",
        metrics=[metric],
        inputs=inputs or {},
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
                value=bool(
                    dets.min() * (1.0 - 1e-12) <= det_mean <= dets.max() * (1.0 + 1e-12)
                ),
                units="flag",
                tolerance=1e-12,
            ),
        ],
    )


def _det_law(
    mean: SymMatrix, mats: Sequence[SpdMatrix]
) -> tuple[np.ndarray, float, float, float]:
    """The determinant law ``det(mean) = geometric mean of det(P_i)``:
    the members' determinants (one stacked call), the mean's determinant,
    their geometric mean and the relative gap between the two."""
    dets = np.linalg.det(_stack(mats))
    det_mean = float(np.linalg.det(mean.data))
    geo = float(np.exp(np.mean(np.log(dets))))
    return dets, det_mean, geo, abs(det_mean - geo) / geo


BENCH_METRICS = ("log-euclidean", "affine-invariant", "log-cholesky")
BENCH_WARMUP = 10
BENCH_BATCHES = 10


def run_bench_transport(m: int, reps: int, seed: int) -> ExperimentReport:
    """Parallel-transport timing comparison over identical seeded inputs.

    Reports median-of-means wall time per metric (nanoseconds) and the
    ratios of the two baselines to Log-Cholesky.  Absolute times are
    hardware-bound; only orderings and coarse ratios are meaningful.
    """
    if m < 2:
        raise ParameterError(f"m must be >= 2, got {m}")
    if reps < 100:
        raise ParameterError(f"reps must be >= 100, got {reps}")
    rng = seeded_rng(seed)
    cases = [
        (random_spd(rng, m), random_spd(rng, m), random_sym(rng, m))
        for _ in range(reps)
    ]
    mean_ns: dict[str, float] = {}
    for name in BENCH_METRICS:
        transport = bl.get_metric(name).transport
        for p, q, w in cases[:BENCH_WARMUP]:
            transport(p, q, w)
        batch_means = []
        for batch in np.array_split(np.arange(reps), BENCH_BATCHES):
            t0 = time.perf_counter_ns()
            for i in batch:
                p, q, w = cases[i]
                transport(p, q, w)
            batch_means.append((time.perf_counter_ns() - t0) / len(batch))
        mean_ns[name] = float(np.median(batch_means))
    timings = {f"{name}_ns": mean_ns[name] for name in BENCH_METRICS}
    timings["ratio_le_lc"] = mean_ns["log-euclidean"] / mean_ns["log-cholesky"]
    timings["ratio_ai_lc"] = mean_ns["affine-invariant"] / mean_ns["log-cholesky"]
    return ExperimentReport(
        experiment="bench-transport",
        metrics=list(BENCH_METRICS),
        inputs={"seed": seed},
        environment={"dim": m, "reps": reps, "warmup": BENCH_WARMUP},
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
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
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
    p = np.eye(m) + 0.5 * s / np.linalg.eigvalsh(s)[-1]
    return SpdMatrix((p + p.T) / 2.0)


def _roundtrip_record(
    name: str, ops: bl.MetricOps, base: SpdMatrix, target: SpdMatrix
) -> ResultRecord:
    try:
        back = ops.exp(base, ops.log(base, target))
        err = np.linalg.norm(back.data - target.data) / np.linalg.norm(
            target.data
        )
        return ResultRecord(
            name=f"{name}.roundtrip_rel_error", value=float(err), units="relative"
        )
    except LogCholError as exc:
        return ResultRecord(
            name=f"{name}.roundtrip_rel_error",
            value=None,
            units="relative",
            note=f"failed: {type(exc).__name__}: {exc}",
        )


def _mean_records(
    name: str, ops: bl.MetricOps, sample: list[SpdMatrix]
) -> list[ResultRecord]:
    try:
        _, _, _, gap = _det_law(ops.mean(sample), sample)
        return [
            ResultRecord(name=f"{name}.mean_success", value=True, units="flag"),
            ResultRecord(
                name=f"{name}.mean_det_gap_rel", value=gap, units="relative"
            ),
        ]
    except LogCholError as exc:
        return [
            ResultRecord(
                name=f"{name}.mean_success",
                value=False,
                units="flag",
                note=f"failed: {type(exc).__name__}: {exc}",
            ),
            ResultRecord(
                name=f"{name}.mean_det_gap_rel", value=None, units="relative"
            ),
        ]


def run_mean_gap(n: int, m: int, trials: int, seed: int) -> ExperimentReport:
    """Average relative squared-Frobenius gap between the Log-Cholesky and
    affine-invariant means of ``n`` random SPD matrices."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    rng = seeded_rng(seed)
    gaps: list[float] = []
    failures = 0
    for _ in range(trials):
        sample = [random_spd_wishart(rng, m) for _ in range(n)]
        lc = log_cholesky_mean(sample).data
        try:
            ai = bl.affine_karcher_mean(sample).data
        except NoConvergenceError:
            failures += 1
            continue
        gaps.append(float(np.linalg.norm(lc - ai) ** 2 / np.linalg.norm(ai) ** 2))
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
