"""Helpers the test suite shares: random factors, tangents and Wishart draws,
the mean-gap experiment composed one trial at a time, the fixture writer, and
readers for the reports and glyph records the CLI writes."""
from __future__ import annotations

import dataclasses
import json

import numpy as np

from logchol import baselines as bl
from logchol.report import ExperimentReport, GlyphRecord, ResultRecord
from logchol.spd_manifold import log_cholesky_mean
from logchol.tri import CholeskyFactor, LogCholError, LowerTriangular, SpdMatrix


def random_factor(rng: np.random.Generator, dim: int) -> CholeskyFactor:
    """Random well-conditioned Cholesky factor: normal strict lower part,
    log-uniform diagonal in ``[e^-1, e]``."""
    f = np.tril(rng.standard_normal((dim, dim)), -1)
    np.fill_diagonal(f, np.exp(rng.uniform(-1.0, 1.0, dim)))
    return CholeskyFactor(f)


def random_tangent(rng: np.random.Generator, dim: int) -> LowerTriangular:
    """Random lower triangular tangent vector."""
    return LowerTriangular(np.tril(rng.standard_normal((dim, dim))))


def random_spd_wishart(rng: np.random.Generator, dim: int) -> SpdMatrix:
    """One normalized Wishart-style SPD matrix ``A A^T / (2 dim) + 1e-3 I``,
    ``A`` standard normal of shape ``(dim, 2 dim)``, from its own draw: the
    per-matrix reference for ``sampling.random_wishart_stack``."""
    n = 2 * dim
    a = rng.standard_normal((dim, n))
    return SpdMatrix(a @ a.T / n + 1e-3 * np.eye(dim))


def wishart_trials(n: int, m: int, trials: int, seed: int) -> list[list[SpdMatrix]]:
    """The samples of ``run_mean_gap(n, m, trials, seed)``, drawn one matrix at a time."""
    rng = np.random.default_rng(seed)
    return [[random_spd_wishart(rng, m) for _ in range(n)] for _ in range(trials)]


def mean_gaps_per_trial(samples) -> list[float | None]:
    """Each sample's relative squared-Frobenius gap between its Log-Cholesky
    and affine-invariant means, each mean its own call; ``None`` where one
    raises a library error."""
    gaps = []
    for sample in samples:
        try:
            lc, ai = log_cholesky_mean(sample).data, bl.affine_karcher_mean(sample).data
        except LogCholError:
            gaps.append(None)
        else:
            gaps.append(float(np.linalg.norm(lc - ai) ** 2 / np.linalg.norm(ai) ** 2))
    return gaps


def rotated(d, angle=0.7) -> np.ndarray:
    """``R diag(d) R^T`` with ``R`` the 2x2 rotation by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    r = np.array([[c, -s], [s, c]])
    return (r * d) @ r.T


def format_matrix_text(mats) -> str:
    """Render dense matrices in the block text format ``parse_matrix_text`` reads."""
    blocks = []
    for a in mats:
        rows = [" ".join(repr(float(x)) for x in row) for row in np.asarray(a, dtype=float)]
        blocks.append("\n".join([str(len(rows))] + rows))
    return "\n\n".join(blocks) + "\n"


def dump_matrices(mats, path) -> None:
    """Write dense matrices to a fixture file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix_text(mats))


def report_from_json(text: str) -> ExperimentReport:
    d = json.loads(text)
    d["results"] = [ResultRecord(**r) for r in d["results"]]
    return ExperimentReport(**d)


def nontiming_json(report: ExperimentReport) -> str:
    """The report's canonical JSON with the timing fields stripped."""
    d = dataclasses.asdict(report)
    d.pop("timings", None)
    return json.dumps(d, sort_keys=True, indent=2)


def glyph_from_json(text: str) -> GlyphRecord:
    return GlyphRecord(**json.loads(text))


def result(report: ExperimentReport, name: str) -> ResultRecord:
    """The record called ``name``; ``KeyError`` if the report has none."""
    for rec in report.results:
        if rec.name == name:
            return rec
    raise KeyError(name)
