"""Machine-readable experiment reports and glyph records.

Reports are canonical JSON (sorted keys), with all wall-clock derived
quantities quarantined under ``timings`` so that the remaining fields are
byte-reproducible from ``(command, config, seed)``.  Glyph records
serialize ellipsoid data (eigenvalues, eigenvectors, determinant and its
logarithm) for external plotting, one JSON object per line; each is
decomposed by the checked eigendecomposition ``_eigh`` of :mod:`.tri`.
``to_json`` encodes a record's fields where they stand, with no copy;
``dataclasses.asdict`` gives a deep copy, for callers that change it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .tri import _eigh

SCHEMA_VERSION = 1

# ``json.dumps(..., sort_keys=True)`` builds this encoder on every call.
_GLYPH_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass
class ResultRecord:
    """One named result: a scalar or a sequence, with units and tolerance."""

    name: str
    value: float | bool | None = None
    values: list[float] | None = None
    units: str = ""
    tolerance: float | None = None
    note: str = ""


@dataclass
class ExperimentReport:
    experiment: str
    metrics: list[str]
    inputs: dict
    environment: dict
    results: list[ResultRecord]
    timings: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        fields = {**vars(self), "results": [vars(r) for r in self.results]}
        return json.dumps(fields, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        """Per-record CSV export: name, index, value."""
        lines = ["name,index,value"]
        for rec in self.results:
            if rec.values is not None:
                for i, v in enumerate(rec.values):
                    lines.append(f"{rec.name},{i},{v!r}")
            else:
                lines.append(f"{rec.name},0,{rec.value!r}")
        return "\n".join(lines) + "\n"


@dataclass
class GlyphRecord:
    """Ellipsoid glyph of one SPD matrix at a grid position."""

    row: int
    col: int
    eigenvalues: list[float]
    eigenvectors: list[float]  # orthonormal matrix, flattened row-major
    determinant: float
    log_determinant: float

    @classmethod
    def from_spd_dense(cls, a: np.ndarray, row: int, col: int) -> "GlyphRecord":
        w, u = _eigh(a, "glyph")
        w, u = w[::-1], u[:, ::-1]  # eigh's ascending order, reversed
        log_det = float(np.log(w).sum())
        with np.errstate(over="ignore", under="ignore"):  # beyond the float range: 0 or inf
            det = float(np.exp(log_det))
        return cls(
            row=row,
            col=col,
            eigenvalues=w.tolist(),
            eigenvectors=u.ravel(order="C").tolist(),
            determinant=det,
            log_determinant=log_det,
        )

    def to_json(self) -> str:
        return _GLYPH_ENCODER.encode(vars(self))
