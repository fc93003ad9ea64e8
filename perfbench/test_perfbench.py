"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest -q perfbench

The short runs take about a minute in all.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import oracles as O  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT,
         seconds: int = 1) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


_CACHE: dict = {}


def short_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    key = (workload, seed, trace)
    if key not in _CACHE:
        proc = _run(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _CACHE[key] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return _CACHE[key]


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_short_run_emits_every_end_to_end_metric(workload):
    details, result = short_run(workload, 3, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    for spec in SPEC["end_to_end"]:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], float) and got["value"] > 0.0, spec["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert details["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(details["derived"]) == {"ai_lc_transport_p50_ratio", "le_lc_transport_p50_ratio"}
    # The Log-Euclidean derivative defect shows: its transports fail.
    assert details["failures"].get("log-euclidean.transport", 0) > 0
    assert result["correct"] is True, details["unexpected_failures"]


def test_short_traced_run_emits_every_per_layer_metric():
    details, result = short_run("calls-m5", 3, 1)
    for spec in SPEC["per_layer"]:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], float), spec["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert details["unmeasured"] == []


def test_same_seed_reproduces_non_timing_outputs():
    first, _ = short_run("calls-m5", 3, 0)
    again = _run("calls-m5", 3, 0)
    assert again.returncode == 0, again.stderr
    second = json.loads(again.stdout.strip().splitlines()[-2])
    assert first["fingerprint"] == second["fingerprint"]


def test_counts_depend_on_the_seed_not_the_run_length():
    _, short = short_run("calls-m5", 3, 0)
    longer = _run("calls-m5", 3, 0, seconds=3)
    assert longer.returncode == 0, longer.stderr
    result = json.loads(longer.stdout.strip().splitlines()[-1])
    assert (result["attempted"], result["failed"]) == (short["attempted"], short["failed"])


def test_ledger_counts_operations_not_repeats():
    ledger = bench.Ledger()
    for ok in (True, False, False, True):
        ledger.record("log-euclidean", "transport", 0, ok, "rel error 1")
    ledger.record("log-euclidean", "transport", 1, True)
    assert (ledger.attempted, ledger.failed, ledger.unexpected) == (2, 1, 0)
    assert ledger.by_kind == {"log-euclidean.transport": 1}


def test_different_seed_changes_inputs():
    a, _ = short_run("calls-m5", 3, 0)
    b, _ = short_run("calls-m5", 4, 0)
    assert a["fingerprint"]["inputs"] != b["fingerprint"]["inputs"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("calls-m5", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# Oracles reject perturbed outputs
# ---------------------------------------------------------------------------


def _inputs(m: int, seed: int = 5):
    import logchol

    rng = np.random.default_rng(seed)
    p, q, w = O.spd_law(rng, m), O.spd_law(rng, m), O.tangent_law(rng, m)
    wrapped = (logchol.SpdMatrix.from_dense(p), logchol.SpdMatrix.from_dense(q),
               logchol.SymMatrix.from_dense(w))
    return logchol, (p, q, w), wrapped


@pytest.mark.parametrize("geometry", ["log-cholesky", "affine-invariant", "euclidean", "cholesky"])
def test_oracles_accept_outputs_and_reject_perturbed_ones(geometry):
    logchol, (p, q, w), (P, Q, W) = _inputs(4)
    ops = logchol.get_metric(geometry)
    ref = O.REFERENCES[geometry]
    outputs = {"distance": (ops.distance(P, Q), ref["distance"](p, q))}
    if ref["transport"] is not None:
        outputs["transport"] = (ops.transport(P, Q, W).dense(), ref["transport"](p, q, w))
    tangent = ops.log(P, Q)
    if ref["log"] is not None:
        outputs["log"] = (tangent.dense(), ref["log"](p, q))
    outputs["round trip"] = (ops.exp(P, tangent).dense(), q)
    for name, (out, expected) in outputs.items():
        assert O.close(out, expected), name
        bumped = np.asarray(out) * (1.0 + 1e-4)
        assert not O.close(bumped, expected), name


def test_log_euclidean_oracle_matches_finite_differences():
    _, (p, q, w), _ = _inputs(4)
    h = 1e-6
    fd = (O.logm(p + h * w) - O.logm(p - h * w)) / (2 * h)
    assert O.rel_err(O.dlog(p, w), fd) < 1e-6
    s = O.logm(q)
    fd = (O.expm(s + h * w) - O.expm(s - h * w)) / (2 * h)
    assert O.rel_err(O.dexp(s, w), fd) < 1e-6


def test_call_checks_count_a_perturbed_output_as_failed(tmp_path):
    logchol, dense, wrapped = _inputs(5)
    work = bench.WORKLOADS["calls-m5"]
    inputs = bench.Inputs([dense], [wrapped], tmp_path / "f.txt", np.zeros((1, 5, 5)), "")
    ledger = bench.Ledger()
    item = bench.CallsItem(logchol, work, inputs, ledger, bench.Runner(), bench.SpeedProbe("python"))
    ops = logchol.get_metric("log-cholesky")
    item._op_mix("log-cholesky", ops, 0, [])
    assert ledger.failed == 0 and ledger.attempted == 4

    class Perturbed:
        transport = staticmethod(
            lambda P, Q, W: logchol.SymMatrix.from_dense(ops.transport(P, Q, W).dense() * 1.001)
        )
        distance = staticmethod(ops.distance)
        log = staticmethod(ops.log)
        exp = staticmethod(ops.exp)

    item._op_mix("log-cholesky", Perturbed, 0, [])
    assert ledger.failed == 1 and ledger.by_kind == {"log-cholesky.transport": 1}
    assert ledger.unexpected == 1


def test_cli_checks_reject_a_perturbed_report(tmp_path):
    import logchol.cli
    import logchol.experiments  # noqa: F401

    inputs = bench.Inputs([], [], tmp_path / "f.txt", np.zeros((1, 5, 5)), "")
    checks = bench.CliChecks(logchol, inputs)
    argv = ["interpolate", "--metric", "log-cholesky", "--steps", str(bench.INTERPOLATE_STEPS)]
    out = tmp_path / "r.json"
    assert logchol.cli.main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    glyphs = Path(str(out) + ".glyphs.jsonl").read_text()
    assert checks.interpolate(argv, report, glyphs) is None
    for rec in report["results"]:
        if rec["name"] == "det_sequence":
            rec["values"][50] *= 1.0 + 1e-6
    assert "det_sequence" in checks.interpolate(argv, report, glyphs)
