"""Golden-file regression tests for ``repro report`` exports and the
``file:`` store's entries.

A small canonical sweep is executed in-process and its CSV/JSON
exports are compared **byte-for-byte** against committed fixtures in
``tests/engine/golden/`` — any change to the export schema (column
set or order, record layout, value formatting, axis labels) shows up
as a diff here instead of silently reshaping downstream consumers'
files.  One fixed result written through ``ResultCache.put`` is
compared the same way with ``file_entry.json``, so every existing
``file:`` store keeps reading and diffing like a freshly written one.

Timing fields (``fit_seconds``) are the one machine-dependent part of
a result, so they are masked to ``0.0`` on both sides before export.

Regenerating the fixtures after an *intentional* schema change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src \
        python -m pytest tests/engine/test_report_golden.py

then commit the updated files under ``tests/engine/golden/`` together
with the change that moved them.
"""

import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest

from repro.engine import Job, ResultCache, export_csv, export_json, run_sweep
from repro.engine.executor import JobOutcome
from repro.engine.spec import ScenarioGrid
from repro.pipeline import EvaluationResult

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

#: The canonical sweep: small enough to execute per test run, wide
#: enough to exercise every export column family (baseline + approach
#: rows, an error/imputer axis, audit columns absent, two seeds).
CANONICAL_GRID = dict(datasets=["german"],
                      approaches=[None, "Hardt-eo"],
                      errors=[None, "missing"],
                      imputers=["mean"],
                      seeds=[0, 1], rows=[240], causal_samples=200)


def _mask_timing(outcome: JobOutcome) -> JobOutcome:
    """Zero the wall-clock fields; everything else in a result is a
    deterministic function of the job."""
    result = dataclasses.replace(outcome.result, fit_seconds=0.0)
    return dataclasses.replace(outcome, result=result, seconds=0.0)


@pytest.fixture(scope="module")
def canonical_outcomes():
    report = run_sweep(ScenarioGrid(**CANONICAL_GRID).expand())
    assert not report.failures, [f.error for f in report.failures]
    return [_mask_timing(o) for o in report.outcomes]


def _check_or_regen(produced: pathlib.Path, golden: pathlib.Path):
    data = produced.read_bytes()
    if REGEN:
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_bytes(data)
    assert golden.exists(), (
        f"golden fixture {golden} missing — regenerate with "
        "REPRO_REGEN_GOLDEN=1 (see module docstring)")
    assert data == golden.read_bytes(), (
        f"{produced.name} export drifted from {golden}; if the change "
        "is intentional, regenerate with REPRO_REGEN_GOLDEN=1")


class TestGoldenExports:
    def test_csv_export_is_byte_stable(self, canonical_outcomes,
                                       tmp_path):
        produced = export_csv(canonical_outcomes, tmp_path / "report.csv")
        _check_or_regen(produced, GOLDEN_DIR / "report.csv")

    def test_json_export_is_byte_stable(self, canonical_outcomes,
                                        tmp_path):
        produced = export_json(canonical_outcomes,
                               tmp_path / "report.json")
        _check_or_regen(produced, GOLDEN_DIR / "report.json")

    def test_json_fixture_is_valid_and_complete(self, canonical_outcomes):
        """The committed fixture itself must stay parseable and cover
        one record per canonical cell (guards against committing a
        truncated regen)."""
        records = json.loads((GOLDEN_DIR / "report.json").read_text())
        assert len(records) == len(canonical_outcomes) == 8
        for record in records:
            assert record["dataset"] == "german"
            assert record["fit_seconds"] == 0.0
            assert set(record) >= {"approach", "error", "imputer",
                                   "seed", "accuracy", "di_star",
                                   "audit"}


class TestGoldenFileEntry:
    #: A NaN metric (an undefined rate) and raw values of numpy and
    #: Python float types: everything a cell's entry has to encode.
    RESULT = EvaluationResult(
        approach="Hardt-eo", dataset="german", stage="post",
        accuracy=0.7125, precision=0.6, recall=0.8, f1=0.6857142857142857,
        di_star=float("nan"), tprb=0.95, tnrb=0.92, id=0.88, te=0.91,
        nde=0.93, nie=0.97,
        raw={"di": np.float64(0.9), "te": -0.2, "tprb": float("nan")},
        fit_seconds=0.5)
    JOB = Job(dataset="german", approach="Hardt-eo", rows=400,
              causal_samples=300)

    def test_file_entry_is_byte_stable(self, tmp_path):
        produced = ResultCache(f"file:{tmp_path}").put(self.JOB,
                                                       self.RESULT)
        _check_or_regen(produced, GOLDEN_DIR / "file_entry.json")
