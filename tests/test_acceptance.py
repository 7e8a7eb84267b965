"""Acceptance suite: every verification claim at its pinned tolerance.

Each claim prints one pass/fail line; the final test runs the verify
command twice end to end and requires byte-identical reports.
"""
import json
from pathlib import Path

import pytest

import fracdim
from fracdim import acceptance
from fracdim.acceptance import ALL_CLAIM_IDS, render_report, run_claim, run_claims
from fracdim.cli import main

CLAIM_TITLES = {
    1: "affine series: exact lengths and dimension 1",
    2: "constant series: dimension falls back to 1",
    3: "power-law lengths: regression recovers the exponent",
    4: "alternating series: closed-form lengths and dimension 2",
    5: "bounded-variation spline: box dimension 1 vs estimator 2; rough graph box dimension",
    6: "area route and stride route agree",
    7: "periodic interpolant: tiny bump inflates the slope to ~3.5",
    8: "alternating series: tiny bump inflates the slope to ~2.7",
    9: "resurrected stride length matches the closed form",
    10: "oscillating BV signal: slope drifts to 1 as N grows",
    11: "rough series: slope near 1.7 at N = 1000 within budget",
    12: "partition-sum decomposition and subseries convergence",
    13: "refining a partition never lowers its sum",
    14: "verification reruns are byte-identical",
}


@pytest.mark.parametrize("claim_id", ALL_CLAIM_IDS)
def test_claim(claim_id):
    rows = run_claim(claim_id)
    assert rows, f"claim {claim_id} produced no checks"
    verdict = "PASS" if all(r.passed for r in rows) else "FAIL"
    print(f"criterion {claim_id:2d} [{verdict}]: {CLAIM_TITLES[claim_id]}")
    failed = [r for r in rows if not r.passed]
    assert not failed, "\n" + render_report(failed)


def count_golden_parses(monkeypatch) -> list:
    parses = []
    real_loads = json.loads
    # json.load reads the file and hands the text to json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **kw: parses.append(1) or real_loads(*a, **kw))
    return parses


def frozen_scalars(data, skip=("alternating_divergence",)):
    """Every scalar in the golden file; the divergence table is checked in
    tests/test_stability.py."""
    for key, value in data.items():
        if key in skip:
            continue
        if isinstance(value, dict):
            yield from frozen_scalars(value)
        else:
            yield value


def test_full_report_covers_every_claim(monkeypatch):
    acceptance.golden_values.cache_clear()
    parses = count_golden_parses(monkeypatch)
    rows = run_claims()
    assert {int(r.claim) for r in rows} == set(ALL_CLAIM_IDS)
    # one parse per process, not one per golden row
    assert len(parses) == 1
    checked = {r.expected for r in rows}
    assert {repr(float(v)) for v in frozen_scalars(acceptance.golden_values())} <= checked


def test_verify_command_is_deterministic(tmp_path):
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    assert main(["verify", "--out", str(first)]) == 0
    assert main(["verify", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_golden_file_ships_as_package_data():
    """The packaged file is the only source of golden values, so an installed
    package must carry it."""
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    patterns = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]["fracdim"]
    golden = Path(fracdim.__file__).parent / "golden" / "expected.json"
    assert golden.is_file()
    assert any(golden.relative_to(golden.parents[1]).match(p) for p in patterns)
