"""The benchmark's correctness gate catches a changed report."""

from __future__ import annotations

import hashlib
import re

import pytest

import check
from congruence_lab import cli
from workloads import WORKLOADS, Workload

# at most check.SAMPLE_SIZE claims each, so that every record is re-derived
SMALL = {
    "json": Workload(name="small-json", theorem="sc3", ns=range(1, 4),
                     primes=(2, 3), alphas=(1,), a_values=range(1, 2), shifted_axis="a",
                     period=2),
    "csv": Workload(name="small-csv", theorem="wan-strong", ns=range(3, 7),
                    primes=(2, 3), alphas=(1,), ls=(0, 1), fmt="csv", workers=2, period=3),
}


def _report(tmp_path, workload, seed):
    path = tmp_path / f"report.{workload.fmt}"
    assert cli.main(workload.argv(seed) + ["--out", str(path)]) == 0
    return path


def _change_one_digit(path):
    """Change the last digit of the first sum in the report."""
    text = path.read_text()
    pattern = r'"sum": "-?\d*(\d)"' if path.suffix == ".json" else r"^wan-strong,(?:[^,]*,){10}-?\d*(\d),"
    i = re.search(pattern, text, re.M).start(1)
    path.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_report_with_one_changed_digit_fails(tmp_path, fmt):
    workload = SMALL[fmt]
    assert workload.claim_count() <= check.SAMPLE_SIZE
    path = _report(tmp_path, workload, seed=1)
    digests = {"1": hashlib.sha256(path.read_bytes()).hexdigest()}
    assert check.check_report(workload, 1, 0, path, digests) == []

    _change_one_digit(path)
    problems = check.check_report(workload, 1, 0, path, digests)
    assert "report sha256 differs from the recorded digest" in problems
    # without a digest, the re-derivation of the sampled records catches it
    assert any("differs from check_claim" in p for p in check.check_report(workload, 1, 0, path, {}))


def test_missing_records_and_bad_exit_code_fail(tmp_path):
    workload = SMALL["csv"]
    path = _report(tmp_path, workload, seed=2)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert any("records, expected" in p for p in check.check_report(workload, 2, 0, path, {}))
    assert check.check_report(workload, 2, 1, path, {}) == ["exit code 1"]


@pytest.mark.parametrize("workload", WORKLOADS.values(), ids=lambda w: w.name)
def test_claim_count_and_seed_windows(workload):
    base = workload.argv(0)
    assert workload.argv(workload.period) == base
    assert workload.argv(1) != base
    count = sum(1 for _ in workload.expected_params(0))
    assert count == sum(1 for _ in workload.expected_params(1)) == workload.claim_count()
