"""The correctness gate every benchmarked `verify` run must pass.

A run fails unless its exit code is 0, its report parses, its records carry
exactly the parameters the workload generator expects (count and order), no
verdict is VIOLATION, a seeded sample of records matches a fresh evaluation
by `verifier.check_claim` (the reference oracle) field by field, and, where
a digest is recorded for the seed's window, the report's sha256 matches it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Any

from workloads import WORKLOADS, Workload

SAMPLE_SIZE = 48


def _csv_cells(record: dict[str, Any]) -> dict[str, str]:
    """The non-empty CSV cells of a JSON-style record, as the csv module writes them."""
    cells = {"theorem": record["theorem"], **record["params"]}
    for key in ("sum", "ord", "bound", "verdict", "margin"):
        cells[key] = record[key]
    return {k: str(v) for k, v in cells.items() if v is not None}


def _load_records(text: str, fmt: str) -> list[dict[str, Any]]:
    if fmt == "json":
        return json.loads(text)["records"]
    return [{k: v for k, v in row.items() if v != ""}
            for row in csv.DictReader(text.splitlines())]


def check_report(
    workload: Workload, seed: int, exit_code: int, report: Path, digests: dict[str, str]
) -> list[str]:
    """Every way the run fails the gate; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    data = report.read_bytes()
    problems = []
    digest = digests.get(str(workload.shift(seed)))
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        problems.append("report sha256 differs from the recorded digest")
    try:
        records = _load_records(data.decode("utf-8"), workload.fmt)
        problems += _check_records(workload, seed, records)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"report does not have the expected structure: {exc!r}")
    return problems


def _check_records(workload: Workload, seed: int, records: list) -> list[str]:
    from congruence_lab.verifier import check_claim

    problems = []
    count = workload.claim_count()
    if len(records) != count:
        problems.append(f"{len(records)} records, expected {count}")
    sample = set(random.Random(seed).sample(range(count), min(SAMPLE_SIZE, count)))
    violations = 0
    for i, (rec, params) in enumerate(zip(records, workload.expected_params(seed))):
        if workload.fmt == "json":
            order_ok = rec["params"] == params
        else:
            order_ok = all(rec.get(k) == str(v) for k, v in params.items())
        if not order_ok:
            problems.append(f"record {i} has parameters {rec!r}, expected {params!r}")
            break
        violations += rec["verdict"] == "VIOLATION"
        if i in sample:
            want = check_claim(workload.theorem, {k: v for k, v in params.items() if k != "d"})
            want = want.to_json_dict()
            if workload.fmt == "csv":
                want = _csv_cells(want)
            if rec != want:
                problems.append(f"record {i} differs from check_claim: {rec!r} != {want!r}")
    if violations:
        problems.append(f"{violations} VIOLATION verdicts")
    return problems


def main(name: str, seed: str, exit_code: str, report: str) -> None:
    """Print the problems of one run as JSON.  run.py checks in a child
    process, because a child's ``ru_maxrss`` starts from its parent's peak."""
    baseline = json.loads((Path(__file__).parent / "baseline.json").read_text())
    digests = baseline["digests"].get(name, {})
    print(json.dumps(check_report(WORKLOADS[name], int(seed), int(exit_code), Path(report), digests)))


if __name__ == "__main__":
    main(*sys.argv[1:])
