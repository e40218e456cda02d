"""`verify` reports, which evaluate, render and tally a sweep a block at a
time, against the reference: one ``check_claim`` record per claim, rendered by
``_json_text`` or ``csv.DictWriter``, and a summary worked out from those
records.

The grids are drawn over all twelve theorems.  Some draws raise the bound of
a few tuples out of reach, so that the summary has a ``first_violation`` and
a negative ``min_margin`` to get right, and --fail-fast has a VIOLATION to
stop at.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from congruence_lab import bounds, cli, verifier
from congruence_lab.bounds import THEOREMS, TheoremId
from congruence_lab.cli import main
from congruence_lab.verifier import Verdict, check_claim, grid_params
from oracles import dictwriter_csv, report_summary
from test_golden_reports import GRIDS


def _values(low, high, max_size=2):
    return st.lists(st.integers(low, high), min_size=1, max_size=max_size, unique=True).map(
        lambda vs: ",".join(map(str, vs)))


@st.composite
def verify_argv(draw):
    """The grid flags of a small random `verify` run."""
    theorem = draw(st.sampled_from(sorted(TheoremId, key=lambda t: t.value)))
    taken = THEOREMS[theorem].params
    low = draw(st.integers(1, 5))
    # an n axis with gaps drops the sums and terms a sweep keeps for the last
    # n and builds them again; p = 5 gives moduli above n
    ns = st.integers(low, 6).map(lambda high: f"{low}..{high}") | _values(1, 9, max_size=3)
    argv = ["verify", theorem.value, f"--n={draw(ns)}",
            "--p=" + draw(_values(2, 3) | st.just("5") | st.just("2,5"))]
    axes = {"alpha": _values(1, 2), "beta": _values(0, 2), "l": _values(0, 2),
            "m": st.just("1..n") | _values(1, 4), "a": _values(-2, 3)}
    for name, values in axes.items():
        if name in taken:
            argv.append(f"--{name}={draw(values)}")
    if "f" in taken:
        coeffs = st.lists(st.integers(-2, 2), min_size=1, max_size=4).map(
            lambda cs: ",".join(map(str, cs)))
        argv += [f"--f={text}" for text in draw(st.lists(coeffs, min_size=1, max_size=3))]
    if draw(st.booleans()):
        argv.append("--r=" + draw(_values(-3, 30, max_size=4)))
    return argv


def _reference_records(argv, probe):
    args = cli.build_parser().parse_args(argv)
    theorem = TheoremId(args.theorem)
    flags = cli._flag_values(theorem.value, args, cli._VERIFY_FLAGS,
                             cli._VERIFY_FLAGS[theorem.value])
    grids = cli._build_grids(theorem, args, flags)
    return [check_claim(theorem, params, probe) for grid in grids for params in grid_params(grid)]


@contextlib.contextmanager
def _bounds_raised(ns):
    """Bounds out of reach for the tuples with n in ``ns``: each integer
    bound goes up by 50, and SC2's p**ord_p(n!) is multiplied by p**50, on
    the per-claim and the per-tuple path alike."""
    real_constants = bounds.sc2_constants

    def raised(real_bound):
        def bound(**params):
            return real_bound(**params) + (50 if params["n"] in ns else 0)
        return bound

    def constants(n, p, f):
        l, comb, rhs = real_constants(n, p, f)
        return l, comb, rhs * p**50 if n in ns else rhs

    entries = {theorem: wiring._replace(bound=raised(wiring.bound))
               for theorem, wiring in THEOREMS.items() if wiring.bound is not None}
    with mock.patch.dict(THEOREMS, entries), \
            mock.patch.object(bounds, "sc2_constants", constants), \
            mock.patch.object(verifier, "sc2_constants", constants):
        yield


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(verify_argv(), st.sampled_from(["json", "csv"]), st.booleans(), st.sampled_from([1, 2]),
       st.sets(st.integers(1, 6), max_size=2), st.booleans())
def test_report_equals_one_check_claim_per_claim(tmp_path_factory, argv, fmt, probe, workers,
                                                 raised, fail_fast):
    argv = argv + ["--format", fmt] + (["--probe-inapplicable"] if probe else [])
    out = tmp_path_factory.mktemp("report") / f"report.{fmt}"
    # chunks of 16 claims, so that the records often span several; --workers
    # 2 is accepted and changes nothing
    with _bounds_raised(raised), mock.patch.object(cli, "JSON_CHUNK", 16), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--no-timestamp", "--workers", str(workers), "--out", str(out)]
                    + (["--fail-fast"] if fail_fast else []))
        records = _reference_records(argv, probe)
    if fail_fast:  # the records up to and including the first VIOLATION
        verdicts = [rec.verdict for rec in records]
        if Verdict.VIOLATION in verdicts:
            records = records[:verdicts.index(Verdict.VIOLATION) + 1]
    summary = report_summary(records)
    assert code == (1 if summary["first_violation"] else 0)
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        run = json.loads(text)["run"]
        want = cli._json_text({"records": [rec.to_json_dict() for rec in records], "run": run,
                               "summary": summary})
    else:
        want = dictwriter_csv(records, cli.CSV_COLUMNS)
    assert text == want
    with pytest.raises(ChildProcessError):  # no process started
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_the_report_path_builds_no_claim_record(fmt, workers, monkeypatch, tmp_path, capsys):
    # the report renders and tallies tuple results: a ClaimRecord built
    # anywhere on its path (at any --workers, or with --fail-fast) fails the run
    def no_record(*args, **kwargs):
        raise AssertionError("a ClaimRecord was built")

    monkeypatch.setattr(cli, "JSON_CHUNK", 16)
    monkeypatch.setattr(verifier, "ClaimRecord", no_record)
    for theorem, grid in GRIDS.items():
        argv = ["verify", theorem, *grid, "--format", fmt, "--workers", str(workers),
                "--out", str(tmp_path / theorem)]
        assert main(argv) == 0
        assert main(argv + ["--probe-inapplicable"]) == 0
        assert main(argv + ["--fail-fast"]) == 0
