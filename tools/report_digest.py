"""Check every recorded benchmark window's report against perfbench/baseline.json.

Run from the root of the repository:

    PYTHONPATH=src python tools/report_digest.py

Every window runs both serially (--workers 1) and on the worker pool
(--workers 2), and once with --fail-fast, which finds no violation and so
must give the same bytes; perfbench/check.py checks each report.  The JSON
windows are also written as CSV with --workers 1 and 2, which must give the
same bytes.  The windows in PINNED have no benchmark workload: each must
exit 0 and give the report whose sha256 is pinned here, at --workers 1 and
2 and with --fail-fast.  The exit status is 1 if any check fails, else 0.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, "perfbench")
from workloads import WORKLOADS


#: (arguments, sha256 of the report) of each window pinned here
PINNED = [
    # 93,600 claims: moduli above n at small n, an l axis that skips values,
    # and pool chunks that start part-way into an n
    (["verify", "davis-sun-b", "--n", "1..150", "--p", "2,3,5", "--alpha", "1..3",
      "--l", "0,2,5", "--format", "csv", "--no-timestamp"],
     "0360b3b4ebc7442833cb28acbc04a0f2d321f0947815f70440e78eed69a9d17a"),
    # 26,400 claims on the per-residue path (sun has no one-pass sums), with
    # probed inapplicable tuples, beta > alpha among them
    (["verify", "sun", "--n", "1..60", "--p", "2,3", "--alpha", "1,2", "--beta", "0..3",
      "--l", "0..3", "--probe-inapplicable", "--format", "csv", "--no-timestamp"],
     "594cca001819a67a7e1230af7dc77d25d957cd46f133d16eae9db5e361294fd9"),
    # 18,600 claims of a residue subset, so per-residue sums where every
    # residue would take the one-pass sums, with an m axis that grows with n
    (["verify", "sc3", "--n", "1..30", "--p", "2,3", "--alpha", "1,2", "--m", "1..n",
      "--a=-1..2", "--r", "0,1,5", "--format", "csv", "--no-timestamp"],
     "e96213ba77c8bb0e378c954a21c2622f254a85682e3c5f8ed50001736a688ea2"),
    # 74,340 claims of a full-residue Stirling sweep with one grid per n
    # (n = 1 gets none), whose grids share one plan and its memos
    (["verify", "sc1", "--n", "1..60", "--p", "2,3,5", "--m", "2..n", "--a=-2..3",
      "--format", "csv", "--no-timestamp"],
     "6ec3b1c85c3ef4825e5b6da6f47ae99c3dd37a4fda9dc10afec548f0949fb420"),
    # 72,160 claims of a full-residue sc3 sweep whose moduli 2 and 20 share
    # each n's Stirling terms, with 20 above n for n < 20, and a = 0
    (["verify", "sc3", "--n", "1..40", "--p", "2,5", "--alpha", "1", "--m", "1..n",
      "--a=-1..2", "--format", "csv", "--no-timestamp"],
     "dc3655851fd4bc160a871b63446fa90cb49f2cdfcb7cb27e111a47c65b718588"),
    # 2,754 claims that read the Eulerian rows 150..200, up to the row limit
    (["verify", "ec1", "--n", "150..200", "--p", "2,3", "--alpha", "1,2", "--l", "0..2",
      "--format", "csv", "--no-timestamp"],
     "f24cfba1f64b558678247b8a6e1bd41d75ab822e89bee965ceee3c6d8f046531"),
    # 18,960 claims that read both Stirling triangles up to the row limit
    (["verify", "sc3", "--n", "195..200", "--p", "2,3", "--alpha", "1", "--m", "1..n",
      "--a=0..1", "--format", "csv", "--no-timestamp"],
     "12f9444aca6c5ce524dc7772d073129a266f9513b0820d92cec8fa19b816ca08"),
]


def with_flag(argv, flag, value):
    at = argv.index(flag)
    return argv[:at] + [flag, value] + argv[at + 2:]


def verify(argv, report):
    return subprocess.call([sys.executable, "-m", "congruence_lab.cli", *argv,
                            "--out", report])


with open("perfbench/baseline.json") as f:
    digests = json.load(f)["digests"]
failed = False
with tempfile.TemporaryDirectory() as tmp:
    for name, seeds in digests.items():
        workload = WORKLOADS[name]
        for seed in sorted(seeds, key=int):
            argv = workload.argv(int(seed))
            # a chunk the worker pool reorders or drops, or one the
            # serial writer or --fail-fast gets wrong, fails here
            runs = [(with_flag(argv, "--workers", "1"), "--workers 1"),
                    (with_flag(argv, "--workers", "2"), "--workers 2"),
                    (argv + ["--fail-fast"], "--fail-fast")]
            for run, how in runs:
                report = os.path.join(tmp,
                                      f"{name}-{seed}-{how[2:].replace(' ', '')}"
                                      f".{workload.fmt}")
                code = verify(run, report)
                problems = subprocess.run(
                    [sys.executable, "perfbench/check.py", name, seed, str(code), report],
                    capture_output=True, text=True, check=True,
                ).stdout.strip()
                print(f"{name} seed {seed} {how}: exit {code}, problems {problems}")
                failed |= problems != "[]"
            if workload.fmt == "json":
                # no digest covers these windows as CSV: the two worker
                # counts must agree byte for byte
                reports = []
                for workers in ("1", "2"):
                    report = os.path.join(tmp, f"{name}-{seed}-w{workers}.csv")
                    run = with_flag(with_flag(argv, "--format", "csv"), "--workers", workers)
                    code = verify(run, report)
                    with open(report, "rb") as f:
                        reports.append((code, f.read()))
                same = reports[0] == reports[1] and reports[0][0] == 0
                print(f"{name} seed {seed} CSV --workers 1 and 2: exit "
                      f"{reports[0][0]} and {reports[1][0]}, "
                      f"{'identical' if same else 'DIFFERENT'}")
                failed |= not same
    for argv, want in PINNED:
        for how in (["--workers", "1"], ["--workers", "2"], ["--fail-fast"]):
            report = os.path.join(tmp, "pinned" + how[-1])
            code = verify(argv + how, report)
            digest = "(no report)"
            if os.path.exists(report):
                with open(report, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
            ok = code == 0 and digest == want
            print(f"{' '.join(argv[:2])} {' '.join(how)}: exit {code}, "
                  f"{'digest matches' if ok else 'DIFFERENT digest ' + digest}")
            failed |= not ok
sys.exit(failed)
