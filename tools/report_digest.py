"""Check every recorded benchmark window's report against perfbench/baseline.json.

Run from the root of the repository:

    PYTHONPATH=src python tools/report_digest.py

Every run is serial.  Every window runs with --workers 1, with --workers 2
(which the pool-csv workload passes; the flag is accepted and changes
nothing), and once with --fail-fast, which finds no violation and so must
give the same bytes; perfbench/check.py checks each report.  The JSON
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
    # and chunks that start part-way into an n
    (["verify", "davis-sun-b", "--n", "1..150", "--p", "2,3,5", "--alpha", "1..3",
      "--l", "0,2,5", "--format", "csv", "--no-timestamp"],
     "0360b3b4ebc7442833cb28acbc04a0f2d321f0947815f70440e78eed69a9d17a"),
    # 26,400 claims of sun's one-pass floor sums, folded from the stepped
    # sums modulo p**alpha, with probed inapplicable tuples, beta > alpha
    # among them, and moduli p**alpha above n at small n
    (["verify", "sun", "--n", "1..60", "--p", "2,3", "--alpha", "1,2", "--beta", "0..3",
      "--l", "0..3", "--probe-inapplicable", "--format", "csv", "--no-timestamp"],
     "594cca001819a67a7e1230af7dc77d25d957cd46f133d16eae9db5e361294fd9"),
    # 10,800 claims of a sun residue subset, so the per-residue floor sums
    # for d = 2, 3, 4 and 9, the one-pass sums for d = 1, and beta > alpha
    # probed
    (["verify", "sun", "--n", "1..150", "--p", "2,3", "--alpha", "1,2", "--beta", "0..2",
      "--l", "0..3", "--r", "0,2", "--probe-inapplicable", "--format", "csv",
      "--no-timestamp"],
     "a3ba5cde57c9bdcaa3cbcdb02bdaefc1626d4e535d2f79ce35ecb0e8e9d7ddc0"),
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
    # 10,140 claims of a full-residue sc1 sweep with a static m axis, gaps in
    # n, m > n at small n, and the moduli 1, 2, 4 and 6 on both sides of n
    (["verify", "sc1", "--n", "1..30,41,50..70", "--p", "2,3,5,7", "--m", "1,3,4",
      "--a=-2..2", "--format", "csv", "--no-timestamp"],
     "f4b0b27f3eb9623775fc6cb413e7dc84faff5edde87084e611e59ff4fdaeea54"),
    # 44 claims whose sums reach 4,342 digits, past the interpreter's default
    # limit of 4,300 on int-to-text digits, which a run lifts
    (["verify", "wan-strong", "--n", "14400..14410", "--p", "2", "--alpha", "1", "--l", "0..1",
      "--format", "csv", "--no-timestamp"],
     "d90c098a19ee4dcad1b74e38da59eb9e227e8de83a7b1398a0b9b4f78c533ac8"),
]


#: the --workers of every run, besides the --fail-fast run
WORKERS = ("1", "2")


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
            # a chunk the writer or --fail-fast gets wrong fails here
            runs = [*((with_flag(argv, "--workers", w), f"--workers {w}") for w in WORKERS),
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
                # no digest covers these windows as CSV: the --workers
                # values must agree byte for byte
                reports = []
                for workers in WORKERS:
                    report = os.path.join(tmp, f"{name}-{seed}-w{workers}.csv")
                    run = with_flag(with_flag(argv, "--format", "csv"), "--workers", workers)
                    code = verify(run, report)
                    with open(report, "rb") as f:
                        reports.append((code, f.read()))
                same = all(r == reports[0] for r in reports) and reports[0][0] == 0
                print(f"{name} seed {seed} CSV --workers {', '.join(WORKERS)}: exit "
                      f"{', '.join(str(code) for code, _ in reports)}, "
                      f"{'identical' if same else 'DIFFERENT'}")
                failed |= not same
    for argv, want in PINNED:
        for how in (*(["--workers", w] for w in WORKERS), ["--fail-fast"]):
            report = os.path.join(tmp, "pinned" + how[-1])
            code = verify(argv + how, report)
            digest = "(no report)"
            if os.path.exists(report):
                with open(report, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
            ok = code == 0 and digest == want
            print(f"{' '.join(argv)} {' '.join(how)}: exit {code}, "
                  f"{'digest matches' if ok else 'DIFFERENT digest ' + digest}")
            failed |= not ok
sys.exit(failed)
