"""A fixed reference process: how fast the host runs `verify`-like Python now.

It starts an interpreter, imports the standard modules the CLI imports, sums
big-integer binomial rows (the shape of the filtered sums) and renders small
records as indented, key-sorted JSON (the shape of a report).  It does not
use the program, so a change to the program never moves it.  run.py times it
from spawn to exit as ``host.calib_s``:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import argparse  # noqa: F401  (imported by the CLI too; part of the reference)
import csv  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import json
import math


def main() -> int:
    total = 0
    for n in range(200, 260):
        row = [math.comb(n, k) for k in range(0, n + 1, 2)]
        total += sum(x * (-1) ** j for j, x in enumerate(row)) % 1_000_003
    records = [
        {"params": {"n": i % 40 + 1, "p": 2 + i % 2, "m": i % 7 + 1, "r": i % 6},
         "sum": str(i * 1_234_567_890_123), "ord": i % 5, "verdict": "HOLDS"}
        for i in range(12_000)
    ]
    text = json.dumps({"records": records}, indent=2, sort_keys=True)
    return (total + len(text)) % 2


if __name__ == "__main__":
    print(main())
