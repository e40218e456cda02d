"""Set-up probe: the work a `verify` run does before its first claim.

It imports `congruence_lab.cli`, then builds every triangle that
`verifier.required_tables` names for the workload's grids, and prints the
rows it needed and the rows it got as JSON.  The benchmark times this
process from spawn to exit:

    python3 perfbench/probe.py <workload> <seed>
"""

from __future__ import annotations

import json
import sys

from workloads import WORKLOADS


def main(name: str, seed: int) -> None:
    import congruence_lab.cli  # noqa: F401  (the import is part of what is timed)
    from congruence_lab import triangles, verifier

    tables = {
        family.value: {"needed": top, "built": triangles.ensure_rows(family, top).max_n}
        for family, top in verifier.required_tables(WORKLOADS[name].grids(seed)).items()
    }
    print(json.dumps(tables, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
