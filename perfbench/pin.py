"""Rewrite perfbench/pins.json: output digests of the default seed's first units.

Run from the repository root after a change that alters the program's
output on purpose (say so in the change's description)::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402

#: Units pinned per workload; ``series`` pins also cover ``series-metrics``.
PINNED_UNITS = {"series": 8, "vo-durable": 2}


def main() -> None:
    pins = {}
    for name, count in PINNED_UNITS.items():
        workload = workloads.WORKLOADS[name](name, DEFAULT_SEED, HERE.parent / ".perfbench_runs" / "pin")
        digests = []
        for index in range(count):
            unit = workload.run_unit(index)
            digests.append(unit.digest)
            workload.release(unit)
        workload.close()
        pins[name] = {str(DEFAULT_SEED): digests}
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
