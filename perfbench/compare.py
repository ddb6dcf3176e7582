"""Compare two benchmark result files, refusing results from different hosts.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The files are the ``.perfbench_out/*.json`` records ``run.py`` writes.
When the two platform records differ in machine, CPU model, Python,
numpy or CPU count, the results are flagged and no ratio is printed;
the calibration loop times are shown so the difference can be judged.
Exits 1 when flagged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Platform fields that must match for two results to be compared.
SAME_HOST = ("machine", "cpu", "python", "numpy", "nproc")


def platform_mismatch(before: dict, after: dict) -> list[str]:
    """The platform fields on which two result records differ."""
    return [
        field for field in SAME_HOST
        if before["platform"].get(field) != after["platform"].get(field)
    ]


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in paths)
    print("calibration_s " + "  ".join(
        f"{r['platform']['calibration_s']:.4f}" for r in (before, after)
    ))
    mismatch = platform_mismatch(before, after)
    if mismatch:
        print(f"FLAGGED: measured on different hosts ({', '.join(mismatch)}); "
              "not compared")
        return 1
    for name, entry in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            continue
        ratio = new["value"] / entry["value"] if entry["value"] else float("nan")
        print(f"{name:<32} {entry['value']:>14.6g} -> {new['value']:>14.6g} "
              f"{entry['unit']:<8} x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
