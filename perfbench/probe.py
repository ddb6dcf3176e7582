"""Set-up time probe: one fresh process, timed up to its first request.

Imports the program and opens a store (and, given a second path, a
results database), then prints the seconds that took.  ``run.py`` runs
it several times per benchmark run; every CLI invocation of the
program pays this cost.

With ``--baseline`` it imports the external libraries the program
loads at start-up (numpy, scipy's clustering, ``json``, ``sqlite3``),
but none of the program, and prints the seconds that took.  ``run.py`` times a baseline before and after every probe and
divides by it, so that a slow phase of the host cancels out.

    python3 perfbench/probe.py STORE_DIR [DB_PATH]
    python3 perfbench/probe.py --baseline
"""

import sys
import time

started = time.perf_counter()

if sys.argv[1:] == ["--baseline"]:
    import json  # noqa: E402,F401
    import sqlite3  # noqa: E402,F401

    import numpy  # noqa: E402,F401
    import scipy.cluster.hierarchy  # noqa: E402,F401

    print(time.perf_counter() - started)
    sys.exit(0)

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402,F401
import repro.analysis.runner  # noqa: E402,F401
import repro.pipeline  # noqa: E402,F401
from repro.service import ResultsDB  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402

ArtifactStore(sys.argv[1])
if len(sys.argv) > 2:
    ResultsDB(sys.argv[2]).close()
print(time.perf_counter() - started)
