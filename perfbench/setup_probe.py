"""Set-up as a user pays it: a fresh interpreter up to the first iteration.

Run by ``run.py`` as ``python3 setup_probe.py WORKLOAD SEED OUT_DIR``; it
imports the package, builds the workload's config, backend and initial
pulse, and exits.  The caller times the whole process.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (needs the path above)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3])).build()
