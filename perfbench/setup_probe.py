"""Cold start of one workload in a fresh interpreter: import plus first item.

Run from the repository root as `python3 perfbench/setup_probe.py <workload>`.
Prints one JSON line with the seconds spent importing torusgreen (numpy
with it) and running the first item, and the two machine speed probes of
bench_speed.py that scale them: an import probe timed first, on standard
library modules that neither numpy nor torusgreen loads, and the compute
probe timed last.  Exits 1 if a call fails.
"""

import time

_T0 = time.perf_counter()
import decimal, difflib, email.parser, http.client, sqlite3, tarfile, xml.dom.minidom  # noqa: E401,E402,F401
IMPORT_PROBE_S = time.perf_counter() - _T0

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_speed import probe  # noqa: E402
from bench_workloads import SETUP_CALLS  # noqa: E402
from torusgreen import cli  # noqa: E402

IMPORTED = time.perf_counter()
PROBES = 5


def main() -> int:
    for argv in SETUP_CALLS[sys.argv[1]]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(argv))
        if code != 0:
            sys.stderr.write(f"setup call {' '.join(argv)} exited {code}\n")
            return 1
    item_s = time.perf_counter() - IMPORTED
    probe_s = statistics.median([probe() for _ in range(PROBES)])
    print(json.dumps({"import_s": IMPORTED - START, "item_s": item_s,
                      "import_probe_s": IMPORT_PROBE_S, "probe_s": probe_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
