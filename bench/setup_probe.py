"""One set-up as a user pays it: a fresh interpreter imports the program,
reads one walk and prepares the 500/200 split. Prints one JSON line with
the monotonic time at which the data was ready and the time of each stage.

    python3 bench/setup_probe.py SRC_DIR CSV_PATH
"""

import time

T_START = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, sys.argv[1])
t_import = time.monotonic_ns()
import svrtune.cli  # noqa: E402,F401  (the command's import set)
from svrtune import dataset  # noqa: E402

t_load = time.monotonic_ns()
series = dataset.parse_csv(Path(sys.argv[2]).read_text(encoding="utf-8"))
t_prepare = time.monotonic_ns()
sset = dataset.build_supervised(series)
nmap = dataset.fit_normalizer(sset, -1.0, 1.0, range(500))
train, test = dataset.split(dataset.apply_normalizer(nmap, sset), dataset.SplitSpec(500, 200))
t_ready = time.monotonic_ns()
print(json.dumps({
    "ready_ns": t_ready,
    "interpreter_start_ns": T_START,
    "import_ms": (t_load - t_import) / 1e6,
    "load_ms": (t_prepare - t_load) / 1e6,
    "prepare_ms": (t_ready - t_prepare) / 1e6,
}))
