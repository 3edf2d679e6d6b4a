"""One set-up sample in a fresh process: import, config, initial state and,
for the coupled workloads, ``coupling_init`` with its t=0 X^alpha norm.

    python3 perfbench/setup_once.py <workload> <workdir>

Prints the elapsed seconds, measured from the first line of this script,
and the host-speed probe's mean time in ms over up to 0.3 s right after.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

common.use_checkout_src()
import sdnlw.cli  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](Path(sys.argv[2])).setup()
elapsed = time.perf_counter() - T0

from hostspeed import Probe  # noqa: E402

probe = Probe()
stop = time.perf_counter() + min(elapsed, 0.3)
while time.perf_counter() < stop:
    probe.call()
print(repr(elapsed), repr(sum(probe.ms) / len(probe.ms)))
