"""Time one workload's set-up in a fresh process.

usage: python3 bench/setup_probe.py WORKLOAD SEED

Set-up is what a user waits for before the first step: importing episwarm
(numpy and PyYAML included), building the configs, building async schedules
and constructing one ``Simulation`` per simulate call. Prints one JSON line
with the seconds.
"""

import json
import sys
import time

import workloads as wl

wl.pin_threads()
sys.path.insert(0, str(wl.SRC))


def main() -> int:
    calls = wl.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    start = time.perf_counter()
    from episwarm import config, engine
    imported = time.perf_counter()
    wl.set_up(config, engine, calls)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
