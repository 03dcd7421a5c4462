"""Run a command; report its exit code, wall time and peak RSS.

    python3 launch.py REPORT CMD...

A process's peak RSS (ru_maxrss) starts from the memory of the process that
started it, so the benchmark starts the program from this small launcher
and not from itself, which holds sympy and the inputs.  The peak covers the
command and every descendant it waited for, such as batch pool workers.
"""

import json
import os
import subprocess
import sys
import time


def main(argv) -> int:
    report, cmd = argv[1], argv[2:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w") as fh:
        json.dump({"code": proc.returncode, "wall_s": wall,
                   "rss_mb": usage.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
