"""Run one command as a child of this small process; print its wall time and peak RSS.

Usage: ``python3 perfbench/child.py PROGRAM [ARG ...]``. The last line of
standard output is ``{"wall_s": ..., "maxrss_kb": ..., "code": ...}``.

``bench.py`` measures ``dynamo run`` through this process rather than directly,
because on Linux a child's ``ru_maxrss`` also counts the resident size of the
address space it was forked from: started from the benchmark itself, which
holds hundreds of MB, the figure would read the benchmark's memory, not the
program's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
