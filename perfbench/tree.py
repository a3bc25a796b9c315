"""Run one command as this process's only child and report its whole tree.

Usage: ``python3 perfbench/tree.py LOG_PREFIX CMD...``.  Prints one JSON
object: exit code, wall seconds from spawn to exit, user+sys CPU seconds and
the largest RSS of any process in the tree.  A dedicated parent is needed
because ``RUSAGE_CHILDREN`` accumulates over every child a process has ever
waited for.  The command's stdout and stderr go to ``LOG_PREFIX.out``/``.err``.
"""

import json
import resource
import subprocess
import sys
import time


def main(log_prefix: str, cmd: list[str]) -> None:
    with open(f"{log_prefix}.out", "wb") as out, open(f"{log_prefix}.err", "wb") as err:
        start = time.perf_counter()
        code = subprocess.call(cmd, stdout=out, stderr=err)
        wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "code": code,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
