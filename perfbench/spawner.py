"""Starts the program's processes for run.py, one at a time, and reports on each.

    python3 -I perfbench/spawner.py

run.py starts this once per run, from the checkout root and with the
environment the program gets, and sends it one JSON line per command:
{"argv": [...], "stdout": path, "stderr": path}. It runs the command with
stdin from /dev/null, waits for it, and answers with one JSON line: exit
code, wall and CPU seconds, and peak RSS in MB. It exits at end of input.

It exists for the peak RSS. On Linux a child's ru_maxrss starts from the
high-water mark of the process that started it. A child of run.py, which
holds numpy and the workload's inputs, would report run.py's memory
whenever the program needs less. This process imports only the standard
library's basics, so its own mark (about 13 MB) is below that of any
embedscale process.
"""

import json
import os
import sys
import time


def run(argv, stdout: str, stderr: str) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return {"code": os.waitstatus_to_exitcode(status), "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        command = json.loads(line)
        print(json.dumps(run(command["argv"], command["stdout"], command["stderr"])),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
