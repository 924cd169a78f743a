"""Entry point of `python -m embedscale` and of the installed `embedscale` script.

run() returns cli.main's exit code. However the run ends, argparse's own
exits included, it then freezes every object (gc.freeze), so the
interpreter's collections at exit skip all that start-up made, and points
a stream that still holds unwritten bytes at os.devnull (as the signal
module's note on SIGPIPE does), so the interpreter's last flush cannot
fail and turn the code into 120. cli.main called in-process keeps its
collector as it is.
"""

import gc
import os
import sys

from .cli import main


def run() -> int:
    try:
        return main()
    finally:
        gc.freeze()
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


if __name__ == "__main__":
    sys.exit(run())
