"""Spawn timed invocations for run.py, one at a time.

Reads one JSON request per line on stdin ({"argv", "stdout", "stderr",
"timeout"}), runs it to completion and answers with one JSON line of wall
time, CPU time, peak RSS and exit code. The kernel counts the spawning
process's own peak RSS into the peak RSS of a child it spawns, so
invocations are spawned from this small process rather than from run.py,
whose memory grows with the outputs it checks. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
        }), flush=True)


if __name__ == "__main__":
    main()
