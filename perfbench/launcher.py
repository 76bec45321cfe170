"""Child-process launcher for the end-to-end runs.

Reads one JSON request per line on standard input ({"argv", "stdout",
"stderr", "cwd", "timeout"}), runs the command with the launcher's own
environment, and answers with one JSON line: exit code, wall seconds from
spawn to exit, and the child's rusage from os.wait4.

It runs as a separate small process because a child made by fork or vfork
counts its parent's resident set toward its own ru_maxrss until it execs;
spawned from the benchmark process, which holds the expected outputs, every
child would report at least the benchmark's size.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=req["cwd"])
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "returncode": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
