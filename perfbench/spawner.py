"""Lean helper process that starts, times and reaps the benchmark's CLI
children.

Linux counts the memory of the process a child was forked from in the
child's ``ru_maxrss``: a child forked from the runner, which holds numpy,
the package and the expected values, would report the runner's size
whenever it is larger than the child's own.  This helper loads nothing but
the standard library, so the peak RSS it reports is the child's.

Protocol: one JSON job per stdin line (``argv``, ``out``, ``err``, ``env``,
``cwd``, ``timeout``); one JSON reply per stdout line (``code``,
``wall_s``, ``maxrss_kb``).  The helper exits at end of input, and on
SIGTERM after killing and reaping the child in flight.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

child = None


def stop(signum, frame):
    if child is not None:
        try:
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    os._exit(128 + signum)


def main():
    global child
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["out"], "wb") as out, open(job["err"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(job["argv"], stdout=out, stderr=err,
                                     env=job["env"], cwd=job["cwd"])
            watchdog = threading.Timer(job["timeout"], child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            child = None
        reply = {"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                 "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
