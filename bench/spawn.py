"""Starts the benchmark's program calls from a small process.

Linux counts memory a child shares with the process that forked it towards
the child's peak RSS, up to its exec. The benchmark's own process holds
numpy, scipy and the check matrices, so calls forked from it would report
at least its size; forked from this bare interpreter, they report their own.

One JSON request per line on standard input,
``{"argv": [...], "log": path, "timeout": seconds}``; one JSON reply per
line on standard output, ``{"seconds", "cpu_s", "rss_mb", "code"}``. The
calls inherit this process's working directory and environment.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "seconds": seconds,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
