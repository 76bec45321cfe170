"""Run `python -m picardlab.cli ARGS` and append its wall seconds and peak
RSS, from os.wait4, to the GitHub step summary.

Usage: python run_measured.py [--max-rss-mb MB] ARGS...

With --max-rss-mb, a peak RSS at or above MB exits 3; otherwise the exit
status is the command's.  picardlab must be importable (PYTHONPATH=src)."""

import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    bound = None
    if argv[:1] == ["--max-rss-mb"]:
        bound, argv = int(argv[1]), argv[2:]
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "picardlab.cli", *argv])
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    peak_mb = usage.ru_maxrss / 1024
    with open(os.environ["GITHUB_STEP_SUMMARY"], "a", encoding="utf-8") as fh:
        print(f"`{' '.join(argv)}`: {wall:.2f} s wall, {peak_mb:.1f} MB peak RSS", file=fh)
    if bound is not None and peak_mb >= bound:
        print(f"peak RSS {peak_mb:.1f} MB, at or above the {bound} MB bound", file=sys.stderr)
        return 3
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
