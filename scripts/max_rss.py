#!/usr/bin/env python3
"""Run a command and fail when its peak resident set exceeds a ceiling.

    python3 scripts/max_rss.py CEILING_MB COMMAND [ARGS...]

The command's stdin/stdout/stderr pass through untouched.  Its peak RSS
is printed to stderr.  A failing command keeps its exit status; a
successful one whose peak exceeds CEILING_MB exits 3.
"""
import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    ceiling_mb = float(argv[1])
    status = subprocess.run(argv[2:]).returncode
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"max_rss: peak {peak_mb:.0f} MB, ceiling {ceiling_mb:.0f} MB", file=sys.stderr)
    if status != 0:
        return status if status > 0 else 1  # negative: killed by a signal
    if peak_mb > ceiling_mb:
        print("max_rss: peak RSS over the ceiling", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
