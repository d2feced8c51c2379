"""Run one gaussform command the way ``python -m gaussform.cli`` does, and
record how long ``cli.main`` itself took.

Usage: python3 clichild.py REPORT_FILE ARG...

The traced cli-session run uses this in place of ``-m gaussform.cli``; the
startup share of a command is its wall time minus the ``main`` time written
to REPORT_FILE.  Exit code, stdout and stderr are those of the command.
"""

import sys
import time

report_path = sys.argv[1]
argv = sys.argv[2:]

from gaussform import cli  # noqa: E402

start = time.monotonic()
try:
    code = cli.main(argv)
except SystemExit as exc:       # argparse usage errors
    code = exc.code
finally:
    with open(report_path, "w") as fh:
        fh.write(f"{start!r} {time.monotonic()!r}\n")
sys.exit(code)
