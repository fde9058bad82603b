"""Peak resident memory of a fresh process that runs one pass of a workload.

    python3 perfbench/peak_rss.py <invocations.json> <outdir>

The JSON file lists the workload's invocations as [argv, expected exit
code] pairs, with their scenario files already written by the caller.  The
process imports only the package (from the checkout's `src/`) and runs each
invocation through `consdyn.cli.main`, its output sent to /dev/null, so
the peak it prints, in MB, is the program's own.  Exit codes are checked;
the artifacts are not (the measured passes check them).
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    invocations = json.loads(Path(sys.argv[1]).read_text())
    outdir = Path(sys.argv[2])
    sys.path.insert(0, str(SRC))
    import consdyn.cli

    for k, (argv, expect) in enumerate(invocations):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                code = consdyn.cli.main([*argv, "--out", str(outdir / f"{k:02d}")])
            except SystemExit as exc:
                code = exc.code
        if code != expect:
            print(f"{' '.join(argv)}: exit {code}, expected {expect}", file=sys.stderr)
            return 1
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
