"""Time one set-up in a fresh interpreter: import the package and run one warm-up op.

Usage: python3 setup_probe.py <src dir> <dhardy argv...>

Prints {"setup_s": ..., "exit_code": ...} as its only line of output. The clock
starts after interpreter start-up, so the figure is package import plus the op.
"""

import json
import sys
from time import perf_counter

if __name__ == "__main__":
    started = perf_counter()
    sys.path.insert(0, sys.argv[1])
    from dirichlet_hardy import cli

    code = cli.main(sys.argv[2:])
    elapsed = perf_counter() - started
    print(json.dumps({"setup_s": elapsed, "exit_code": code}))
