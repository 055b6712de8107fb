"""One fresh-interpreter set-up of a workload: import the modules it uses
and generate its inputs.  run.py times this from outside as setup_s.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.setup(sys.argv[1], int(sys.argv[2]))
