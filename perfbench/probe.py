"""Set-up probe: a fresh process that imports dlgibbs and validates one input.

    python3 perfbench/probe.py <workload> '<input as JSON>'

run.py times this process from start to exit as the workload's setup_s.
"""

import json
import sys

import environment

if __name__ == "__main__":
    environment.pin_threads()
    environment.use_source_tree()
    import workloads

    workloads.setup(sys.argv[1], json.loads(sys.argv[2]))
