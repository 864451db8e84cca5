"""Record the output digests that ``run.py`` checks ops against.

For every workload, runs the fixed op list (the ops a ``--trace 1`` run
makes) at the default and the held-out seed, checks each output, and
writes the SHA-256 of each into ``oracle.json``.  Expected verdicts in
that file are kept as they are.  Run from the root of a checkout, only
after a change that is meant to alter outputs:

    python3 bench/record_oracle.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, run.SRC_DIR)
    from workloads import WORKLOADS

    with open(run.ORACLE, encoding="utf-8") as fh:
        oracle = json.load(fh)
    digests = {}
    for name, workload in WORKLOADS.items():
        digests[name] = {}
        for seed in (oracle["default_seed"], oracle["heldout_seed"]):
            runner = run.Runner(workload, seed, {**oracle, "digests": {}})
            runner.fixed_pass()
            if runner.failed:
                print(f"{name} seed {seed}: {runner.errors}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = [runner.outputs[i] for i in sorted(runner.outputs)]
    oracle["digests"] = digests
    with open(run.ORACLE, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
