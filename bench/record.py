"""Write bench/expected.json: the digest of every operation any seed can draw.

    python3 bench/record.py

Run from the root of a source checkout, at the commit whose outputs are
the reference.  Every operation is first checked against its known
answer; one that fails it is not recorded (known defects are skipped).
Also prints each instance's total operation time, which is what the
pairs in workloads.py are balanced on.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import run


def main():
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    from dgcat import cli

    import workloads

    verifier = run.Verifier({})
    expected = {}
    bad = 0
    for workload in workloads.WORKLOADS:
        cost = defaultdict(float)
        for op in workloads.every_op(workload):
            elapsed, code, out = run.invoke(cli, op)
            cost[op.id.split(":")[0]] += elapsed
            problem = verifier.error(op, code, out)
            if op.id in verifier.digests:  # set once the known answer matched
                expected[op.id] = verifier.digests[op.id]
            elif problem and not op.known_defect:
                bad += 1
                print(f"FAILED {op.id}: {problem}")
        for inst, seconds in sorted(cost.items(), key=lambda kv: kv[1]):
            print(f"cost {workload} {inst} {seconds:.3f}")
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"{len(expected)} digests written to {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
