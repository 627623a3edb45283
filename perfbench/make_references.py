"""Record the reference exit code and stdout sha256 of every benchmark op.

    python3 perfbench/make_references.py

Runs each workload's ops in fresh children (one child covers every rank-10
element family-rank10 can draw) and rewrites perfbench/references.json.  The
references pin the output of the commit they were taken at: rerun this only
when an output change is intended, never to make a failing gate pass.
"""

from __future__ import annotations

import json
import sys

import run


def op_lists() -> list[list[list[str]]]:
    family = [["compute", "sp-groth", run.WIDE]] + [["compute", "sp-groth", d] for d in run.DEEP]
    return [family] + [run.workload_ops(name, 0)[0] for name in run.WORKLOADS
                       if name != "family-rank10"]


def main() -> int:
    refs = {}
    for ops in op_lists():
        report = run.run_child(ops)
        for argv, op in zip(ops, report.get("ops", [])):
            if op["error"] is not None:
                print(f"{run.op_key(argv)} raised {op['error']}", file=sys.stderr)
                return 1
            refs[run.op_key(argv)] = {"exit": op["exit"], "sha256": op["sha256"],
                                      "bytes": op["bytes"]}
            print(f"{op['end'] - op['start']:8.2f} s  {run.op_key(argv)}", file=sys.stderr)
    if len(refs) != len({run.op_key(argv) for ops in op_lists() for argv in ops}):
        print("some ops did not run", file=sys.stderr)
        return 1
    run.REFERENCES.write_text(json.dumps({"source": run.source_context(), "ops": refs},
                                         indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
