"""Write reference.json: the fixed-input columns of every workload invocation.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

The stored values are the ones later runs are verified against, so rerun
this only when a change is meant to alter those outputs, and say so where
the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    import rqit.cli

    run_record = {}
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for inv in workloads.build(name, seed=0):
                if inv.command not in verify.FIXED_COLUMNS or inv.key in outputs:
                    continue
                path = os.path.join(tmp, inv.key + ".csv")
                code = rqit.cli.main(list(inv.argv) + ["-o", path])
                if code != 0:
                    print(f"{inv.key}: exit code {code}", file=sys.stderr)
                    return 1
                with open(path, encoding="utf-8") as fh:
                    outputs[inv.key] = verify.fixed_values(fh.read(), inv.command)
                run_record[inv.key] = list(inv.argv)
                print(f"{inv.key}: {outputs[inv.key]['rows']} rows")
    doc = {
        "about": "fixed-input columns of the benchmark's invocations; see verify.py",
        "git_commit": run.git_commit(),
        "source_sha256": run.source_digest(),
        "argv": run_record,
        "outputs": outputs,
    }
    with open(verify.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
