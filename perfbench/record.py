"""Record the output digests the benchmark checks against.

    python3 perfbench/record.py

For each recorded seed and workload, runs one pass, checks it against
the invariants, and writes the exit code and a sha256 prefix of every
canonical output to perfbench/digests.json. Run it only at a commit
whose outputs are meant to change; a pass with any problem aborts.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

RECORDED_SEEDS = tuple(range(10)) + (run.HELD_OUT_SEED,)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    work = run.HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    seeds: dict[str, dict[str, list[list[str]]]] = {}
    try:
        for seed in RECORDED_SEEDS:
            for workload in run.WORKLOADS:
                bench = run.Bench(workload, seed, work)
                bench.expected = None  # record afresh, not against the file
                if bench.check(workloads.run_pass(workload, bench.paths, work)):
                    print(f"seed {seed} {workload}: {bench.problems[:5]}", file=sys.stderr)
                    return 1
                names = workloads.outputs(workload)
                seeds.setdefault(str(seed), {})[workload] = [
                    [row[s] for s in names] for row in bench.expected
                ]
                print(f"seed {seed} {workload}: {len(bench.expected)} inputs", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = []
    for seed, by_workload in seeds.items():
        for workload, rows in by_workload.items():
            body = ",\n".join(f"      {json.dumps(row)}" for row in rows)
            lines.append(f'    "{seed}/{workload}": [\n{body}\n    ]')
    (run.HERE / "digests.json").write_text(
        '{\n  "seeds": {\n' + ",\n".join(lines) + "\n  }\n}\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
