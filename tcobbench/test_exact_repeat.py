#!/usr/bin/env python3
"""Asserts that the single-client workloads' work counters repeat exactly.

    python3 test_exact_repeat.py <tcobbench binary> <work dir>

Runs the traced run of slice_hot and history_scan twice with one seed and
compares the counters later changes may be gated on. They are measured
over a fixed number of operations, so they must not depend on timing.
"""
import json
import subprocess
import sys

EXACT = ["storage.pool_fetches_per_stmt", "tstore.accesses_per_stmt",
         "mad.versions_pinned_per_stmt", "query.rows_per_stmt"]


def run(binary, workdir, workload, seed):
    out = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "1",
                          "--workdir", workdir],
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run reported wrong results")
    return {k: result["metrics"][k]["value"] for k in EXACT}


def main():
    binary, workdir = sys.argv[1], sys.argv[2]
    ok = True
    for workload in ["slice_hot", "history_scan"]:
        first = run(binary, workdir, workload, 7)
        second = run(binary, workdir, workload, 7)
        for name in EXACT:
            same = first[name] == second[name]
            ok = ok and same
            print(f"{workload} {name}: {first[name]} vs {second[name]}"
                  f" {'ok' if same else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
