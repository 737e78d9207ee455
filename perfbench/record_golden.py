"""Record the reference outputs that perfbench checks at recorded seeds.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_golden.py

It runs one untraced pass of every workload at each seed in SEEDS and
writes perfbench/golden.json: per seed, the values of each operation
that consumes the seed; once, those of the deterministic operations.
"""
import json
import shutil
import sys

import run
import workloads

SEEDS = range(10)


def main() -> int:
    empty = {"seeded": {}, "deterministic": {}}
    golden = {"recorded_seeds": list(SEEDS), "seeded": {}, "deterministic": {}}
    work = run.WORK_DIR / "record-golden"
    try:
        for seed in SEEDS:
            for w in workloads.WORKLOADS:
                ops = workloads.operations(w, seed)
                pass_dir = work / f"{w}-{seed}"
                res = run.run_pass(ops, seed, pass_dir, False, 600.0, empty,
                                   False)
                if res["failures"]:
                    print(f"{w} seed {seed}: {res['failures']}",
                          file=sys.stderr)
                    return 1
                for op in ops:
                    rec = workloads.record_op(op["name"],
                                              pass_dir / op["name"])
                    if rec is None:
                        continue
                    seeded = workloads.CHECKS[op["name"]][3]
                    if seeded:
                        golden["seeded"].setdefault(str(seed), {})[op["name"]] = rec
                    elif golden["deterministic"].setdefault(op["name"], rec) != rec:
                        print(f"{op['name']} differs between seeds",
                              file=sys.stderr)
                        return 1
                shutil.rmtree(pass_dir)
                print(f"recorded {w} seed {seed}", flush=True)
    finally:
        run.remove_work(work)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
