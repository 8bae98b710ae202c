"""Record a ``BENCH_<n>.json``: the benchmark on a base checkout and on this tree.

Run from the repository root, with a checkout of the commit to compare
against in another directory::

    git archive HEAD | tar -x -C ../base
    python3 scripts/bench_record.py --base ../base --out BENCH_8.json \\
        --first-seed 1101

For each workload and each of the ten pairs ``k``, ``perfbench/run.py
--workload W --seed FIRST+k --seconds 30 --trace 0`` runs once in each tree
(each tree's own unchanged copy, from that tree's root), the side that goes
first alternating from pair to pair.  The record holds every run's five
end-to-end metrics, their medians and quartiles per side, the number of
pairs the change won per metric, the Python version, ``os.cpu_count()``,
and the wall time, child CPU time and peak RSS of acceptance criteria 3
(exponentials, words <= 6), 4 (codendriform, words <= 5), 6 (exchange,
``|t|`` <= 6), 7 (roundtrip, words <= 6) and 8 (single_faced, words <= 7),
and of the roundtrip suite at length 7, one length past its
``cli.VERIFY_MAX_LEN`` entry, each run once per tree in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("enumerate", "convert", "verify")
METRICS = ("setup_s", "wall_s", "op_p50_s", "op_max_s", "peak_rss_mb")  # all lower is better
CRITERIA = {"3": ("exponentials", 6, 42), "4": ("codendriform", 5, None),
            "6": ("exchange", 6, None), "7": ("roundtrip", 6, 42),
            "8": ("single_faced", 7, 42)}
# suites one length past their VERIFY_MAX_LEN entry, run at the suite's own seed
REACH = {"roundtrip": 7}
# every record uses the same pairs and run length, so records compare
PAIRS = 10
SECONDS = 30.0


def run_workload(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: result["metrics"][name]["value"] for name in METRICS}}


def run_criterion(tree: Path, suite: str, max_len: int, seed: int | None) -> dict:
    """Wall time, CPU time and peak RSS of one suite run in a fresh process."""
    code = ("import sys; from bifc import verify; "
            f"sys.exit(not verify.run_suite({suite!r}, max_len={max_len}, seed={seed}).ok)")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code], cwd=tree, env=env)
    _pid, status, usage = os.wait4(child.pid, 0)
    wall = perf_counter() - t0
    return {"ok": os.waitstatus_to_exitcode(status) == 0, "wall_s": round(wall, 3),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout of the commit to compare against")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "change": ROOT}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")

    record: dict = {"python": sys.version.split()[0], "cpu_count": os.cpu_count(),
                    "pairs": PAIRS, "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        seeds = [args.first_seed + k for k in range(PAIRS)]
        for k, seed in enumerate(seeds):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_workload(trees[side], workload, seed))
            print(workload, seed, {side: runs[side][-1]["wall_s"] for side in order},
                  file=sys.stderr, flush=True)
        entry: dict = {"seeds": seeds, "runs": runs}
        for side in runs:
            entry[side] = {name: summary([r[name] for r in runs[side]]) for name in METRICS}
            entry[side]["all_correct"] = all(r["correct"] for r in runs[side])
            entry[side]["failed"] = sum(r["failed"] for r in runs[side])
        entry["change_better_pairs"] = {
            name: sum(c[name] < b[name] for b, c in zip(runs["base"], runs["change"]))
            for name in METRICS}
        record["workloads"][workload] = entry

    record["criteria"] = {
        number: {"suite": suite, "max_len": max_len,
                 **{side: run_criterion(tree, suite, max_len, seed)
                    for side, tree in trees.items()}}
        for number, (suite, max_len, seed) in CRITERIA.items()}
    record["reach"] = {
        suite: {"max_len": max_len,
                **{side: run_criterion(tree, suite, max_len, None)
                   for side, tree in trees.items()}}
        for suite, max_len in REACH.items()}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
