"""Benchmark of the ``bifc`` command line, driven the way a user drives it.

Run from the repository root::

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Each CLI call is a fresh ``python -m bifc.cli`` process with ``src`` on
``PYTHONPATH``, started one at a time from this process.  A run builds the
workload's seeded inputs and expected outputs (see ``workloads.py``), then
repeats whole rounds of the workload's fixed call list until ``--seconds``
have passed, checking every output.  A bare ``bifc --version`` process is
timed before every round (``setup_s``).

Every call of the list is timed in every round, and a run reports each
call's fastest time: on a shared host slower repeats of the same
deterministic work come from other machines' load, which changes from
second to second and from minute to minute, and the minimum of many
repeats is far steadier from run to run than their median.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` each round is run once untraced
and once under ``tracer.py``, and the object holds the per-layer metrics.
A summary with every call time goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 3  # bare --version processes before the first round
DEADLINE_S = 170.0  # no call may run past this many seconds into the run
SUITES = workloads.SUITES

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_max_s": "s",
              "peak_rss_mb": "MB"}


def _fn(key: str, field: str):
    return lambda agg: agg["functions"].get(key, {}).get(field, 0)


def _sum(*getters):
    return lambda agg: sum(g(agg) for g in getters)


def _ratio(num, den):
    return lambda agg: num(agg) / den(agg) if den(agg) else 0.0


def _cache(key: str, field: str):
    return lambda agg: agg["caches"][key][field]


# metric name -> (unit, value computed from the round's merged traces)
PER_LAYER = {
    # L0 biset / translucent
    "translucent.exchange.calls": ("count", _fn("translucent.exchange", "calls")),
    "translucent.exchange.self_s": ("s", _fn("translucent.exchange", "self_s")),
    "translucent.factorizations.self_s": ("s", _fn("translucent.factorizations", "self_s")),
    "translucent.split.self_s": ("s", _fn("translucent.split", "self_s")),
    "translucent.restrict.self_s": ("s", _fn("translucent.restrict", "self_s")),
    "translucent.compose.self_s": ("s", _fn("translucent.compose", "self_s")),
    "biset.standard_order.hits": ("count", _cache("biset.standard_order", "hits")),
    "biset.standard_order.misses": ("count", _cache("biset.standard_order", "misses")),
    # L1 bipartition
    "bipartition.enumerate.self_s": ("s", _sum(
        _fn("bipartition.enumerate_bipartitions", "self_s"),
        _fn("bipartition._enumerate_cached", "self_s"))),
    "bipartition.candidates": ("count", lambda agg: agg["counters"]["candidates"]),
    "bipartition.kept": ("count", lambda agg: agg["counters"]["kept"]),
    "bipartition.kept_per_candidate": ("ratio", _ratio(
        lambda agg: agg["counters"]["kept"], lambda agg: agg["counters"]["candidates"])),
    "bipartition.is_noncrossing.calls": ("count", _fn("bipartition.is_noncrossing", "calls")),
    "bipartition.monotone_block_weights.self_s": (
        "s", _fn("bipartition.monotone_block_weights", "self_s")),
    "bipartition.enum_cache.hits": ("count", _cache("bipartition.enum_cache", "hits")),
    "bipartition.enum_cache.misses": ("count", _cache("bipartition.enum_cache", "misses")),
    # L2 words
    "words.horizontal_product.calls": ("count", _fn("words.horizontal_product", "calls")),
    "words.horizontal_product.self_s": ("s", _fn("words.horizontal_product", "self_s")),
    "words.coproduct.self_s": ("s", _fn("words.coproduct", "self_s")),
    "words.coproduct_left.self_s": ("s", _fn("words.coproduct_left", "self_s")),
    "words.coproduct_right.self_s": ("s", _fn("words.coproduct_right", "self_s")),
    "words.reduced_coproduct.self_s": ("s", _fn("words.reduced_coproduct", "self_s")),
    "words.admissible_cuts.items": ("count", _fn("words.admissible_cuts", "items")),
    "words.type_of.hits": ("count", _cache("words.type_of", "hits")),
    "words.type_of.misses": ("count", _cache("words.type_of", "misses")),
    # L3 functional
    **{f"functional.{name}.self_s": ("s", _fn(f"functional.{name}", "self_s"))
       for name in ("exp_prec", "exp_succ", "exp_star", "log_star", "exp_full")},
    "functional.oracle_sum.calls": ("count", _fn("functional.oracle_sum", "calls")),
    "functional.oracle_sum.self_s": ("s", _fn("functional.oracle_sum", "self_s")),
    **{f"functional.{name}.calls": ("count", _fn(f"functional.{name}", "calls"))
       for name in ("star_eval", "prec_eval", "succ_eval")},
    "functional.Functional.eval.calls": ("count", _fn("functional.Functional.eval", "calls")),
    # L4 cumulants
    "cumulants.moments_to_cumulants.self_s": ("s", _fn("cumulants.moments_to_cumulants", "self_s")),
    "cumulants.cumulants_to_moments.self_s": ("s", _fn("cumulants.cumulants_to_moments", "self_s")),
    # L5 cli / diagrams / verify
    "cli.import_s": ("s", lambda agg: statistics.median(agg["import_s"])),
    "cli.load_table.self_s": ("s", _fn("cli._load_table", "self_s")),
    "cli.dump_table.self_s": ("s", _fn("cli._dump_table", "self_s")),
    "diagrams.render_svg.self_s": ("s", _sum(  # with the per-diagram fragments it draws
        _fn("diagrams.render_svg", "self_s"), _fn("diagrams.render_bipartition", "self_s"))),
    **{f"verify.{suite}.self_s": ("s", _fn(f"verify.suite_{suite}", "self_s"))
       for suite in SUITES},
    **{f"verify.{suite}.checks_per_s": ("1/s", _ratio(
        lambda agg, suite=suite: agg["suites"].get(suite, 0),
        _fn(f"verify.suite_{suite}", "total_s")))
       for suite in SUITES},
    "trace.overhead_s": ("s", lambda agg: agg["overhead_s"]),
}


class Runner:
    """Starts CLI processes one at a time, each within the run's deadline."""

    def __init__(self, start: float):
        self.start = start
        self.env = dict(os.environ)
        self.env.pop("BIFC_MAX_ENUM", None)
        extra = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")

    def run(self, cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        timeout = max(1.0, DEADLINE_S - (perf_counter() - self.start))
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        return perf_counter() - t0, proc


def _merge(traces: list[dict], overhead_s: float) -> dict:
    agg: dict = {"functions": {}, "caches": {}, "counters": {}, "suites": {},
                 "import_s": [], "overhead_s": overhead_s}
    for tr in traces:
        agg["import_s"].append(tr["import_s"])
        for name, stats in tr["functions"].items():
            into = agg["functions"].setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
        for name, stats in tr["caches"].items():
            into = agg["caches"].setdefault(name, {"hits": 0, "misses": 0})
            for key, value in stats.items():
                into[key] += value
        for group in ("counters", "suites"):
            for name, value in tr[group].items():
                agg[group][name] = agg[group].get(name, 0) + value
    return agg


class Run:
    def __init__(self, runner: Runner, calls: list[workloads.Call], work: Path):
        self.runner, self.calls, self.work = runner, calls, work
        self.attempted = self.failed = 0
        self.failures: list[str] = []  # calls that exited non-zero or timed out
        self.wrong: list[str] = []  # calls that exited 0 with a wrong output
        self.timed_out = False

    def round(self, traced: bool) -> tuple[list[float | None], list[dict]]:
        """One pass over the call list: each call's time (None if it failed)
        and the traces of the calls that succeeded."""
        times: list[float | None] = []
        traces = []
        for k, call in enumerate(self.calls):
            if self.timed_out:
                break
            self.attempted += 1
            times.append(None)
            trace_file = self.work / f"trace-{k}.json"
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file), *call.argv]
            else:
                cmd = [sys.executable, "-m", "bifc.cli", *call.argv]
            try:
                dt, proc = self.runner.run(cmd)
            except subprocess.TimeoutExpired:
                self.failed += 1
                self.timed_out = True
                self.failures.append(f"{call.label}: timed out")
                break
            if proc.returncode != 0:
                self.failed += 1
                self.failures.append(f"{call.label}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            try:
                problem = call.check(proc.stdout)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                self.wrong.append(f"{call.label}: {problem}")
            times[-1] = dt
            if traced:
                traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
        return times, traces


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _version(runner: Runner) -> float:
    dt, proc = runner.run([sys.executable, "-m", "bifc.cli", "--version"])
    if proc.returncode != 0 or not proc.stdout.startswith("bifc "):
        raise RuntimeError(f"bifc --version failed (exit {proc.returncode}): {proc.stderr[-500:]}")
    return dt


def main(argv=None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("enumerate", "convert", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bifc" / "cli.py").is_file():
        print(f"no src/bifc/cli.py under {ROOT}: run from the repository root", file=sys.stderr)
        return 1
    runner = Runner(start)
    try:
        setup = [_version(runner) for _ in range(SETUP_SAMPLES)]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    work = HERE / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    rounds: list[list[float | None]] = []  # call times of each untraced round
    layers: list[dict] = []  # per-layer values of each traced round
    try:
        calls = workloads.build(args.workload, args.seed, work)
        run = Run(runner, calls, work)
        measure_start = perf_counter()
        while not run.timed_out:
            setup.append(_version(runner))
            plain, _ = run.round(traced=False)
            rounds.append(plain)
            if args.trace:
                times, traces = run.round(traced=True)
                agg = _merge(traces, sum(filter(None, times)) - sum(filter(None, plain)))
                layers.append({name: fn(agg) for name, (_unit, fn) in PER_LAYER.items()})
            if perf_counter() - measure_start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": _median(layer[name] for layer in layers), "unit": unit}
                   for name, (unit, _fn_) in PER_LAYER.items()}
    else:
        # each call's fastest time over the rounds in which it succeeded
        best = [min(ok) for ok in ([t for t in col if t is not None]
                                   for col in itertools.zip_longest(*rounds)) if ok]
        values = {
            "setup_s": min(setup),
            "wall_s": sum(best),
            "op_p50_s": _median(best),
            "op_max_s": max(best, default=0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    result = {"correct": not run.wrong, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    for line in (run.failures + run.wrong)[:10]:
        print(line, file=sys.stderr)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    summary = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                   setup=setup, rounds=rounds, failures=run.failures, wrong=run.wrong,
                   python=sys.version.split()[0], cpus=os.cpu_count())
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
