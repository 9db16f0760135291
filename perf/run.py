"""The repository's benchmark: one command, every metric by name and unit.

    python perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload once and prints, as the last line of its output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every per-layer
metric (``--trace 1``).  Above it, every number the run produced is printed
by name with its unit.  The exit code is non-zero if any check failed.

Without ``--workload`` every workload runs in turn.  ``--runs N`` repeats
each with seeds ``seed .. seed+N-1``; ``--json OUT`` keeps every run's
record with the host's facts for ``perf/compare.py``.  ``--selfcheck`` runs
the whole benchmark twice and holds the two sets against the benchmark's own
bounds (with ``--json OUT`` the sets go to ``OUT.A`` and ``OUT.B``).  ``--repin`` rebuilds ``perf/data/MANIFEST.json``.  See
``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import median
from time import perf_counter
from typing import List, Optional, Tuple

import compare
import ledger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Fresh worker processes whose set-up is timed per run (median reported).
SETUPS = 3
#: Units of per-layer metrics that must repeat exactly for a given seed.
EXACT_UNITS = {"count", "rows", "words", "cycles", "nJ", "ratio"}


class WorkerFailed(RuntimeError):
    pass


def _spawn(workload, seed, seconds, trace, setup_only) -> Tuple[float, Optional[dict]]:
    """Start one worker; returns (seconds from Popen to its ``ready`` event,
    its ``result`` event or ``None`` for a set-up-only worker)."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if setup_only:
        command.append("--setup-only")
    src = os.path.join(ROOT, "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=src + (os.pathsep + inherited if inherited else ""),
    )
    started = perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    setup_s = None
    result = None
    try:
        for line in process.stdout:
            if not line.startswith('{"event"'):
                continue
            event = json.loads(line)
            if event["event"] == "ready":
                setup_s = perf_counter() - started
            elif event["event"] == "result":
                result = event
    except BaseException:
        process.kill()
        raise
    finally:
        process.stdout.close()
        code = process.wait()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise WorkerFailed(f"worker for {workload} exited with code {code}")
    return setup_s, result


def assemble(benchmark, workload, seed, seconds, trace, result, setup_samples, problems) -> dict:
    """One run's record: the declared metrics of its mode, by name and unit."""
    values = dict(result["values"])
    if trace:
        required = set(result["layers"])
    else:
        values["setup_s"] = median(setup_samples)
        required = {metric["name"] for metric in benchmark["end_to_end"]}
    metrics = {}
    for metric in benchmark["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        if (name in required) != (name in values):
            problems.append(
                f"metric {name} was "
                + ("not produced" if name in required else "produced but not declared by the workload")
            )
        # A layer this workload does not cross (a name outside ``required``)
        # did no work and took no time.
        metrics[name] = {"value": values.pop(name, 0.0), "unit": metric["unit"]}
    problems = problems + result["problems"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": problems,
        "metrics": metrics,
        "layers": result["layers"],
        "diagnostics": values,
        "setup_samples_s": setup_samples,
    }


def run_once(benchmark, workload, seed, seconds, trace) -> dict:
    """One run of one workload: timed set-ups, measured rounds, checks.

    Set-up is timed on ``SETUPS`` fresh worker processes; the last one goes
    on to run the measured rounds.  A traced run reports no ``setup_s``, so
    it starts one worker only.
    """
    problems = ledger.verify_files(ledger.load_manifest())
    spawns = 1 if trace else SETUPS
    setup_samples = []
    for attempt in range(spawns):
        setup_s, result = _spawn(
            workload, seed, seconds, trace, setup_only=attempt < spawns - 1
        )
        setup_samples.append(setup_s)
    return assemble(
        benchmark, workload, seed, seconds, trace, result, setup_samples, problems
    )


def print_record(record: dict, benchmark: dict) -> None:
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    print(
        f"== {record['workload']}  seed={record['seed']}  "
        f"trace={record['trace']}  seconds={record['seconds']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>16.4f} {metric['unit']}")
    for name, value in record["diagnostics"].items():
        print(f"  {name:<32} {value:>16.4f} {units.get(name, '?')}  (diagnostic)")
    print(f"  {'ops_attempted':<32} {record['attempted']:>16d} count")
    print(f"  {'ops_failed':<32} {record['failed']:>16d} count")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()


def host_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def collect(benchmark, args, trace: bool, runs: int, quiet: bool = False) -> List[dict]:
    names = [args.workload] if args.workload else [w["name"] for w in benchmark["workloads"]]
    records = []
    for workload in names:
        for seed in range(args.seed, args.seed + runs):
            record = run_once(benchmark, workload, seed, args.seconds, trace)
            records.append(record)
            if quiet:
                print(
                    f"  {workload} seed={seed} trace={int(trace)} "
                    + " ".join(
                        f"{name}={metric['value']:.4f}"
                        for name, metric in record["metrics"].items()
                        if not trace
                    )
                    + ("" if record["correct"] else "  INCORRECT"),
                    file=sys.stderr,
                )
            else:
                print_record(record, benchmark)
    return records


def selfcheck(benchmark, args) -> int:
    """Two sets of runs of the same code, held against the benchmark's bounds."""
    sets: List[List[dict]] = []
    for label in "AB":
        print(f"selfcheck: set {label}", file=sys.stderr)
        sets.append(
            collect(benchmark, args, False, args.runs, quiet=True)
            + collect(benchmark, args, True, 1, quiet=True)
        )
    rows = compare.compare(sets[0], sets[1], benchmark)
    print(compare.render(rows))
    failures = [
        f"{row['workload']}/{row['metric']}: {row['verdict']}"
        for row in rows
        if row["verdict"] in ("worse", "unresolved")
    ]
    exact = {m["name"] for m in benchmark["per_layer"] if m["unit"] in EXACT_UNITS}
    traced = [{r["workload"]: r for r in records if r["trace"]} for records in sets]
    compared = 0
    for workload, record in traced[0].items():
        # Only the layers the workload crosses: the 0 of the others says nothing.
        for name in sorted(exact.intersection(record["layers"])):
            a = record["metrics"][name]["value"]
            b = traced[1][workload]["metrics"][name]["value"]
            compared += 1
            if a != b:
                failures.append(f"{workload}/{name}: exact count differs, {a} != {b}")
    print(f"exact per-layer counts compared across the two traced passes: {compared}")
    failures += [
        f"{r['workload']} seed={r['seed']} trace={r['trace']}: {'; '.join(r['problems']) or 'failed ops'}"
        for records in sets
        for r in records
        if not r["correct"]
    ]
    for failure in failures:
        print(f"SELFCHECK FAILED: {failure}")
    if args.json:
        for label, records in zip("AB", sets):
            write_json(f"{args.json}.{label}", records)
    return 1 if failures else 0


def write_json(path: str, records: List[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"host": host_facts(), "runs": records}, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    benchmark = compare.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=None, help="runs per workload (default 1; 10 for --selfcheck)")
    parser.add_argument("--json", metavar="OUT", default=None)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--repin", action="store_true")
    parser.add_argument("--force", action="store_true", help="with --repin: overwrite differing goldens")
    args = parser.parse_args(argv)
    if args.repin:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        return ledger.repin(args.force)
    try:
        if args.selfcheck:
            args.runs = args.runs or 10
            return selfcheck(benchmark, args)
        records = collect(benchmark, args, bool(args.trace), args.runs or 1)
    except WorkerFailed as error:
        print(f"perf/run.py: {error}", file=sys.stderr)
        return 1
    if args.json:
        write_json(args.json, records)
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
