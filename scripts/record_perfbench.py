#!/usr/bin/env python3
"""Record perfbench runs as lines of BENCH_perfbench.json, or check those lines.

Record one run (from the repository root):

    python3 scripts/record_perfbench.py --workload engine-bulk --seed 201 \\
        --side change --trace 0 [--checkout DIR] [--out FILE]

This runs DIR/perfbench/run.py (DIR defaults to this repository; point it at
a clone of the parent commit to record the parent side of a pair) for
BENCHMARK.json's run_seconds, and appends its result to FILE (default
BENCH_perfbench.json here) as one JSON line carrying workload, seed, commit,
host_threads, side, traced and seconds next to the result's attempted,
failed, correct and metric values.  A run that fails or answers wrong
appends nothing and exits non-zero.

"seconds" is the --seconds value run.py was given, which is run_seconds.  A
traced run spends the first half of it untraced and the second half traced,
so its per-layer metrics come from run_seconds / 2 of traffic.  Traced lines
recorded by hand before this script existed store that traced half instead
(15.0 where run_seconds is 30).

Check every recorded line:

    python3 scripts/record_perfbench.py --check [FILE]

A line fails the check when it lacks one of the keys above, when its
"correct" is not true, when it names a metric outside BENCHMARK.json's
end_to_end list (untraced lines) or per_layer list (traced lines), or when
its seconds is not run_seconds (or, on a traced line, run_seconds / 2).
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
REQUIRED = ["workload", "seed", "commit", "host_threads", "side", "traced", "seconds", "correct", "metrics"]


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check(path):
    spec = benchmark()
    allowed = {traced: {m["name"] for m in spec[key]} for traced, key in [(0, "end_to_end"), (1, "per_layer")]}
    run_seconds = spec["run_seconds"]
    lengths = {0: [run_seconds], 1: [run_seconds, run_seconds / 2]}
    errors = []
    lines = path.read_text().splitlines()
    for number, text in enumerate(lines, 1):
        try:
            line = json.loads(text)
        except ValueError as e:
            errors.append(f"{path}:{number}: not JSON ({e})")
            continue
        missing = [key for key in REQUIRED if key not in line]
        if missing:
            errors.append(f"{path}:{number}: missing {', '.join(missing)}")
            continue
        if line["correct"] is not True:
            errors.append(f"{path}:{number}: correct is {line['correct']!r}")
        if line["traced"] not in allowed:
            errors.append(f"{path}:{number}: traced is {line['traced']!r}, not 0 or 1")
            continue
        unknown = sorted(set(line["metrics"]) - allowed[line["traced"]])
        if unknown:
            errors.append(f"{path}:{number}: metrics not in BENCHMARK.json: {', '.join(unknown)}")
        if line["seconds"] not in lengths[line["traced"]]:
            errors.append(f"{path}:{number}: seconds is {line['seconds']!r}, not run_seconds {run_seconds}")
    for error in errors:
        print(error, file=sys.stderr)
    print(f"{path}: {len(lines)} lines, {len(errors)} problems")
    return 1 if errors else 0


def record(a):
    checkout = pathlib.Path(a.checkout).resolve()
    seconds = float(benchmark()["run_seconds"])
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(seconds), "--trace", str(a.trace)]
    run = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        print(f"record_perfbench: run.py exited with code {run.returncode}", file=sys.stderr)
        return 1
    *described, last = [json.loads(text) for text in run.stdout.splitlines()]
    start = next(d for d in described if d.get("kind") == "start")
    summary = [d for d in described if d.get("kind") == "summary"][-1]
    line = {
        "bench": "perfbench",
        "workload": a.workload,
        "seed": a.seed,
        "commit": start["commit"],
        "host_threads": start["host_threads"],
        "side": a.side,
        "traced": a.trace,
        "seconds": seconds,
        "attempted": last["attempted"],
        "failed": last["failed"],
        "correct": last["correct"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "setup_once_s": summary["setup_once_s"],
    }
    with open(a.out, "a") as out:
        out.write(json.dumps(line) + "\n")
    print(json.dumps(line))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", nargs="?", const=str(ROOT / "BENCH_perfbench.json"), metavar="FILE")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--side", choices=["parent", "change"])
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--checkout", default=str(ROOT))
    parser.add_argument("--out", default=str(ROOT / "BENCH_perfbench.json"))
    a = parser.parse_args()
    if a.check:
        return check(pathlib.Path(a.check))
    if None in (a.workload, a.seed, a.side, a.trace):
        parser.error("recording needs --workload, --seed, --side and --trace")
    return record(a)


if __name__ == "__main__":
    sys.exit(main())
