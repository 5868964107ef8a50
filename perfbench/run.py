#!/usr/bin/env python3
"""Build and run the plis benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workloads and metrics are listed in BENCHMARK.json.  The script builds
the benchmark package (perfbench/Cargo.toml, release profile) into
$CARGO_TARGET_DIR, default .bench_build, then runs it:

* --trace 0 runs the untraced binary and reports the end-to-end metrics;
* --trace 1 runs the untraced binary for half of --seconds, then the traced
  binary (counting allocator, per-call timers) for the other half, and
  reports the per-layer metrics, including trace_overhead: the traced
  op_p50_us over the untraced one, minus 1.

Every line before the last describes the run (workload, seed, commit, host
threads, profile, sample counts).  The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A wrong answer aborts the run with a non-zero exit code and no result line.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Each run must end within 180 s once built; leave room to exit.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def commit_id():
    """The git revision when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    digest = hashlib.sha1()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            rel = path.relative_to(ROOT)
            if "target" in rel.parts or "__pycache__" in rel.parts:
                continue
            digest.update(str(rel).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def build():
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    return target / "release"


def run_binary(binary, args, deadline):
    """Run one benchmark binary; forward its description lines and return
    its parsed result line."""
    proc = subprocess.Popen([str(binary)] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{binary.name} ran past its time budget")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{binary.name} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{binary.name} printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
        fail(f"{binary.name} printed a malformed or incorrect result")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no plis sources next to {HERE.name}/; run from a full checkout")
    bench = spec()
    if a.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {a.workload!r}")
    wanted = [m["name"] for m in bench["per_layer" if a.trace else "end_to_end"]]

    release = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", a.workload, "--seed", str(a.seed), "--commit", commit_id()]
    if a.trace:
        half = str(a.seconds / 2)
        base = run_binary(release / "perfbench", common + ["--seconds", half], deadline)
        p50 = base["metrics"]["op_p50_us"]["value"]
        result = run_binary(
            release / "perfbench-traced",
            common + ["--seconds", half, "--baseline-op-p50-us", repr(p50)],
            deadline,
        )
        result["attempted"] += base["attempted"]
        result["failed"] += base["failed"]
    else:
        result = run_binary(release / "perfbench", common + ["--seconds", str(a.seconds)], deadline)

    if list(result["metrics"]) != wanted:
        fail("result metrics differ from BENCHMARK.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
