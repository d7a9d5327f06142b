#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository. The binary is
built with cargo into $CARGO_TARGET_DIR (default `.bench_build` at the
repository root). With `--trace 0`, set-up time is also sampled in
extra processes that stop after set-up, half of them before the
measured run and half after, and `setup_s` is the median over those and
the measured run: a load burst on the host then moves few samples. The
binary's lines are passed through; the last line printed is the result
object, whose metric names and units are checked against BENCHMARK.json
before it is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# Extra processes per run whose set-up time is sampled, before and after
# the measured run. Set-up takes tens of milliseconds, so a single sample
# jitters by a fifth.
SETUP_SAMPLES_EACH_SIDE = 5
# Child processes are bounded so that a stuck one cannot stall the run.
SETUP_TIMEOUT_S = 30
RUN_SLACK_S = 60


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def expected_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    here = Path(__file__).resolve().parent
    root = here.parent
    for crate in ("model", "runtime", "agreement", "tasks", "core"):
        if not (root / "crates" / crate / "Cargo.toml").is_file():
            return fail(f"crates/{crate} not found under {root}: run inside a repository checkout")

    target = Path(os.environ.get("CARGO_TARGET_DIR", root / ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(here / "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed", build.returncode)

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", str(root / ".bench_build" / "perfbench-run"),
    ]
    trace = args.trace == "1"

    def sample_setups():
        out = []
        for _ in range(0 if trace else SETUP_SAMPLES_EACH_SIDE):
            probe = subprocess.run(cmd + ["--setup-only"], cwd=root, capture_output=True,
                                   text=True, timeout=SETUP_TIMEOUT_S)
            if probe.returncode != 0:
                sys.stderr.write(probe.stderr)
                return None
            out.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
        return out

    setups = sample_setups()
    if setups is None:
        return fail("set-up sample failed")
    measured = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    if measured.returncode != 0:
        return fail("benchmark run failed", measured.returncode)
    lines = measured.stdout.strip().splitlines()
    result = json.loads(lines[-1])

    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected_metrics(root, trace):
        return fail(f"metrics disagree with BENCHMARK.json: {sorted(units)}", 3)
    if not trace:
        after = sample_setups()
        if after is None:
            return fail("set-up sample failed")
        setup = result["metrics"]["setup_s"]
        setups += [setup["value"]] + after
        setup["value"] = statistics.median(setups)
        print(json.dumps({"setup_s_samples": setups}))

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
