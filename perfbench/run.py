#!/usr/bin/env python3
"""Build and run the NetCut end-to-end benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <serve_stress|serve_drift|netcut> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs one measurement, and relays its output. The
last stdout line is the JSON result. The exit code is the benchmark's own
(1 when a correctness check failed), or 3 when the build fails and 4 when a
step times out; neither of those prints a result. With `--trace 1` the
recorded spans are written to
`<target dir>/perfbench-trace-<workload>-<seed>.jsonl`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve_stress", "serve_drift", "netcut")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the whole
    group and waits for it. Returns (returncode, stdout) or None on
    timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")

    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(manifest):
        print("perfbench: run from the root of the source checkout", file=sys.stderr)
        return 3
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if build is None or build[0] != 0:
        why = "timed out" if build is None else f"failed with code {build[0]}"
        print(f"perfbench: build {why}", file=sys.stderr)
        return 3 if build is not None else 4

    cmd = [
        os.path.join(target, "release", "netcut-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--trace-out", os.path.join(target, f"perfbench-trace-{args.workload}-{args.seed}.jsonl")]
    result = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if result is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    code, out = result
    lines = out.splitlines()
    try:
        last = json.loads(lines[-1])
        if set(last) != RESULT_KEYS:
            raise ValueError(f"result keys {sorted(last)}")
    except (IndexError, ValueError) as e:
        sys.stdout.write(out)
        print(f"perfbench: no valid result line ({e})", file=sys.stderr)
        return code or 5
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
