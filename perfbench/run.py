#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <batch_100k|served_wall|durable_resume>
                             --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package with path dependencies on the
repository's crates) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the `perfbench` binary with the same
arguments from the checkout root, and relays its output. The binary's
last line of standard output is the JSON result; this script checks that
its metric names and units are exactly those `BENCHMARK.json` lists for
the trace mode, and exits non-zero without a result when the build, the
run or that check fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    return 1


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    for needed in ("Cargo.toml", "crates/core/Cargo.toml", "crates/serve/Cargo.toml", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail(f"{needed} not found: run from a full checkout of the repository")
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail(f"cargo build failed ({build.returncode})")

    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [exe] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as e:
        out = e.stdout or b""
        sys.stdout.write(out.decode(errors="replace") if isinstance(out, bytes) else out)
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if run.returncode != 0:
        # A failed output check still prints its result, with
        # "correct": false; bad arguments print none.
        if lines[-1].startswith("{"):
            print(lines[-1])
        return fail(f"run failed ({run.returncode}): an output check failed or the arguments were bad")

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return fail(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}, units {units}")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
