#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 mvccbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark program is built with CMake into
$CARGO_TARGET_DIR/mvccbench (default .bench_build/mvccbench), its self-test
runs, and then:

  --trace 0  one untraced run; prints every end-to-end metric of
             BENCHMARK.json.
  --trace 1  an untraced reference run and a traced run with the same seed;
             prints every per-layer metric of BENCHMARK.json, including the
             tracing overhead (traced vs untraced end-to-end numbers).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A human-readable report goes to stderr.
Any failure (build, self-test, a metric without enough samples, timeout)
exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DEADLINE_S = 170  # every run must end within 180 s, build excluded
BUILD_TIMEOUT_S = 850

# Tracing overhead: the end-to-end metrics compared between the untraced
# reference run and the traced run, and whether a rise or a fall is cost.
OVERHEAD = {
    "commit_mops": "higher",
    "read_mops": "higher",
    "read_p50_us": "lower",
    "cpu_us_per_op": "lower",
}


def fail(msg):
    print(f"mvccbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "include" / "mvcc" / "txn" / "batching.h").is_file():
        fail(f"library headers not found under {ROOT / 'include'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "mvccbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "2"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail("build failed")
    return build_dir, build_dir / "mvccbench"


def run(binary, args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time")
    try:
        r = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run timed out: {' '.join(args)}")
    if r.returncode != 0:
        fail(f"run failed with code {r.returncode}: {' '.join(args)}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    return json.loads(lines[-1])


def pick(result, specs, extra):
    """The metrics named in `specs`, from the run's output or `extra`."""
    out = {}
    for spec in specs:
        name = spec["name"]
        m = extra.get(name) or result["metrics"].get(name)
        if m is None or m.get("value") is None:
            n = (m or {}).get("samples")
            fail(f"metric {name} not reportable"
                 + (f" ({n} samples)" if n is not None else ""))
        if m["unit"] != spec["unit"]:
            fail(f"metric {name}: unit {m['unit']} != {spec['unit']}")
        out[name] = {"value": m["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {names}")

    build_dir, binary = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        subprocess.run([str(binary), "--self-test"], check=True,
                       stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired):
        fail("self-test failed")

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    if args.trace == 0:
        res = run(binary, common + ["--trace", "0"], deadline)
        metrics = pick(res, bench["end_to_end"], {})
    else:
        ref = run(binary, common + ["--trace", "0", "--setup-reps", "1"],
                  deadline)
        spans = build_dir / f"spans-{args.workload}-{args.seed}.csv"
        res = run(binary, common + ["--trace", "1", "--setup-reps", "1",
                                    "--spans", str(spans)], deadline)
        extra = {}
        print("tracing overhead (traced vs untraced, + = cost):",
              file=sys.stderr)
        for name, better in OVERHEAD.items():
            u = ref["metrics"][name]["value"]
            t = res["metrics"][name]["value"]
            cost = (1 - t / u) if better == "higher" else (t / u - 1)
            extra[f"trace.overhead.{name}"] = {"value": cost, "unit": "frac"}
            print(f"  {name:<20} untraced {u:12.4f}  traced {t:12.4f}  "
                  f"cost {cost:+.3f}", file=sys.stderr)
        # A latency demoted from end_to_end (too noisy to gate on) stays a
        # per-layer diagnostic named e2e.<metric>, read from the untraced run.
        for spec in bench["per_layer"]:
            if spec["name"].startswith("e2e."):
                extra[spec["name"]] = ref["metrics"].get(spec["name"][4:])
        metrics = pick(res, bench["per_layer"], extra)
        print("per layer, over the window's traced client ops (ms):",
              file=sys.stderr)
        print(f"  {'layer':<8}{'spans':>10}{'busy':>12}{'self':>12}"
              f"{'waited':>12}{'blocking share':>16}", file=sys.stderr)
        for name, layer in res["layers"].items():
            share = res["metrics"][f"{name}.blocking_share"]["value"]
            print(f"  {name:<8}{layer['spans']:>10}"
                  f"{layer['busy_ns'] / 1e6:>12.1f}"
                  f"{layer['self_ns'] / 1e6:>12.1f}"
                  f"{layer['waited_ns'] / 1e6:>12.1f}{share:>16.3f}",
                  file=sys.stderr)
        print("replay: " + json.dumps(res["replay"]), file=sys.stderr)

        for key in ("checks_made", "checks_failed"):
            res[key] += ref[key]

    made, failed = res["checks_made"], res["checks_failed"]
    print(f"checks: {made} made, {failed} failed; config: "
          + json.dumps(res["config"]), file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and made > 0,
                      "attempted": made, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
