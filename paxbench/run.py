#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 paxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds paxbench_driver from source (into
$CARGO_TARGET_DIR, default .bench_build), generates the workload's
inputs from the seed, runs the driver for S seconds, checks its outputs
and prints a report. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with every
end-to-end metric when --trace 0 and every per-layer metric when
--trace 1. See paxbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # Leave the source tree as checked out.

import analysis  # noqa: E402
import inputs  # noqa: E402

ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("paxbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build the driver (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no engine sources under %s/src" % ROOT)
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quietly(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quietly(["cmake", "--build", str(build_dir), "--target",
                 "paxbench_driver", "-j", jobs])
    return build_dir / "paxbench_driver"


def run_quietly(command):
    """Run a build step; its output goes to stderr only on failure."""
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("build step failed: " + " ".join(command))


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def cpu_jiffies():
    """Aggregate CPU time counters of the host (/proc/stat), or None."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor took from this machine between
    two cpu_jiffies() samples: noise to read the timings against."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total else None


def run_driver(binary, args, work_dir):
    plan = work_dir / ("plan-%s-%d.txt" % (args.workload, args.seed))
    plan.write_text(inputs.plan_text(args.workload, args.seed))
    out = work_dir / ("raw-%s-%d-%d.json" % (args.workload, args.seed,
                                             args.trace))
    command = [str(binary), args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--plan", str(plan),
               "--out", str(out)]
    before = cpu_jiffies()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if done.returncode != 0:
        fail("driver refused the run (exit %d)" % done.returncode)
    raw = json.loads(out.read_text())
    steal = steal_share(before, cpu_jiffies())
    if steal is not None:
        raw["host"]["cpu_steal"] = "%.1f%%" % (100 * steal)
    return raw


def report(args, raw, metrics):
    """Human-readable report: host block, metrics with units and
    sample counts, correctness, and for traced runs the span table."""
    info = analysis.WORKLOADS[args.workload]
    host = dict(raw["host"], git=git_sha())
    print("paxbench %s  seed=%d  seconds=%g  trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host: " + "  ".join("%s=%s" % kv for kv in sorted(host.items())))
    print("operation: %s; repetition: %s" % (info["op"], info["rep"]))
    if not args.trace:
        ops = raw["op_ms"]
        for name, unit, _ in analysis.END_TO_END:
            value, n = metrics[name]
            alias = info["names"].get(name, name)
            note = ""
            if name == "op_ms_p95":
                q = analysis.highest_supported_quantile(ops)
                note = "  (%d beyond%s; p with %d beyond: %s)" % (
                    analysis.samples_beyond(ops, 0.95),
                    "" if analysis.tail_supported(ops, 0.95) else
                    ", too few", analysis.TAIL_SAMPLES,
                    "p%g" % (100 * q) if q else "none")
            print("  %-17s %-18s %14.6g %-5s n=%d%s" % (
                name, alias, value, unit, n, note))
    else:
        for name, unit, _ in analysis.PER_LAYER:
            value = metrics[name]
            shown = "%14.6g" % value if value else "%14s" % "n/a"
            print("  %-37s %s %s" % (name, shown, unit))
        serial = raw["serial"]
        if serial.get("steps"):
            print("  w=0 reference: " + "  ".join(
                "%s %.3f ms/step" % (layer, serial.get(key, 0) * 1e3 /
                                     serial["steps"])
                for layer, key, _ in analysis.PHASES))
        if serial.get("updates"):
            print("  w=0 reference: update %.3f ms (mean of %d)" % (
                serial["update_s"] * 1e3 / serial["updates"],
                serial["updates"]))
        print("  spans: %-34s %7s %12s %12s" % ("name", "count", "total ms",
                                                "self ms"))
        for name, (count, total, own) in sorted(
                analysis.span_table(raw["spans"]).items()):
            print("         %-34s %7d %12.3f %12.3f" % (name, count, total,
                                                        own))
    failed, attempted = raw["failed"], raw["attempted"]
    print("  failed_frac = %d/%d = %.6g%s" % (
        failed, attempted, failed / attempted if attempted else 0.0,
        "   digest=" + raw["digest"] if raw["digest"] else ""))
    for failure in raw["failures"]:
        print("  FAILED: " + failure)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(analysis.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "paxbench"
    binary = build(build_dir)
    raw = run_driver(binary, args, build_dir)

    if args.trace:
        metrics = analysis.per_layer(raw)
        units = {n: u for n, u, _ in analysis.PER_LAYER}
        values = {n: {"value": metrics[n], "unit": units[n]}
                  for n, _, _ in analysis.PER_LAYER}
    else:
        metrics = analysis.end_to_end(raw)
        values = {n: {"value": metrics[n][0], "unit": u}
                  for n, u, _ in analysis.END_TO_END}
    report(args, raw, metrics)
    attempted = max(1, raw["attempted"])
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": attempted,
                      "failed": raw["failed"],
                      "metrics": values}))


if __name__ == "__main__":
    main()
