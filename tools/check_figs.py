#!/usr/bin/env python3
"""Smoke driver for the figure-reproduction pipeline.

Discovers every `bench_fig*` binary registered in bench/CMakeLists.txt,
runs each one at a tiny scene scale with the threaded sweep enabled
(--scale and --sim-lanes, both handled by the shared harness — see
docs/SIMULATOR.md), and fails if

- a registered fig bench has no built binary in the bench dir,
- any bench exits nonzero (or crashes / times out), or
- any BENCH_*.json a bench writes is not valid JSON.

This is a liveness gate, not a numbers gate: it proves every figure in
EXPERIMENTS.md can still be regenerated end-to-end, in seconds. The
exit code is the number of failing benches (0 = pass), so CMake
registers it directly as the `check_figs` test (check-figs preset).

Run: python3 tools/check_figs.py <bench-binary-dir>
         [--cmake=bench/CMakeLists.txt] [--scale=0.05]
         [--sim-lanes=2] [--timeout=120]
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_RE = re.compile(r"pax_add_bench\((bench_fig[a-z0-9_]+)\)")


def registered_fig_benches(cmake: Path) -> list[str]:
    return sorted(set(BENCH_RE.findall(cmake.read_text(encoding="utf-8"))))


def run_bench(binary: Path, scale: float, lanes: int,
              timeout: float) -> list[str]:
    """Run one bench in a scratch dir; return its failure messages."""
    with tempfile.TemporaryDirectory(prefix=binary.name) as scratch:
        try:
            proc = subprocess.run(
                [str(binary), f"--scale={scale}", f"--sim-lanes={lanes}"],
                cwd=scratch, timeout=timeout,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        except subprocess.TimeoutExpired:
            return [f"{binary.name}: timed out after {timeout:.0f}s"]
        if proc.returncode != 0:
            tail = proc.stdout.decode(errors="replace").strip()
            tail = tail[-400:] if tail else "(no output)"
            return [f"{binary.name}: exit code {proc.returncode}\n{tail}"]
        errors = []
        for out in sorted(Path(scratch).glob("*.json")):
            try:
                json.loads(out.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                errors.append(f"{binary.name}: malformed {out.name}: {exc}")
        return errors


def main() -> int:
    bench_dir = None
    cmake = None
    scale, lanes, timeout = 0.05, 2, 120.0
    for arg in sys.argv[1:]:
        if arg.startswith("--cmake="):
            cmake = Path(arg.split("=", 1)[1])
        elif arg.startswith("--scale="):
            scale = float(arg.split("=", 1)[1])
        elif arg.startswith("--sim-lanes="):
            lanes = int(arg.split("=", 1)[1])
        elif arg.startswith("--timeout="):
            timeout = float(arg.split("=", 1)[1])
        else:
            # Resolve now: benches run from a scratch working dir.
            bench_dir = Path(arg).resolve()
    if bench_dir is None:
        print(__doc__)
        return 1
    if cmake is None:
        cmake = Path(__file__).resolve().parent.parent / "bench" / \
            "CMakeLists.txt"

    benches = registered_fig_benches(cmake)
    if not benches:
        print(f"check_figs: no bench_fig* registered in {cmake}")
        return 1

    failures = []
    for name in benches:
        binary = bench_dir / name
        if not binary.exists():
            failures.append(f"{name}: binary not found in {bench_dir}")
            continue
        errors = run_bench(binary, scale, lanes, timeout)
        failures.extend(errors)
        print(f"check_figs: {name}: {'FAIL' if errors else 'ok'}")
    for failure in failures:
        print(f"check_figs: {failure}")
    print(f"check_figs: {len(benches)} benches, {len(failures)} failures "
          f"(scale={scale}, sim-lanes={lanes})")
    return min(len(failures), 125)


if __name__ == "__main__":
    sys.exit(main())
