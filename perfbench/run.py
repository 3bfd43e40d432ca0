#!/usr/bin/env python3
"""Builds the simulator libraries and the benchmark program, then runs one
workload and passes the program's output through.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The build lands in `.bench_build/perfbench-release`
(or under $CARGO_TARGET_DIR when set). The last line of stdout is the
result JSON; build logs go to stderr. For the default seed the stored
fingerprint in `expected.json` is enforced.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BENCHMARK.json lists the first four. ec_repair fails its correctness gate
# until the simulator stops losing writes that run beside an EC rebuild
# (see README.md); it stays runnable so the defect can be reproduced.
WORKLOADS = ("mixed_fio", "ec_rmw", "tenant_overload", "fleet_sharded",
             "ec_repair")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench-release"


def build() -> Path:
    """Configures (once) and builds; returns the benchmark binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: simulator sources (src/) not found")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def expected(workload: str, seed: int):
    data = json.loads((HERE / "expected.json").read_text())
    if seed != data["seed"]:
        return None
    return data["fingerprints"].get(workload)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    want = expected(args.workload, args.seed)
    if want is not None:
        cmd += ["--expect", want]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
