#!/usr/bin/env python3
"""Builds the coordinator benchmark from source and runs one workload.

Run from the repository root:

    python3 coordbench/run.py --workload fb-saath --seed 1 --seconds 12 --trace 0

The library and the benchmark are built with CMake into .bench_build/
(or $CARGO_TARGET_DIR when set); the last stdout line is the result JSON.
Build output goes to stderr.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fb-saath", "stream-saath", "fb-uctcp", "svc-saath")


def source_id():
    """Commit id when run inside git, else a digest of the source tree."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for sub in ("src", "coordbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    h.update((ROOT / "CMakeLists.txt").read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
        ["cmake", "--build", str(build_dir), "--target", "coordbench",
         "-j", jobs],
    ]
    if (build_dir / "CMakeCache.txt").exists():
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("coordbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "sim" / "engine.h").is_file():
        sys.exit("coordbench: no Saath source tree next to " + str(HERE))
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "coordbench"
    build(build_dir)

    cmd = [str(build_dir / "coordbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative, so Unix socket paths stay short in deep checkouts.
           "--out-dir", os.path.relpath(build_dir / "out", ROOT),
           "--commit", source_id()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("coordbench: run exceeded 170 s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
