#!/usr/bin/env python3
"""Builds the tpubench harness from source and runs one workload.

Usage (from the root of a checkout):

    python3 tpubench/run.py --workload serve_poisson --seed 1 --seconds 10 --trace 0

The harness is configured and built into $CARGO_TARGET_DIR/tpubench (default
.bench_build/tpubench) on first use; later runs only re-check the build. Build
output goes to stderr so that the last line of stdout stays the harness's JSON
result. The exit code is the harness's: nonzero when an output check fails or
the environment pins a non-default backend, precision, plan or fault setting.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def source_digest():
    """Commit id for provenance: git HEAD when available, else a hash of the
    sources the harness is built from (library and harness)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE / "src"):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "--target", "tpubench",
                 "-j", "4"]):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("tpubench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    if not (ROOT / "src").is_dir():
        sys.exit("tpubench: no library sources next to the benchmark "
                 f"({ROOT / 'src'} is missing)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "tpubench"
    # Compiler temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = str(build_dir / "tmp")
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        build(build_dir)

    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "tpubench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--work-dir", str(work_dir), "--commit", source_digest()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
