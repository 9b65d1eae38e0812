#!/usr/bin/env python3
"""Runs one workload of the MDV benchmark and prints its result line.

    python3 perfbench/run.py --workload publish_query --seed 1 \
        --seconds 20 --trace 0 [--scale small]

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the repository's src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. Each run gets a directory under .bench_runs/
holding the program's log (mdv.log.gz), its stdout/stderr, the detailed
report (report.json) and the run record (record.json: source revision,
build type, compiler, CPUs, cgroup CPU quota, seed, run length, time).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import datetime
import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("publish_query", "restart_rejoin")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def configured_for_here(cache):
    """Whether an existing CMake cache was configured from this checkout."""
    try:
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return Path(line.split("=", 1)[1]).resolve() == HERE
    except OSError:
        pass
    return False


def build():
    """Configures (once) and builds mdv_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"the repository's sources are not at {ROOT / 'src'}")
    out = build_dir()
    if (out / "CMakeCache.txt").exists() and \
            not configured_for_here(out / "CMakeCache.txt"):
        shutil.rmtree(out)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(log_path, "w") as log:
        if not (out / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                stdout=log, stderr=subprocess.STDOUT)
            if configure.returncode != 0:
                shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"configure failed, see {log_path}")
        jobs = str(len(os.sched_getaffinity(0)))
        result = subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                                stdout=log, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        fail(f"build failed, see {log_path}")
    return out / "mdv_perfbench"


def source_digest():
    """SHA-256 over the sources mdv_perfbench is built from."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def cgroup_cpu_quota():
    for path in ("/sys/fs/cgroup/cpu.max",
                 "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            continue
    return None


def compiler():
    cache = build_dir() / "CMakeCache.txt"
    try:
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1]
                version = subprocess.run([cxx, "--version"],
                                         capture_output=True, text=True)
                return version.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    args = parser.parse_args()

    binary = build()
    stamp = datetime.datetime.now(datetime.timezone.utc)
    run_dir = ROOT / ".bench_runs" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-"
        f"{stamp.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale,
               "--run-dir", str(run_dir)]
    with open(run_dir / "stdout.txt", "w") as out, \
            open(run_dir / "stderr.txt", "w") as err:
        try:
            # Flight-recorder dumps (e.g. a frame dead-lettered while an
            # LMR is down in the restart phase) land in the run directory.
            proc = subprocess.run(command, stdout=out, stderr=err,
                                  timeout=RUN_TIMEOUT_S,
                                  env={**os.environ,
                                       "MDV_FLIGHT_DIR": str(run_dir)})
        except subprocess.TimeoutExpired:
            fail(f"run timed out, see {run_dir}")
    log = run_dir / "mdv.log"
    if log.exists():
        with open(log, "rb") as src, gzip.open(f"{log}.gz", "wb") as dst:
            shutil.copyfileobj(src, dst)
        log.unlink()
    shutil.rmtree(run_dir / "restart", ignore_errors=True)
    shutil.rmtree(run_dir / "scratch", ignore_errors=True)

    lines = (run_dir / "stdout.txt").read_text().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write((run_dir / "stderr.txt").read_text())
        fail(f"run failed with exit code {proc.returncode}, see {run_dir}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line, see {run_dir}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "timestamp": stamp.isoformat(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": "Release",
        "compiler": compiler(),
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "result": result,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
