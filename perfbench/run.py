#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload offline|serve_hot|serve_churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds (CMake, Release) the incflat library,
the incflatd daemon and the measuring program from this tree's sources into
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed.  Build output goes to stderr.  The last line of stdout is the JSON
result of the run.  --selftest builds and runs the benchmark's helper tests
and checks the metric catalog against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline", "serve_hot", "serve_churn")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else Path.cwd() / d


def build(bdir: Path, targets) -> None:
    """Configure once, then build the targets; raises on failure."""
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)


SOURCES = ("src", "tools", "perfbench")


def sources_digest() -> str:
    h = hashlib.sha256()
    for sub in SOURCES:
        base = ROOT / sub
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def source_id() -> str:
    """The git commit when there is one, else a digest of the sources.  A
    commit whose sources differ in the working tree gets "-dirty" and the
    digest appended, so that a run of an uncommitted change is not taken
    for a run of its parent."""
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            status = subprocess.run(["git", "-C", str(ROOT), "status",
                                     "--porcelain", "--", *SOURCES],
                                    capture_output=True, text=True,
                                    timeout=10)
            if status.returncode == 0 and not status.stdout.strip():
                return "git:" + lines[1]
            return "git:" + lines[1] + "-dirty+" + sources_digest()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return sources_digest()


def selftest(bdir: Path) -> int:
    build(bdir, ["perfbench", "perfbench_tests"])
    tests = subprocess.run([str(bdir / "perfbench_tests")])
    listed = subprocess.run([str(bdir / "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True)
    catalog = {"end_to_end": [], "per_layer": []}
    for line in listed.stdout.splitlines():
        kind, name, unit = line.split()
        catalog[kind].append((name, unit))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = tests.returncode == 0
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from", WORKLOADS)
        ok = False
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != catalog[kind]:
            print(f"{kind}: BENCHMARK.json and perfbench --list-metrics "
                  f"differ:\n  json only: {set(declared) - set(catalog[kind])}"
                  f"\n  catalog only: {set(catalog[kind]) - set(declared)}")
            ok = False
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    bdir = build_dir()
    try:
        if args.selftest:
            return selftest(bdir)
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        build(bdir, ["perfbench", "incflatd"])
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Relative to the working directory: the daemon's unix socket lives in
    # the output directory and socket paths are limited to 107 bytes.
    out_dir = os.path.relpath(bdir / "perfbench-out")
    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--daemon", str(bdir / "tools" / "incflatd"),
           "--out-dir", out_dir, "--source-id", source_id()]
    # Own process group, so that a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
