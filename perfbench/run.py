#!/usr/bin/env python3
"""End-to-end pipeline benchmark runner (see perfbench/README.md).

Builds perfbench/ -- which builds the fghp libraries from the repository
root -- into .bench_build/, then runs one workload in one fghp_e2e process:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The last line of a workload run's stdout is its result JSON. --smoke runs
every workload at reduced scale, untraced and traced, and checks that each
metric BENCHMARK.json names is reported with its unit and that no operation
failed.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "fghp_e2e"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; the log goes to a file."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no fghp sources next to {BENCH_DIR.name}/ (need CMakeLists.txt and src/)")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "fghp_e2e", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}")


def source_id():
    """Git commit when available, plus a digest of the sources built."""
    commit = "no-git"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")),
             *sorted(BENCH_DIR.rglob("*"))]
    for f in files:
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return f"{commit}+src-sha256:{h.hexdigest()[:12]}"


def e2e_cmd(workload, seed, seconds, trace, ident):
    return [str(EXE), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(BUILD / "work"), "--commit", ident]


def smoke(ident):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            tag = f"{w['name']} trace={trace}"
            try:
                r = subprocess.run([*e2e_cmd(w["name"], 1, 1, trace, ident), "--smoke"],
                                   stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                problems.append(f"{tag}: no result within {RUN_TIMEOUT_S} s")
                continue
            lines = r.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{tag}: exit {r.returncode}, no result line")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: audit failed ({result['failed']} of "
                                f"{result['attempted']} operations)")
            got = result["metrics"]
            for m in wanted[trace]:
                if m["name"] not in got:
                    problems.append(f"{tag}: metric {m['name']} missing")
                elif got[m["name"]].get("unit") != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} has unit "
                                    f"{got[m['name']].get('unit')!r}, expected {m['unit']!r}")
            extra = set(got) - {m["name"] for m in wanted[trace]}
            if extra:
                problems.append(f"{tag}: unexpected metrics {sorted(extra)}")
            print(f"smoke {tag}: {result['attempted']} operations, {result['failed']} failed, "
                  f"{len(got)} metrics")
    for p in problems:
        print(f"smoke FAILED: {p}", file=sys.stderr)
    print("smoke: OK" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at reduced scale and check the report")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    build()
    ident = source_id()
    if args.smoke:
        return smoke(ident)
    # The workload process replaces this one: its output and exit code are
    # the run's, and no child outlives the runner.
    sys.stdout.flush()
    os.execv(EXE, e2e_cmd(args.workload, args.seed, args.seconds, args.trace, ident))


if __name__ == "__main__":
    sys.exit(main())
