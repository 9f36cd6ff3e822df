#!/usr/bin/env python3
"""Simulator benchmark: build, run one workload, check it, report.

    python3 simbench/run.py --workload NAME [--seed N] [--seconds S]
                            [--trace 0|1]

Run from the root of a checkout. The first run configures and builds
simbench/ (the repository's libraries plus the simbench binary, Release)
into .bench_build/; later runs only rebuild what changed. The binary
times the workload and prints its metrics; this script checks the run's
fingerprint against simbench/golden.json (or, for a seed without a
golden value, against the per-cycle reference loop run by the binary),
checks the metric names against BENCHMARK.json, records the host, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the spans of a traced run are written to
.bench_build/traces/. The exit code is 0 only when every op passed.

    python3 simbench/run.py --write-golden [SEED ...]

recomputes the golden fingerprints (per-cycle reference loop for the
machine workloads, the first batch's baseline hash for fuzz_campaign).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "simbench"
GOLDEN = BENCH_DIR / "golden.json"
MACHINE_WORKLOADS = ("barrier_dense", "private_compute", "wide_machine")
WORKLOADS = MACHINE_WORKLOADS + ("fuzz_campaign",)
# Seeds the golden file covers besides each workload's default and
# held-out seed.
GOLDEN_SEEDS = range(0, 41)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; exit 1 on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simulator sources at {ROOT / 'src'}; run from a full checkout")
        sys.exit(2)
    cache = BUILD_DIR / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}"
    if cache.is_file() and home not in cache.read_text(errors="replace"):
        shutil.rmtree(BUILD_DIR)  # configured for another checkout path
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "simbench",
                  "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def source_revision():
    """Git revision when the checkout is a git tree, else a digest of
    the sources the binary is built from."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text().strip()
        return ref
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "source-sha256:" + digest.hexdigest()[:16]


def run_binary(args):
    """Run the simbench binary; return (exit code, stdout lines)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"simbench timed out after {RUN_TIMEOUT_S} s")
        sys.exit(1)
    return proc.returncode, proc.stdout.splitlines()


def load_golden():
    return json.loads(GOLDEN.read_text())


def write_golden(seeds):
    golden = load_golden()
    prints = golden.setdefault("fingerprints", {})
    for workload in WORKLOADS:
        table = prints.setdefault(workload, {})
        marked = golden["seeds"][workload]
        for seed in sorted(set(seeds) | {marked["default"],
                                         marked["held_out"]}):
            workdir = BUILD_DIR / "work" / f"golden-{workload}"
            code, lines = run_binary(
                ["--workload", workload, "--seed", str(seed), "--seconds",
                 "1", "--workdir", str(workdir), "--reference-only"])
            ref = json.loads(lines[-1])["reference_fingerprint"]
            if code != 0 or not ref or ref.startswith("failed"):
                log(f"{workload} seed {seed}: reference failed: {ref}")
                sys.exit(1)
            table[str(seed)] = ref
            print(f"{workload} seed {seed}: {ref}", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", nargs="*", type=int, metavar="SEED")
    opts = parser.parse_args()

    build()
    if opts.write_golden is not None:
        write_golden(opts.write_golden or list(GOLDEN_SEEDS))
        return 0
    if opts.workload is None:
        parser.error("--workload is required")

    golden = load_golden()
    seed = opts.seed
    if seed is None:
        seed = golden["seeds"][opts.workload]["default"]
    expected = golden["fingerprints"].get(opts.workload, {}).get(str(seed))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if opts.trace else "end_to_end"]

    workdir = BUILD_DIR / "work" / f"{opts.workload}-{os.getpid()}"
    args = ["--workload", opts.workload, "--seed", str(seed), "--seconds",
            str(opts.seconds), "--trace", str(opts.trace), "--workdir",
            str(workdir)]
    if opts.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out",
                 str(traces / f"{opts.workload}-seed{seed}.json")]
    if expected is None and opts.workload in MACHINE_WORKLOADS:
        args.append("--reference")
    code, lines = run_binary(args)
    shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not lines:
        log(f"simbench exited with code {code}")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    attempted = result["attempted"]
    failed = result["failed"]
    problems = []
    if result["first_failure"]:
        problems.append(result["first_failure"])
    if expected is not None:
        source = "golden.json"
    elif result["reference_fingerprint"]:
        expected = result["reference_fingerprint"]
        source = "per-cycle reference run"
    else:
        source = None
    if source is None:
        print(f"fingerprint: {result['fingerprint']} (seed {seed} has no "
              "golden value; the differential oracle checked every "
              "scenario)")
    elif result["fingerprint"] == expected:
        print(f"fingerprint: {result['fingerprint']} matches {source}")
    else:
        problems.append(f"fingerprint {result['fingerprint']} != {expected} "
                        f"from {source}")
        failed = attempted

    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(names))}")
    for m in wanted:
        if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {metrics[m['name']]['unit']}"
                            f" != {m['unit']}")
    host = dict(result["host"], revision=source_revision())
    print("host: " + json.dumps(host, sort_keys=True))
    if not host["optimized"]:
        print("host: UNOPTIMIZED BUILD: timings are not comparable")
    print(f"failed_frac: {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted} ops)")
    for p in problems:
        print(f"FAILED: {p}")

    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: metrics[n] for n in names if n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
