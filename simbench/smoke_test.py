#!/usr/bin/env python3
"""Smoke test of the simulator benchmark itself.

    python3 simbench/smoke_test.py

Runs every workload of BENCHMARK.json for one second on its default and
its held-out seed, and once traced. Checks that

  - each run exits 0 and its last line has exactly the keys correct,
    attempted, failed and metrics, with correct true and no failed op;
  - the printed metric names and units are BENCHMARK.json's end_to_end
    list (untraced) or per_layer list (traced), in that order;
  - the run's fingerprint matched the golden value for the seed;
  - the trace file is well-formed: span ids are dense, every parent
    exists, no span ends before it starts, and every self time is
    non-negative and equals the span's duration minus the union of its
    children's intervals;
  - in a directory holding only BENCHMARK.json and simbench/, the
    benchmark exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)
    return ok


def run_bench(root, args):
    cmd = [sys.executable, str(root / "simbench" / "run.py")] + args
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)


def check_run(workload, seed, trace):
    label = f"{workload} seed {seed} trace {trace}"
    proc = run_bench(ROOT, ["--workload", workload, "--seed", str(seed),
                            "--seconds", "1", "--trace", str(trace)])
    lines = proc.stdout.strip().splitlines()
    if not check(proc.returncode == 0 and lines,
                 f"{label}: exit code {proc.returncode}"):
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        return
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{label}: correct={result['correct']} failed={result['failed']} "
          f"attempted={result['attempted']}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = [(n, m["unit"]) for n, m in result["metrics"].items()]
    check(got == [(m["name"], m["unit"]) for m in wanted],
          f"{label}: metric names and units match BENCHMARK.json")
    check(any(line.startswith("fingerprint: ") and "golden.json" in line
              and "matches" in line for line in lines),
          f"{label}: fingerprint matches golden.json")


def self_times(spans):
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        covered, reach = 0, s["start_ns"]
        ivs = sorted((max(c["start_ns"], s["start_ns"]),
                      min(c["end_ns"], s["end_ns"]))
                     for c in children.get(s["id"], []))
        for a, b in ivs:
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end_ns"] - s["start_ns"] - covered)
    return out


def check_trace(workload, seed):
    path = ROOT / ".bench_build" / "traces" / f"{workload}-seed{seed}.json"
    if not check(path.is_file(), f"{workload}: trace file {path.name}"):
        return
    spans = json.loads(path.read_text())["spans"]
    n = len(spans)
    check(n > 0, f"{workload}: trace holds {n} spans")
    check(all(s["id"] == i for i, s in enumerate(spans)),
          f"{workload}: span ids are dense")
    check(all(s["parent"] == -1 or 0 <= s["parent"] < n for s in spans),
          f"{workload}: every parent exists")
    check(all(s["end_ns"] >= s["start_ns"] for s in spans),
          f"{workload}: no span ends before it starts")
    recomputed = self_times(spans)
    check(all(t >= 0 for t in recomputed)
          and all(s["self_ns"] == t for s, t in zip(spans, recomputed)),
          f"{workload}: self times are non-negative and consistent")


def check_partial_tree():
    partial = ROOT / ".bench_build" / "smoke-partial"
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", partial)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, partial / rel)
    workload = SPEC["workloads"][0]["name"]
    proc = run_bench(partial, ["--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", "0"])
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and not last.startswith("{"),
          f"partial tree: exits {proc.returncode} without a result")
    shutil.rmtree(partial, ignore_errors=True)


def main():
    for w in SPEC["workloads"]:
        seeds = GOLDEN["seeds"][w["name"]]
        for seed in (seeds["default"], seeds["held_out"]):
            check_run(w["name"], seed, 0)
        check_run(w["name"], seeds["default"], 1)
        check_trace(w["name"], seeds["default"])
    check_partial_tree()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
