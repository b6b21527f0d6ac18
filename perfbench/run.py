#!/usr/bin/env python3
"""Repository benchmark: host cost of dynamic wormhole runs and collectives.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --record-references

The first form builds perfbench/ (the mcnet library from src/ plus the
mcnet_perf binary) into .bench_build/, runs one workload and prints, as its
last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The digest
of every replication is checked against references.json; replications
with no recorded reference are reported as unchecked.  See
perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"
WORKLOADS = ("fig710-knee", "mesh32-light", "coll-allreduce")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RECORDED_SEEDS = sorted(set(range(32)) | {DEFAULT_SEED, HELD_OUT_SEED})
RECORD_JOBS = 3
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; returns the binary path."""
    out = ROOT / ".bench_build" / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "mcnet_perf", "-j4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "mcnet_perf"


def run_binary(binary, args):
    proc = subprocess.run([str(binary)] + args, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"mcnet_perf exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("mcnet_perf printed nothing")
    return json.loads(lines[-1])


def digest_hash(digest):
    """The short hash references.json keeps of one replication's digest."""
    return hashlib.sha256(digest.encode()).hexdigest()[:12]


def reference_check(result):
    """(replications whose digest differs from the recorded one,
    number of replications with no recorded reference)."""
    digests = result["digests"]
    table = json.loads(REFERENCES.read_text())["digests"]
    recorded = table.get(result["workload"], {}).get(result["seed"], "").split()
    mismatched = [i for i, (got, want) in enumerate(zip(digests, recorded))
                  if digest_hash(got) != want]
    for i in mismatched:
        print(f"replication {i} digest {digests[i]} (hash {digest_hash(digests[i])}, "
              f"recorded {recorded[i]})", file=sys.stderr)
    return mismatched, max(0, len(digests) - len(recorded))


def measure(args):
    binary = build()
    result = run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)])
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    mismatched, unchecked = reference_check(result)
    if mismatched:
        # Every replication shares the code that changed the simulation.
        print(f"digest differs from references.json for replications {mismatched}",
              file=sys.stderr)
        failed = attempted
    if unchecked:
        total = len(result["digests"])
        print(f"{unchecked} of {total} replications unchecked: references.json records "
              f"{total - unchecked} for {args.workload} seed {args.seed}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


def self_test():
    """Every workload at quick size: all metrics emitted, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_binary(binary, ["--workload", workload, "--seed", str(DEFAULT_SEED),
                                         "--seconds", "1", "--trace", str(trace), "--quick"])
            where = f"{workload} --trace {trace}"
            if result["failed"] != 0 or result["errors"]:
                problems.append(f"{where}: failed checks {result['errors']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(got.items())} "
                                f"!= {sorted(want.items())}")
            print(f"{where}: {len(got)} metrics, {result['attempted']} replication(s)")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record_references():
    """Record every replication of a full-size --trace 0 run (a --trace 1
    run measures a prefix of them) for each workload and recorded seed."""
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    binary = build()

    def record(workload, seed):
        result = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"])
        if result["failed"] != 0:
            raise RuntimeError(f"{workload} seed {seed}: {result['errors']}")
        print(f"{workload} seed {seed}: {len(result['digests'])} recorded", file=sys.stderr)
        return " ".join(digest_hash(d) for d in result["digests"])

    jobs = [(w, s) for w in WORKLOADS for s in RECORDED_SEEDS]
    with ThreadPoolExecutor(RECORD_JOBS) as pool:
        hashes = list(pool.map(lambda job: record(*job), jobs))
    table = {w: {} for w in WORKLOADS}
    for (workload, seed), line in zip(jobs, hashes):
        table[workload][str(seed)] = line
    REFERENCES.write_text(json.dumps({
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "hash": "first 12 hex digits of the sha256 of each replication's digest",
        "digests": table,
    }, indent=1) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.self_test:
            return self_test()
        if args.record_references:
            return record_references()
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
