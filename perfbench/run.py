#!/usr/bin/env python3
"""DistMSM benchmark: build the driver, run workloads, print metrics.

    python3 perfbench/run.py --workload msm_steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every gated workload, one process each

Run from the root of a checkout. The driver binary (perfbench.cc) is
built from source into .bench_build/ with this package's own
optimized flags. Each workload runs in its own process with a
scrubbed environment and min(2, nproc) host threads, so peak memory
is per workload and every cache starts cold. The last line of standard output is one JSON object
with the keys correct / attempted / failed / metrics; the exit code
is non-zero when any op failed or returned a wrong result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Runs only when named: a grid pass takes tens of microseconds and
# its speed shifts by up to half between processes, too much for a
# gated workload (see README.md).
UNGATED = ("plan_paper_scale",)

# Variables that would change what the library does behind the
# benchmark's back (an inherited fault spec injects faults, a thread
# count overrides the pinned one, a malloc tunable changes how much
# of an op is page faults, ...). MALLOC_* variables go too.
SCRUBBED_ENV = ("DISTMSM_TRACE", "DISTMSM_FAULT_SPEC",
                "DISTMSM_HOST_THREADS", "DISTMSM_AUTOPLAN_BEAM",
                "DISTMSM_PLAN_CACHE", "GLIBC_TUNABLES")

RUN_TIMEOUT_S = 170

# glibc malloc settings per workload (README.md, "Workloads"). A proof
# allocates and frees about 21 GB of scratch. Under the default malloc
# much of it is mapped afresh and page-faulted in on every proof: half
# the proof is then kernel time, and its speed follows the load of the
# rest of the machine (over ten seeds the middle half of the runs
# spread by 0.27-0.33 of the median). So a Groth16 process keeps all
# freed memory in one arena (no mmap, no trim) on huge pages, and the
# traced run reports the heap traffic itself as alloc.*.
ALLOCATOR = {
    "groth16_prove": "glibc.malloc.arena_max=1:glibc.malloc.mmap_max=0:"
                     "glibc.malloc.trim_threshold=2147483647:"
                     "glibc.malloc.hugetlb=1",
}

# Untraced runs of these workloads are split over several processes
# of seconds / shards each, and their metrics are the medians over
# the processes. Two Groth16 processes on the same seed and binary
# differ more than the ops within one process do: in set-up time by up
# to half, in peak memory by 10% (about 167 or 185 MB), in proof time
# by up to 10%.
SHARDS = {"groth16_prove": 3}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(root, build_dir):
    """Configure once, then (re)build the driver; logs go to stderr."""
    jobs = str(max(1, min(4, usable_cpus())))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def run_workload(binary, work_dir, workload, seed, seconds, threads,
                 trace):
    """One workload in its own process; returns the driver's JSON."""
    env = {k: v for k, v in os.environ.items()
           if k not in SCRUBBED_ENV and not k.startswith("MALLOC_")}
    plan_cache = work_dir / f"plans-{os.getpid()}-{workload}.tsv"
    env["DISTMSM_PLAN_CACHE"] = str(plan_cache)
    if workload in ALLOCATOR:
        env["GLIBC_TUNABLES"] = ALLOCATOR[workload]
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--threads", str(threads)]
    if trace:
        cmd += ["--trace-out",
                str(work_dir / "traces" / f"{workload}-seed{seed}")]
    load_before = os.getloadavg()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        plan_cache.unlink(missing_ok=True)
    load_after = os.getloadavg()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: driver exited with code "
                           f"{proc.returncode}")
    out = json.loads(lines[-1])
    op = out["op_ms"]
    out["points_per_s"] = out["points_per_op"] * op["n"] / (op["sum"] / 1e3)
    out["load_before"] = load_before[0]
    out["load_after"] = load_after[0]
    return out


def run_sharded(binary, work_dir, workload, seed, seconds, threads,
                trace):
    """run_workload over SHARDS processes, merged by medians."""
    shards = 1 if trace else SHARDS.get(workload, 1)
    outs = [run_workload(binary, work_dir, workload, seed,
                         seconds / shards, threads, trace)
            for _ in range(shards)]
    out = dict(outs[0])
    out["processes"] = shards
    if shards == 1:
        return out

    def median_of(key, field):
        return statistics.median(o[key][field] for o in outs)

    out["op_ms"] = {"n": sum(o["op_ms"]["n"] for o in outs),
                    "p50": median_of("op_ms", "p50"),
                    "tail": median_of("op_ms", "tail"),
                    "tail_pct": min(o["op_ms"]["tail_pct"] for o in outs)}
    out["setup_s"] = {"n": sum(o["setup_s"]["n"] for o in outs),
                      "p50": median_of("setup_s", "p50")}
    out["points_per_s"] = statistics.median(o["points_per_s"]
                                            for o in outs)
    out["peak_rss_kb"] = statistics.median(o["peak_rss_kb"] for o in outs)
    out["attempted"] = sum(o["attempted"] for o in outs)
    out["failed"] = sum(o["failed"] for o in outs)
    out["errors"] = [e for o in outs for e in o["errors"]]
    out["load_after"] = outs[-1]["load_after"]
    return out


def metrics_of(out, trace, spec):
    """The named metrics of one workload run, with units."""
    if trace:
        layers = dict(out["layers"])
        traced = out["traced_op_ms"]["p50"]
        layers["trace.op_ms_p50"] = traced
        layers["trace.overhead_ms"] = traced - out["op_ms"]["p50"]
        names = {m["name"] for m in spec["per_layer"]}
        unknown = sorted(set(layers) - names)
        if unknown:
            raise RuntimeError("layer metrics missing from BENCHMARK.json"
                               f": {', '.join(unknown)}")
        # A layer the workload does not exercise reads 0.
        return {m["name"]: {"value": layers.get(m["name"], 0.0),
                            "unit": m["unit"]}
                for m in spec["per_layer"]}
    op = out["op_ms"]
    return {
        "op_ms_p50": {"value": op["p50"], "unit": "ms"},
        "op_ms_tail": {"value": op["tail"], "unit": "ms"},
        "points_per_s": {"value": out["points_per_s"], "unit": "points/s"},
        "setup_s": {"value": out["setup_s"]["p50"], "unit": "s"},
        "peak_rss_mb": {"value": out["peak_rss_kb"] / 1024.0,
                        "unit": "MB"},
    }


def report(out, metrics, trace):
    """Human-readable lines (everything above the final JSON line)."""
    op = out["op_ms"]
    print(f"== {out['workload']} seed={out['seed']} "
          f"threads={out['threads']} nproc={usable_cpus()} "
          f"load={out['load_before']:.2f}->{out['load_after']:.2f} "
          f"build={out['build']['type']} '{out['build']['flags']}' "
          f"{out['build']['compiler']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'(op samples)':34s} n={op['n']} "
          f"processes={out['processes']} tail=p{op['tail_pct']:g} "
          f"setup n={out['setup_s']['n']}")
    print(f"  {'modeled_ms':34s} {out['modeled_ms']:.6g} ms (modeled A100)")
    print(f"  {'failed_ops_ratio':34s} "
          f"{out['failed'] / max(1, out['attempted']):.6g} "
          f"({out['failed']}/{out['attempted']})")
    if trace:
        for name, ms in sorted(out["self_ms"].items()):
            print(f"  self_ms.{name:26s} {ms:.6g} ms")
    for err in out["errors"]:
        print(f"  ERROR: {err}")


def main():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    gated = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=gated + UNGATED + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (root / "src" / "CMakeLists.txt").exists():
        log(f"perfbench: no library sources under {root / 'src'}")
        return 2
    threads = min(2, usable_cpus())
    work_dir = root / ".bench_build"
    (work_dir / "traces").mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    binary = build(root, work_dir / "perfbench")
    log(f"perfbench: build ready after {time.monotonic() - started:.1f} s")

    names = gated if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    merged = {}
    for name in names:
        out = run_sharded(binary, work_dir, name, args.seed,
                          args.seconds, threads, args.trace)
        metrics = metrics_of(out, args.trace, spec)
        report(out, metrics, args.trace)
        attempted += out["attempted"]
        failed += out["failed"]
        if len(names) == 1:
            merged = metrics
        else:
            merged.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as err:
        log(f"perfbench: {err}")
        sys.exit(2)
