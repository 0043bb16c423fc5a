#!/usr/bin/env python3
"""Diff the hermetic counter fields of a BENCH_engine.json against a golden.

Usage: check_bench_counters.py <emitted.json> <golden.json>

Only exact counters are compared (kernel_launches, gather_bytes,
flat_batches, stacked_batches, scheduling_allocs, and the serving rows'
request/trigger/token counts) — they are deterministic for a fixed trace and
binary. Timing fields (*_ns) are machine-dependent
context and are ignored. Exit 0 on match, 1 with a per-row report on drift:
a launch-count or gather-byte regression in the engine hot path fails CI
even when wall times happen to look fine.
"""
import json
import sys

COUNTERS = (
    "kernel_launches",
    "gather_bytes",
    "flat_batches",
    "stacked_batches",
    "scheduling_allocs",
    # Steady-state serving rows (ISSUE 7): deterministic under the
    # all-arrivals-at-t0 cohort recipe; absent (None == None) on the
    # engine-only rows, so old goldens keep passing.
    "requests",
    "triggers",
    "shed",
    # Token-level decoding rows (ISSUE 8): exact for the fixed dataset seed;
    # absent on pre-decode rows, same None == None tolerance as above.
    "tokens",
    "cancelled",
    # Ingress rows (ISSUE 9, BENCH_net.json): admission/shed accounting is
    # exact for a fixed closed-loop trace even though the latency columns
    # are wall-clock context; absent everywhere else, same tolerance.
    "completed",
    "rejected_429",
    "errors",
    "conn_drops",
    "worker_deaths",
    # Fault-tolerance rows (ISSUE 10): zero on fault-free runs by contract —
    # a nonzero respawn or degraded-entry count on a clean benchmark run is
    # exactly the regression this check exists to catch. Absent on older
    # goldens, same None == None tolerance as above.
    "worker_respawns",
    "client_retries",
    "degraded_entries",
)


def rows_by_config(path):
    with open(path) as f:
        doc = json.load(f)
    return {row["config"]: row for row in doc["rows"]}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    emitted = rows_by_config(sys.argv[1])
    golden = rows_by_config(sys.argv[2])
    failures = []
    for config in sorted(set(emitted) | set(golden)):
        if config not in emitted:
            failures.append(f"{config}: missing from emitted output")
            continue
        if config not in golden:
            failures.append(f"{config}: not in golden (new config? regenerate the golden)")
            continue
        for key in COUNTERS:
            got, want = emitted[config].get(key), golden[config].get(key)
            if got != want:
                failures.append(f"{config}: {key} = {got}, golden {want}")
    if failures:
        print(f"BENCH counter drift vs {sys.argv[2]}:")
        for f in failures:
            print(f"  {f}")
        print(
            "If the change is intentional, regenerate the golden:\n"
            "  ACROBAT_BENCH_ITERS=1 ACROBAT_LAUNCH_NS=0 "
            "ACROBAT_BENCH_JSON=bench/golden/BENCH_engine.json ./build/ablation_scheduler"
        )
        sys.exit(1)
    print(f"bench counters match golden ({len(golden)} configs x {len(COUNTERS)} counters)")


if __name__ == "__main__":
    main()
