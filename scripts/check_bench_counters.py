#!/usr/bin/env python3
"""Diff the hermetic counter fields of a BENCH_engine.json against a golden.

Usage: check_bench_counters.py <emitted.json> <golden.json>

Every integer-valued key of every row is an exact counter (bench_util.h
CounterJson): kernel launches, gather bytes, flat/stacked batches,
scheduling allocs and the serving rows' request/trigger/token counts. They
are deterministic for a fixed trace and binary, so each one is compared.
The *_ns timings and the double columns (always written as JSON floats) are
machine-dependent context, so neither is; `config` names the row.
Exit 0 on match, 1 with a per-row report on drift: a launch-count or
gather-byte regression in the engine hot path fails CI even when wall times
happen to look fine.
"""
import json
import sys


def rows_by_config(path):
    with open(path) as f:
        doc = json.load(f)
    return {row["config"]: row for row in doc["rows"]}


def is_counter(key, value):
    return isinstance(value, int) and not key.endswith("_ns")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    emitted = rows_by_config(sys.argv[1])
    golden = rows_by_config(sys.argv[2])
    failures = []
    compared = 0
    for config in sorted(set(emitted) | set(golden)):
        if config not in emitted:
            failures.append(f"{config}: missing from emitted output")
            continue
        if config not in golden:
            failures.append(f"{config}: not in golden (new config? regenerate the golden)")
            continue
        got_row, want_row = emitted[config], golden[config]
        keys = {k for row in (got_row, want_row) for k, v in row.items() if is_counter(k, v)}
        for key in sorted(keys):
            compared += 1
            got, want = got_row.get(key), want_row.get(key)
            if type(got) is not type(want) or got != want:
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
    print(f"bench counters match golden ({len(golden)} configs, {compared} counters)")


if __name__ == "__main__":
    main()
