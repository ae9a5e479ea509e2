#!/usr/bin/env python3
"""Fail CI when a guarded pipeline-bench metric regresses past tolerance.

Usage:
    check_perf_regression.py <bench_perf_pipeline.json> <baseline_perf.json>

The baseline file (bench/baseline_perf.json) declares a set of guarded
higher-is-better metrics (the sweep-ingest throughput
``ingest_measurements_per_sec`` and ``store_read_MBps``, the throughput
of a full-file read of the bench store through the production Reader
decoders) plus a relative tolerance. A fresh bench
run must stay within ``tolerance`` of each guarded baseline value; metrics
listed under ``informational`` are printed for the log but never fail the
job, since lower-level numbers (per-probe latency, row-load MB/s) are too
runner-sensitive to gate on.

``guarded_max`` entries are lower-is-better hard ceilings, checked without
tolerance: the value in the baseline file IS the limit. The pipeline's
``peak_rss_bytes`` lives here (a store-writing run at the bench's heavy
probe config must peak below an absolute VmHWM ceiling, set at half the
peak of the in-memory driver it replaced), as does ``sampler_overhead_pct``
(the telemetry sampler's sample bodies must cost < 1% of run wall clock
at the default 250 ms cadence).

``guarded_min`` entries are the dual: higher-is-better hard floors,
checked without tolerance — the baseline value IS the minimum. The serve
layer's ``serve_lookups_per_sec`` lives here (the query engine must
sustain at least 1M point lookups/sec across the drive's thread
complement — an absolute acceptance criterion, not a trajectory, hence
no tolerance band), as does ``analyze_vs_run_speedup`` (one analyze
pass over a saved store — verify every block, decode the joined events —
must beat re-simulating the run by at least 5x).

A guarded key that is MISSING from the candidate JSON is a hard failure,
not a silent skip: a renamed or dropped metric would otherwise disable
its own gate. On any failure the script prints a full key-by-key
comparison table (baseline keys x candidate results) to stderr so the log
shows exactly which keys exist on each side.

Only the standard library is used so the script runs on a bare CI image.
"""

import json
import sys


def comparison_table(results, baseline):
    """Every key from either side, one row each: kind, baseline, candidate."""
    kinds = {}
    for kind in ("guarded", "guarded_max", "guarded_min", "informational"):
        for name in baseline.get(kind, {}):
            kinds[name] = kind
    names = sorted(set(kinds) | set(results))
    rows = [("key", "kind", "baseline", "candidate")]
    for name in names:
        kind = kinds.get(name, "-")
        base = baseline.get(kinds[name], {}).get(name) if name in kinds else None
        measured = results.get(name)
        fmt = lambda v: f"{v:.6g}" if isinstance(v, (int, float)) else "MISSING"
        rows.append((name, kind, fmt(base), fmt(measured)))
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        bench = json.load(f)
    with open(argv[2]) as f:
        baseline = json.load(f)

    results = bench.get("results", {})
    tolerance = float(baseline.get("tolerance", 0.20))
    failures = []

    for name, base in sorted(baseline.get("guarded", {}).items()):
        measured = results.get(name)
        if measured is None:
            print(f"{name}: MISSING from candidate results "
                  f"(guarded, baseline {base:.6g}) -> FAILED")
            failures.append(
                f"{name}: guarded key missing from candidate JSON — the gate "
                f"cannot run; was the metric renamed or dropped?")
            continue
        floor = float(base) * (1.0 - tolerance)
        ratio = float(measured) / float(base)
        verdict = "OK" if float(measured) >= floor else "REGRESSED"
        print(f"{name}: measured {measured:.6g} vs baseline {base:.6g} "
              f"({ratio:.2f}x, floor {floor:.6g}) -> {verdict}")
        if verdict != "OK":
            failures.append(
                f"{name}: {measured:.6g} < floor {floor:.6g} "
                f"(baseline {base:.6g}, tolerance {tolerance:.0%})")

    for name, ceiling in sorted(baseline.get("guarded_max", {}).items()):
        measured = results.get(name)
        if measured is None:
            print(f"{name}: MISSING from candidate results "
                  f"(guarded_max, ceiling {ceiling:.6g}) -> FAILED")
            failures.append(
                f"{name}: guarded_max key missing from candidate JSON — the "
                f"gate cannot run; was the metric renamed or dropped?")
            continue
        verdict = "OK" if float(measured) <= float(ceiling) else "EXCEEDED"
        print(f"{name}: measured {measured:.6g} vs ceiling {ceiling:.6g} "
              f"(lower is better) -> {verdict}")
        if verdict != "OK":
            failures.append(
                f"{name}: {measured:.6g} > ceiling {ceiling:.6g}")

    for name, floor in sorted(baseline.get("guarded_min", {}).items()):
        measured = results.get(name)
        if measured is None:
            print(f"{name}: MISSING from candidate results "
                  f"(guarded_min, floor {floor:.6g}) -> FAILED")
            failures.append(
                f"{name}: guarded_min key missing from candidate JSON — the "
                f"gate cannot run; was the metric renamed or dropped?")
            continue
        verdict = "OK" if float(measured) >= float(floor) else "BELOW FLOOR"
        print(f"{name}: measured {measured:.6g} vs floor {floor:.6g} "
              f"(higher is better, no tolerance) -> {verdict}")
        if verdict != "OK":
            failures.append(
                f"{name}: {measured:.6g} < floor {floor:.6g}")

    for name, base in sorted(baseline.get("informational", {}).items()):
        measured = results.get(name)
        shown = f"{measured:.6g}" if measured is not None else "missing"
        print(f"{name}: measured {shown} vs baseline {base:.6g} (informational)")

    if failures:
        print("\nperf regression check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("\nfull key-by-key comparison:", file=sys.stderr)
        print(comparison_table(results, baseline), file=sys.stderr)
        return 1
    print("\nperf regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
