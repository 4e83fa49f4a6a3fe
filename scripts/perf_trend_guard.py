#!/usr/bin/env python3
"""Perf-trend guard over the BENCH_*.json artifacts.

Compares the current run's Google-Benchmark JSON output against the previous
CI run's uploaded artifact and fails (exit 1) when a guarded series regressed
by more than the threshold. Guarded series:

  * BENCH_checker.json  — items_per_second of the verify_* series (today
    verify_incremental only: the streaming checker's throughput in gates/s);
  * BENCH_service.json  — items_per_second of the socket_* families (served
    requests/s through the TCP front-end);
  * BENCH_sabre.json    — items_per_second of the route_* families (logical
    gates/s through SABRE: sparse routing at device scale, QFT-96 on the
    line and a 700-CX circuit on the grid), with the loose 0.50 threshold:
    each is a single-iteration route whose time swings with the runner;
  * BENCH_sat.json      — items_per_second of the satmap_route_full/* family
    (SAT probes/s through SATMAP's search driver on the cdcl backend), with
    a per-guard threshold: a single Iterations(1) SAT search is far noisier
    than the throughput families, so only halvings fail the gate;
  * BENCH_aqft.json     — items_per_second of the fidelity_route/* families
    (gates/s through SABRE's calibrated-device routing, depth and fidelity
    objectives), with the same loose 0.50 threshold.

A missing baseline directory/file or an empty intersection of benchmark names
passes with a notice: the guard gates trends between comparable runs, it must
never block the first run, an expired-artifact run, or a benchmark rename.
Noise guard: series must regress against the *ratio* threshold; absolute
items/sec are machine-dependent and never compared across machines here
because both sides ran on the same runner pool.

Counter ledgers: some benchmarks report counters that are a function of the
code and the inputs, not of the machine. They are pinned in bench/ledger/
and compared exactly:

  * BENCH_sabre_counters.json   — SABRE's route_qft/* and route_circuit/*
    work counters (passes, blocked_steps, rebuilt_steps, deltas_computed,
    swaps);
  * BENCH_checker_counters.json — bench_checker's map_fused/* gate-store
    footprint (store_bytes_per_gate: 8 while every mapped gate packs into
    one word).

Any counter that differs from its ledger, and any such benchmark missing
from either side, fails the guard, with or without a baseline artifact. A
change that alters this work on purpose re-records the ledger from a run of
the benchmark binary:

    ./build/bench_sabre --benchmark_filter='^route_(qft|circuit)/' \
        --benchmark_min_time=0.05 --benchmark_out=BENCH_sabre.json \
        --benchmark_out_format=json
    python3 scripts/perf_trend_guard.py --record-counters BENCH_sabre.json

    ./build/bench_checker --benchmark_filter='^map_fused/' \
        --benchmark_min_time=0.05 --benchmark_out=BENCH_checker.json \
        --benchmark_out_format=json
    python3 scripts/perf_trend_guard.py --record-counters BENCH_checker.json
"""

import argparse
import json
import os
import re
import sys

# (file, name prefixes, label, threshold override or None for --threshold)
GUARDS = [
    ("BENCH_checker.json", ("verify_",), "verify throughput", None),
    ("BENCH_service.json", ("socket_",), "socket req/s", None),
    ("BENCH_sabre.json", ("route_",), "SABRE routed gates/s", 0.50),
    ("BENCH_sat.json", ("satmap_route_full/",), "SATMAP probes/s", 0.50),
    # Calibrated-device routing: SABRE trial counts dominate and are noisy
    # run to run, so like the SAT family only halvings fail the gate.
    ("BENCH_aqft.json", ("fidelity_route/",), "fidelity-aware routing", 0.50),
]


def load_series(path, prefixes):
    """name -> items_per_second for guarded benchmarks in one JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf-guard: cannot read {path}: {e}")
        return None
    series = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        if b.get("run_type") == "aggregate":
            continue
        if not name.startswith(prefixes):
            continue
        ips = b.get("items_per_second")
        if isinstance(ips, (int, float)) and ips > 0:
            # Repeated entries (multiple repetitions): keep the best, the
            # stable measure of what the code can do on this machine.
            series[name] = max(series.get(name, 0.0), ips)
    return series


# Counter ledgers: (benchmark output file, names whose counters are pinned,
# counters, ledger file under bench/ledger/).
COUNTER_LEDGERS = [
    ("BENCH_sabre.json", re.compile(r"^route_(qft|circuit)/"),
     ("passes", "blocked_steps", "rebuilt_steps", "deltas_computed", "swaps"),
     "BENCH_sabre_counters.json"),
    ("BENCH_checker.json", re.compile(r"^map_fused/"),
     ("store_bytes_per_gate",), "BENCH_checker_counters.json"),
]
LEDGER_DIR = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "ledger"))


def exact(value):
    """A counter as the ledger stores it: integral values as ints."""
    value = float(value)
    return int(value) if value.is_integer() else value


def load_counters(path, names, counters):
    """name -> {counter: value} for the pinned benchmarks in one JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    series = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        if b.get("run_type") == "aggregate" or not names.match(name):
            continue
        series[name] = {c: exact(b[c]) for c in counters if c in b}
    return series


def record_counters(bench_path):
    for fname, names, counters, ledger in COUNTER_LEDGERS:
        if os.path.basename(bench_path) == fname:
            break
    else:
        known = ", ".join(entry[0] for entry in COUNTER_LEDGERS)
        print(f"perf-guard: {bench_path}: no counter ledger for this file "
              f"(known: {known})")
        return 1
    series = load_counters(bench_path, names, counters)
    if not series:
        print(f"perf-guard: {bench_path} holds no benchmark matching "
              f"{names.pattern}")
        return 1
    ledger_path = os.path.join(LEDGER_DIR, ledger)
    with open(ledger_path, "w", encoding="utf-8") as f:
        json.dump({"counters": list(counters), "benchmarks": series}, f,
                  indent=2, sort_keys=True)
        f.write("\n")
    print(f"perf-guard: wrote {len(series)} benchmarks to {ledger_path}")
    return 0


def check_counters(cur_path, names, counters, ledger_path):
    """Mismatches between this run's counters and the ledger."""
    with open(ledger_path, "r", encoding="utf-8") as f:
        ledger = json.load(f)["benchmarks"]
    cur = load_counters(cur_path, names, counters)
    problems = []
    for name in sorted(set(ledger) | set(cur)):
        if name not in cur:
            problems.append(f"{name}: in the ledger, not in this run")
            continue
        if name not in ledger:
            problems.append(f"{name}: not in the ledger")
            continue
        for c in counters:
            want, got = ledger[name].get(c), cur[name].get(c)
            if want != got:
                problems.append(f"{name}: {c} {want} in the ledger, {got} "
                                f"in this run")
    status = "DIFFERS" if problems else "ok"
    print(f"perf-guard: {os.path.basename(ledger_path)}: counters of "
          f"{len(cur)} benchmarks against the ledger [{status}]")
    return problems


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--current",
                    help="directory holding this run's BENCH_*.json")
    ap.add_argument("--baseline",
                    help="directory holding the previous run's artifact")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max allowed fractional regression (default 0.20)")
    ap.add_argument("--record-counters", metavar="BENCH_JSON",
                    help="write the pinned counters of this BENCH_sabre.json "
                         "or BENCH_checker.json to its ledger under "
                         "bench/ledger/ and exit")
    args = ap.parse_args()
    if args.record_counters:
        return record_counters(args.record_counters)
    if not args.current or not args.baseline:
        ap.error("--current and --baseline are required")

    regressions = []
    for fname, names, counters, ledger in COUNTER_LEDGERS:
        cur_counters = os.path.join(args.current, fname)
        if os.path.exists(cur_counters):
            for p in check_counters(cur_counters, names, counters,
                                    os.path.join(LEDGER_DIR, ledger)):
                regressions.append(f"{ledger} counters: {p}")
    compared = 0
    for fname, prefixes, label, threshold in GUARDS:
        if threshold is None:
            threshold = args.threshold
        cur_path = os.path.join(args.current, fname)
        base_path = os.path.join(args.baseline, fname)
        if not os.path.exists(cur_path):
            print(f"perf-guard: {fname} not produced by this run — skipping")
            continue
        if not os.path.exists(base_path):
            print(f"perf-guard: no baseline {fname} — first run or expired "
                  f"artifact, passing")
            continue
        cur = load_series(cur_path, prefixes)
        base = load_series(base_path, prefixes)
        if cur is None or base is None:
            continue
        common = sorted(set(cur) & set(base))
        if not common:
            print(f"perf-guard: {fname}: no common benchmarks — renames? "
                  f"passing")
            continue
        for name in common:
            compared += 1
            ratio = cur[name] / base[name]
            status = "ok"
            if ratio < 1.0 - threshold:
                status = "REGRESSED"
                regressions.append(
                    f"{label}: {name}: {base[name]:.3e} -> {cur[name]:.3e} "
                    f"items/s ({(1.0 - ratio) * 100.0:.1f}% slower, "
                    f"threshold {threshold * 100.0:.0f}%)")
            print(f"perf-guard: {name}: {ratio:.3f}x baseline [{status}]")

    if regressions:
        print(f"\nperf-guard: {len(regressions)} regression(s):")
        for r in regressions:
            print(f"  {r}")
        return 1
    print(f"perf-guard: {compared} series compared, none regressed beyond "
          f"their thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
