#!/usr/bin/env python3
# ===- bench/compare_bench.py - Benchmark regression gate ------------------===#
#
# Part of the swa-sched project.
#
# Diffs two google-benchmark JSON files (as written by run_baseline.sh or
# a raw --benchmark_out run) and fails when any matched benchmark
# regresses by more than the threshold on wall time or on a watched
# counter. Benchmarks are matched by (binary, name). New entries (only in
# current) are informational. Entries or watched counters present in the
# baseline but missing from the current run FAIL the gate: a vanished
# *_per_sec counter is indistinguishable from an infinite regression, and
# a retirement must be stated, not inferred — allowlist it explicitly
# with --allow-missing NAME (a benchmark name or a counter name).
#
#   $ bench/compare_bench.py BASELINE.json CURRENT.json \
#         [--threshold 0.10] [--counter candidates_per_sec ...] \
#         [--allow-missing BM_Old/1 ...]
#
# Committed baselines live at the repo root, so bare names resolve there
# when no such file exists relative to the working directory:
#
#   $ bench/compare_bench.py BENCH_PR5.json BENCH_PR7.json
#
# compares the two recorded trajectory points from anywhere in the tree,
# with the same >10% default gate on wall time and candidates_per_sec.
#
# Time regressions are "current slower than baseline"; counter
# regressions are "current rate lower than baseline" (every watched
# counter is rate-like: bigger is better). Exit codes: 0 clean,
# 1 regression, 2 usage/parse error.
#
# When both inputs are obs::RunReport documents ("swa_run_report": 1, as
# written by --report-out or run_baseline.sh --report) the comparison
# switches to a report diff instead: cache hit rates, the stop-reason
# mix, counter deltas, and per-phase nanoseconds. Rate-like stats
# (*_per_sec) are gated by the same threshold; everything else is
# informational — event counts are workload shape, not performance.
#
# ===----------------------------------------------------------------------===#
import argparse
import json
import os
import sys

# Rate-style user counters worth gating by default. Wall time covers the
# rest; obs.* event counts are diagnostics, not performance.
DEFAULT_COUNTERS = ["candidates_per_sec", "actions_per_sec"]


def resolve_baseline(path):
    """A bare file name that does not exist locally names a committed
    baseline at the repo root (where run_baseline.sh writes them)."""
    if os.path.exists(path) or os.path.dirname(path):
        return path
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rooted = os.path.join(root, path)
    return rooted if os.path.exists(rooted) else path


def load_doc(path):
    path = resolve_baseline(path)
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")


def index_benchmarks(doc):
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        key = (b.get("binary", ""), b.get("name", ""))
        out[key] = b
    return out, doc.get("context", {})


def fmt(key):
    binary, name = key
    return f"{binary}:{name}" if binary else name


def flatten_phases(nodes, prefix=""):
    """RunReport phase forest -> {path: nanos}, depth-first."""
    out = {}
    for node in nodes or []:
        path = prefix + node.get("name", "?")
        out[path] = out.get(path, 0) + int(node.get("ns", 0))
        out.update(flatten_phases(node.get("children"), path + "/"))
    return out


def compare_reports(base, cur, threshold, allow_missing=()):
    """Diff two obs::RunReport documents. Returns the exit code."""
    bt, ct = base.get("tool", "?"), cur.get("tool", "?")
    if bt != ct:
        print(f"warning: comparing reports from different tools "
              f"({bt} vs {ct})", file=sys.stderr)
    print(f"run report diff ({ct}):")

    regressions = []
    bs, cs = base.get("stats", {}), cur.get("stats", {})
    for name in sorted(set(bs) | set(cs)):
        bv, cv = bs.get(name), cs.get(name)
        if bv is None or cv is None:
            print(f"  stat {name}: only in "
                  f"{'baseline' if cv is None else 'current'}")
            # A gated stat that vanished is a failed gate, not a note —
            # unless its retirement is explicitly allowlisted.
            if (cv is None and name.endswith("_per_sec")
                    and name not in allow_missing):
                regressions.append(
                    f"{name}: watched stat missing from current run "
                    "(allowlist with --allow-missing)")
            continue
        print(f"  stat {name}: {bv:.4g} -> {cv:.4g}")
        # Throughput stats gate like benchmark rate counters: lower is a
        # regression. Hit rates etc. are workload shape — report only.
        if name.endswith("_per_sec") and bv > 0:
            delta = (bv - cv) / bv
            if delta > threshold:
                regressions.append(
                    f"{name} {bv:.4g} -> {cv:.4g} (-{delta:.1%})")

    bc, cc = base.get("counters", {}), cur.get("counters", {})
    stop = sorted(n for n in set(bc) | set(cc) if n.startswith("stop."))
    if stop:
        print("  stop-reason mix:")
        for name in stop:
            print(f"    {name[len('stop.'):]}: "
                  f"{bc.get(name, 0)} -> {cc.get(name, 0)}")
    for name in sorted(set(bc) | set(cc)):
        if name.startswith("stop."):
            continue
        bv, cv = bc.get(name, 0), cc.get(name, 0)
        if bv != cv:
            print(f"  counter {name}: {bv} -> {cv}")

    bp = flatten_phases(base.get("phases"))
    cp = flatten_phases(cur.get("phases"))
    for path in sorted(set(bp) | set(cp)):
        bv, cv = bp.get(path, 0), cp.get(path, 0)
        print(f"  phase {path}: {bv / 1e6:.3f} ms -> {cv / 1e6:.3f} ms")

    if regressions:
        print(f"{len(regressions)} regression(s) past {threshold:.0%}:")
        for r in regressions:
            print(f"  {r}")
        return 1
    print(f"clean: report stats within {threshold:.0%}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="maximum tolerated fractional regression "
                         "(default 0.10 = 10%%)")
    ap.add_argument("--counter", action="append", default=None,
                    metavar="NAME",
                    help="rate counter to gate (repeatable; default: "
                         + ", ".join(DEFAULT_COUNTERS) + ")")
    ap.add_argument("--allow-missing", action="append", default=[],
                    metavar="NAME",
                    help="benchmark (name or binary:name), counter or "
                         "report stat allowed to be absent from the "
                         "current run (repeatable); anything else "
                         "carrying a watched counter fails the gate "
                         "when it disappears")
    args = ap.parse_args()
    counters = args.counter if args.counter else DEFAULT_COUNTERS
    allow_missing = set(args.allow_missing)

    base_doc = load_doc(args.baseline)
    cur_doc = load_doc(args.current)
    base_is_report = "swa_run_report" in base_doc
    cur_is_report = "swa_run_report" in cur_doc
    if base_is_report != cur_is_report:
        sys.exit("error: cannot compare a run report against a "
                 "benchmark file")
    if base_is_report:
        sys.exit(compare_reports(base_doc, cur_doc, args.threshold,
                                 allow_missing))

    base, base_ctx = index_benchmarks(base_doc)
    cur, cur_ctx = index_benchmarks(cur_doc)

    for label, ctx in (("baseline", base_ctx), ("current", cur_ctx)):
        swa = ctx.get("swa_build_type")
        if swa and swa != "release":
            print(f"warning: {label} was recorded from a {swa} build; "
                  "the comparison is not meaningful", file=sys.stderr)

    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    regressions = []
    for k in only_base:
        allowed = (fmt(k) in allow_missing or k[1] in allow_missing)
        watched = [n for n in counters if base[k].get(n) is not None]
        if watched and not allowed:
            regressions.append(
                f"{fmt(k)}: benchmark with watched counter(s) "
                f"{', '.join(watched)} missing from current run "
                "(allowlist with --allow-missing)")
        else:
            print(f"note: {fmt(k)} only in baseline "
                  f"({'allowlisted' if allowed else 'retired'})")
    for k in only_cur:
        print(f"note: {fmt(k)} only in current (new)")

    compared = 0
    for key in sorted(set(base) & set(cur)):
        b, c = base[key], cur[key]
        compared += 1
        bt, ct = b.get("real_time"), c.get("real_time")
        if bt and ct and bt > 0:
            delta = (ct - bt) / bt
            if delta > args.threshold:
                regressions.append(
                    f"{fmt(key)}: real_time {bt:.3g} -> {ct:.3g} "
                    f"{b.get('time_unit', 'ns')} (+{delta:.1%})")
        for name in counters:
            bv, cv = b.get(name), c.get(name)
            if bv is not None and cv is None and name not in allow_missing:
                regressions.append(
                    f"{fmt(key)}: watched counter {name} missing from "
                    "current run (allowlist with --allow-missing)")
                continue
            if bv is None or cv is None or bv <= 0:
                continue
            delta = (bv - cv) / bv
            if delta > args.threshold:
                regressions.append(
                    f"{fmt(key)}: {name} {bv:.4g} -> {cv:.4g} "
                    f"(-{delta:.1%})")

    if compared == 0:
        sys.exit("error: no benchmarks in common between the two files")
    if regressions:
        print(f"{len(regressions)} regression(s) past "
              f"{args.threshold:.0%}:")
        for r in regressions:
            print(f"  {r}")
        sys.exit(1)
    print(f"clean: {compared} benchmarks compared, none regressed past "
          f"{args.threshold:.0%}")


if __name__ == "__main__":
    main()
