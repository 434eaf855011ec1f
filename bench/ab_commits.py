#!/usr/bin/env python3
# ===- bench/ab_commits.py - Cross-commit A/B of the end-to-end benchmark --===#
#
# Part of the swa-sched project.
#
# Runs perfbench on a base commit and on the working tree, interleaved,
# and judges every metric by the repository's noise rules:
#
#   $ python3 bench/ab_commits.py BASE --workload W [--runs 10] [--trace 0|1]
#
# The head arm is the working tree; the base arm is a `git clone --shared`
# of BASE in a temporary directory that is removed on exit. Each arm runs
# its own perfbench/run.py and builds into its own tree. Pair i runs both
# arms with seed i + 1, alternating which goes first, for the run length
# that the head's BENCHMARK.json fixes. --trace 0 judges the end-to-end
# metrics, --trace 1 the per-layer ones.
#
# A metric is
#   better      when the head wins at least 9 of 10 pairs (ties count for
#               neither arm) and the medians differ by more than the
#               base's interquartile range;
#   worse       when the head's median is worse than the base's by more
#               than the metric's bound;
#   unresolved  when either arm's relative spread is wider than the bound
#               and not every head run beats every base run;
#   same        otherwise.
# Exit codes: 0 clean, 1 a bounded metric is worse or the head fails a
# larger share of answers than the base, 2 a run or the set-up failed,
# 128 + N when signal N (SIGINT or SIGTERM) stopped the comparison.
#
# Every git and perfbench process runs in a session of its own. On SIGINT
# or SIGTERM the script stops that process group (the arm's run.py and the
# cmake, compiler or benchmark processes under it), waits for it, and only
# then removes the temporary directory.
#
# ===----------------------------------------------------------------------===#
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def judge(base, head, better, bound):
    """Verdict on one metric from paired runs (base[i] and head[i] share a
    seed). `better` is "lower" or "higher"; `bound` is a relative bound or
    None for a metric the benchmark does not bound."""
    gain = (lambda h, b: b - h) if better == "lower" else (lambda h, b: h - b)
    qb, qh = quartiles(base), quartiles(head)
    wins = sum(gain(h, b) > 0 for h, b in zip(head, base))
    ties = sum(gain(h, b) == 0 for h, b in zip(head, base))
    diff = qh[1] / qb[1] - 1 if qb[1] else 0.0
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qb, qh))
    worse = diff if better == "lower" else -diff
    if bound is not None and worse > bound:
        verdict = "worse"
    elif 10 * wins >= 9 * len(base) and gain(qh[1], qb[1]) > qb[2] - qb[0]:
        verdict = "better"
    elif (bound is not None and spread > bound and
          not all(gain(h, b) > 0 for h in head for b in base)):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"base": qb, "head": qh, "diff": diff, "wins": wins,
            "ties": ties, "pairs": len(base), "verdict": verdict}


def exit_code(judgements, base_failed_share, head_failed_share):
    worse = any(j["verdict"] == "worse" for j in judgements.values())
    return 1 if worse or head_failed_share > base_failed_share else 0


class Stopped(Exception):
    """SIGINT or SIGTERM reached the script."""

    def __init__(self, signum):
        super().__init__(f"stopped by signal {signum}")
        self.signum = signum


def raise_stopped(signum, frame):
    raise Stopped(signum)


# The subprocess that is running, if any; stop_child() ends its group.
child = None


def run(cmd, **kw):
    """Runs `cmd` in a session of its own and returns (returncode, stdout)."""
    global child
    child = subprocess.Popen(cmd, start_new_session=True, **kw)
    out, _ = child.communicate()
    rc, child = child.returncode, None
    return rc, out


def stop_child(grace_s=10.0):
    """Stops the running subprocess's process group, first with SIGTERM and
    then with SIGKILL, and waits until no member of the group is left."""
    if child is None:
        return
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(child.pid, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            child.poll()
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
    child.wait()


def commit_of(rev):
    """The full sha that `rev` names in the repository, or None."""
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def checkout(sha, dest):
    """Checks `sha` out into the new directory `dest`."""
    for cmd in (["git", "clone", "--quiet", "--shared", "--no-checkout",
                 ROOT, dest],
                ["git", "-C", dest, "checkout", "--quiet", "--detach", sha]):
        if run(cmd)[0] != 0:
            raise SystemExit(f"error: {' '.join(cmd)} failed")


def run_arm(arm, workload, seed, seconds, trace):
    """One perfbench run in checkout `arm`; returns (stamp, result)."""
    # run.py joins CARGO_TARGET_DIR onto its checkout unless the value is
    # absolute, so a relative one gives every arm its own build tree.
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    cmd = [sys.executable, os.path.join(arm, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    rc, out = run(cmd, cwd=arm, env=env, stdout=subprocess.PIPE, text=True)
    if rc != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {rc}")
    lines = out.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def main(argv):
    p = argparse.ArgumentParser(prog="bench/ab_commits.py")
    p.add_argument("base", help="commit to compare the working tree against")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        p.error("--workload must name a workload in BENCHMARK.json")
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    sha = commit_of(args.base)
    if sha is None:
        print(f"error: '{args.base}' names no commit", file=sys.stderr)
        return 2

    handlers = {sig: signal.signal(sig, raise_stopped)
                for sig in (signal.SIGINT, signal.SIGTERM)}
    tmp = tempfile.mkdtemp(prefix="ab_commits-")
    try:
        base_dir = os.path.join(tmp, "base")
        checkout(sha, base_dir)
        arms = {"base": base_dir, "head": ROOT}
        stamps, results = {}, {"base": [], "head": []}
        for i in range(args.runs):
            for side in ("head", "base") if i % 2 == 0 else ("base", "head"):
                stamps[side], r = run_arm(arms[side], args.workload, i + 1,
                                          spec["run_seconds"], args.trace)
                results[side].append(r)
                print(f"pair {i + 1}/{args.runs} {side}: {r['attempted']} "
                      f"answers, {r['failed']} failed", file=sys.stderr,
                      flush=True)
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2
    except Stopped as e:
        print(e, file=sys.stderr)
        return 128 + e.signum
    finally:
        # A second signal must not cut the clean-up short.
        for sig in handlers:
            signal.signal(sig, signal.SIG_IGN)
        stop_child()
        shutil.rmtree(tmp, ignore_errors=True)
        for sig, handler in handlers.items():
            signal.signal(sig, handler)

    print(f"# {args.workload}: {args.runs} interleaved pairs, "
          f"{spec['run_seconds']}s per run, trace {args.trace}")
    for side in ("base", "head"):
        print(f"# {side} stamp: {json.dumps(stamps[side], sort_keys=True)}")
    print(f"{'metric':40} {'base median [q1, q3]':30} "
          f"{'head median [q1, q3]':30} {'head/base-1':>11} {'wins':>5} "
          f"{'ties':>4} {'bound':>6}  verdict")
    fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
    judgements = {}
    for m in group:
        name = m["name"]
        if not all(name in r["metrics"] for r in results["base"]):
            print(f"{name:40} (not reported by the base)")
            continue
        series = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in results}
        j = judge(series["base"], series["head"], m["better"], m.get("bound"))
        judgements[name] = j
        wins = f"{j['wins']}/{j['pairs']}"
        print(f"{name:40} {fmt(j['base']):30} {fmt(j['head']):30} "
              f"{j['diff']:+11.4f} {wins:>5} {j['ties']:>4} "
              f"{m.get('bound', ''):>6}  {j['verdict']}")
    shares = {}
    for side, rs in results.items():
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        shares[side] = failed / attempted if attempted else 0.0
        print(f"# {side} failed answers: {failed} of {attempted}")
    return exit_code(judgements, shares["base"], shares["head"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
