#!/usr/bin/env python3
"""A/B comparison of perfbench between a parent revision and the working tree.

Run from anywhere inside the repository:

    python3 scripts/perf_ab.py --parent HEAD --pairs 10 --seconds 20 --trace 0 \\
        --held-out-seed 101
    python3 scripts/perf_ab.py --report .perf_ab/runs.jsonl   # re-print a table
    python3 scripts/perf_ab.py --selftest                     # verdict logic only

The parent revision is exported with `git archive` into the work directory
(default .perf_ab/ at the repository root); the working tree is measured in
place. Each side is built into its own CARGO_TARGET_DIR under the work
directory, and each run calls that side's unchanged perfbench/run.py.

Every workload gets N pairs. Pair i runs both sides with seed --seed + i,
alternating which side goes first; --held-out-seed adds one more pair with
that seed. Each run's JSON line is appended to runs.jsonl in the work
directory as it completes.

Host steal decides which pairs count. Each run's steal_pct comes from its
perfbench `host:` line. A pair counts only when its two sides' steal
differs by at most 3 points; a pair that misses is re-run, up to twice,
and its first matching attempt counts. The report prints each side's steal
and how many pairs matched. With fewer than 10 matched pairs every metric
of the workload reads "host too noisy" instead of a verdict. Runs recorded
without a host line (older runs.jsonl files) count as matched.

For each workload and metric the report prints each side's median and
quartiles, the change/parent ratio of the medians, the pairs the change
won (ties count for neither side), and a verdict:

  gain          the change is better, won at least 9/10 of the pairs, and
                the medians differ by more than the parent's quartile
                spread;
  within bound  the change's median is no worse than the parent's by more
                than the metric's BENCHMARK.json bound;
  regression    the change's median is worse than that bound allows;
  unresolved    the parent's own quartile spread is wider than the bound,
                and not every change run beats every parent run.

Metrics without a bound (the per-layer ones of a --trace 1 run) get only
"gain" or "-".
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_SHARE = 0.9
STEAL_MATCH_POINTS = 3.0  # most steal difference between a pair's two sides
PAIR_RERUNS = 2           # re-runs of a pair whose steal does not match
MIN_MATCHED_PAIRS = 10    # fewer matched pairs: "host too noisy"


# ---------------------------------------------------------------- statistics

def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    """The verdict for one metric from paired run values (parent[i] and
    change[i] ran with the same seed). Returns (verdict, wins)."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    spread = p_q3 - p_q1
    if (better(c_med, p_med, direction) and wins >= GAIN_SHARE * len(pairs)
            and abs(c_med - p_med) > spread):
        return "gain", wins
    if bound is None:
        return "-", wins
    if p_med == 0:
        return ("within bound" if c_med == 0 else "unresolved"), wins
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if spread / abs(p_med) > bound and not all_better:
        return "unresolved", wins
    worse_by = (c_med - p_med) / abs(p_med)
    if direction == "higher":
        worse_by = -worse_by
    return ("regression" if worse_by > bound else "within bound"), wins


# ---------------------------------------------------------------- host steal

def steal_of(result):
    """steal_pct from a run's `host:` line; None when none was recorded."""
    m = re.search(r"steal_pct=([0-9.]+)", result.get("host", ""))
    return float(m.group(1)) if m else None


def steal_matches(parent, change):
    """True when the two runs' steal differs by at most STEAL_MATCH_POINTS,
    or when either run has no steal on record."""
    ps, cs = steal_of(parent["result"]), steal_of(change["result"])
    return ps is None or cs is None or abs(ps - cs) <= STEAL_MATCH_POINTS


def run_pair(run_side, order):
    """Runs both sides of one pair in `order` via run_side(side, attempt),
    which returns the run's record; re-runs the pair up to PAIR_RERUNS
    times while the steal does not match. Returns every attempt's records."""
    attempts = []
    for attempt in range(PAIR_RERUNS + 1):
        recs = {side: run_side(side, attempt) for side in order}
        attempts.append(recs)
        if steal_matches(recs["parent"], recs["change"]):
            break
    return attempts


def matched_pairs(runs, wl):
    """Workload wl's pairs as {"parent": rec, "change": rec}: per pair, the
    first attempt with both sides whose steal matches. Returns (matched
    pairs in pair order, number of pairs run)."""
    attempts = {}
    for r in runs:
        if r["workload"] == wl:
            attempts.setdefault(r["pair"], {}).setdefault(r.get("attempt", 0), {})[r["side"]] = r
    matched = []
    for pair in sorted(attempts):
        for a in sorted(attempts[pair]):
            sides = attempts[pair][a]
            if len(sides) == 2 and steal_matches(sides["parent"], sides["change"]):
                matched.append(sides)
                break
    return matched, len(attempts)


# ---------------------------------------------------------------- reporting

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {}
    for m in bench["end_to_end"]:
        specs[m["name"]] = (m["better"], m["bound"], m["unit"])
    for m in bench.get("per_layer", []):
        specs[m["name"]] = (m["better"], None, m["unit"])
    return bench, specs


def report(runs, specs, out=sys.stdout):
    """Prints one table per workload from run records; returns the rows."""
    rows = []
    workloads = []
    for r in runs:
        if r["workload"] not in workloads:
            workloads.append(r["workload"])
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    for wl in workloads:
        pairs, total = matched_pairs(runs, wl)
        bad = [f"{r['side']}@seed{r['seed']}" for r in runs if r["workload"] == wl
               and (not r["result"].get("correct") or r["result"].get("failed", 1) != 0)]
        print(f"\n== {wl}: {len(pairs)} of {total} pairs matched within "
              f"{STEAL_MATCH_POINTS:g} steal points"
              + (f"; NOT CORRECT or failed ops: {', '.join(bad)}" if bad else
                 "; every run correct, 0 failed ops"), file=out)
        if not pairs:
            continue
        steals = {side: [steal_of(p[side]["result"]) for p in pairs] for side in ("parent", "change")}
        if all(v is not None for vs in steals.values() for v in vs):
            print(f"{'steal_pct':34} {fmt(quartiles(steals['parent'])):>28}"
                  f" {fmt(quartiles(steals['change'])):>28}", file=out)
        noisy = len(pairs) < MIN_MATCHED_PAIRS
        print(f"{'metric':34} {'parent med [q1, q3]':>28} {'change med [q1, q3]':>28}"
              f" {'ratio':>6} {'won':>6}  verdict", file=out)
        names = [n for n in specs if all(n in p[s]["result"].get("metrics", {})
                                         for p in pairs for s in p)]
        for name in names:
            direction, bound, unit = specs[name]
            par = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
            chg = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
            pq = quartiles(par)
            cq = quartiles(chg)
            v, wins = verdict(par, chg, direction, bound)
            if noisy:
                v = "host too noisy"
            ratio = cq[1] / pq[1] if pq[1] else float("nan")
            rows.append({"workload": wl, "metric": name, "unit": unit,
                         "parent": pq, "change": cq, "ratio": ratio,
                         "wins": wins, "pairs": len(pairs), "verdict": v})
            print(f"{name:34} {fmt(pq):>28} {fmt(cq):>28} {ratio:6.3f}"
                  f" {wins:>2}/{len(pairs):<3}  {v}", file=out)
    return rows


# ---------------------------------------------------------------- running

def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def export_parent(rev, dest):
    """Exports `rev` into dest (once per commit) with git archive."""
    sha = git("rev-parse", rev + "^{commit}")
    stamp = os.path.join(dest, ".perf_ab_rev")
    if os.path.exists(stamp) and open(stamp).read().strip() == sha:
        return sha
    if os.path.exists(dest):
        subprocess.run(["rm", "-rf", dest], check=True)
    os.makedirs(dest)
    tar = os.path.join(dest, ".perf_ab.tar")
    git("archive", "--format=tar", "-o", tar, sha)
    subprocess.run(["tar", "-xf", tar, "-C", dest], check=True)
    os.remove(tar)
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return sha


def build(src, target):
    """Configures and builds src/perfbench into target, as run.py would."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(target, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(src, "perfbench"), "-B", target,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", target, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_once(src, target, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(src, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, cwd=src, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": -1, "error": f"exit {proc.returncode}",
                "metrics": {}}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"correct": False, "failed": -1, "error": "no JSON line", "metrics": {}}
    # The host-noise record (calibration loop time, steal share) explains
    # an outlier run; keep it beside the metrics.
    result["host"] = next((l for l in lines if l.startswith("host:")), "")
    return result


def measure(args, bench):
    work = os.path.abspath(args.work_dir or os.path.join(ROOT, ".perf_ab"))
    os.makedirs(work, exist_ok=True)
    parent_src = os.path.join(work, "parent-src")
    sha = export_parent(args.parent, parent_src)
    sides = {"parent": (parent_src, os.path.join(work, "build-parent")),
             "change": (ROOT, os.path.join(work, "build-change"))}
    for src, target in sides.values():
        build(src, target)
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    seeds = [args.seed + i for i in range(args.pairs)]
    if args.held_out_seed is not None:
        seeds.append(args.held_out_seed)
    runs_path = os.path.join(work, "runs.jsonl")
    runs = []
    print(f"parent {sha[:12]} vs working tree; {len(seeds)} pairs x "
          f"{len(workloads)} workloads, {args.seconds} s, trace {args.trace}",
          file=sys.stderr)
    for wl in workloads:
        for i, seed in enumerate(seeds):
            def run_side(side, attempt):
                src, target = sides[side]
                result = run_once(src, target, wl, seed, args.seconds, args.trace)
                rec = {"workload": wl, "pair": i, "attempt": attempt, "seed": seed,
                       "side": side, "held_out": seed == args.held_out_seed,
                       "parent_rev": sha, "seconds": args.seconds, "trace": args.trace,
                       "result": result}
                runs.append(rec)
                with open(runs_path, "a") as f:
                    f.write(json.dumps(rec) + "\n")
                m = result.get("metrics", {})
                key = "open_p50_us" if "open_p50_us" in m else next(iter(m), None)
                shown = f"{key}={m[key]['value']}" if key else result.get("error", "")
                print(f"  {wl} pair {i} attempt {attempt} seed {seed} {side}: correct="
                      f"{result.get('correct')} failed={result.get('failed')} {shown} "
                      f"steal={steal_of(result)}", file=sys.stderr)
                return rec
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            attempts = run_pair(run_side, order)
            if not steal_matches(attempts[-1]["parent"], attempts[-1]["change"]):
                print(f"  {wl} pair {i}: steal never matched in {len(attempts)} attempts",
                      file=sys.stderr)
    return runs


# ---------------------------------------------------------------- self-test

def selftest():
    cases = [
        # (name, parent, change, direction, bound, expected verdict, wins)
        ("clear gain", [100, 102, 98, 101, 99, 100, 103, 97, 100, 101],
         [84, 85, 83, 86, 84, 85, 84, 83, 86, 85], "lower", 0.25, "gain", 10),
        ("tie is within bound", [100] * 10, [100] * 10, "lower", 0.25, "within bound", 0),
        ("8 of 10 is no gain", [100, 100, 100, 100, 100, 100, 100, 100, 90, 90],
         [80, 80, 80, 80, 80, 80, 80, 80, 95, 95], "lower", 0.25, "within bound", 8),
        ("gap inside parent spread", [80, 90, 100, 110, 120, 85, 95, 105, 115, 100],
         [79, 89, 99, 109, 119, 84, 94, 104, 114, 99], "lower", 0.25, "within bound", 10),
        ("regression past bound", [100] * 10, [130] * 10, "lower", 0.25, "regression", 0),
        ("worse inside bound", [100] * 10, [120] * 10, "lower", 0.25, "within bound", 0),
        ("wide spread", [50, 100, 150, 60, 140, 100, 90, 110, 55, 145],
         [60, 110, 160, 70, 150, 110, 100, 120, 65, 155], "lower", 0.25, "unresolved", 0),
        ("wide spread but every change run better", [150, 200, 250, 160, 240],
         [10, 20, 30, 15, 25], "lower", 0.25, "gain", 5),
        ("higher is better", [0.5] * 10, [0.7] * 10, "higher", None, "gain", 10),
        ("no bound, no gain", [1.0] * 10, [1.1] * 10, "lower", None, "-", 0),
    ]
    failed = 0
    for name, par, chg, direction, bound, want, want_wins in cases:
        got, wins = verdict(par, chg, direction, bound)
        ok = got == want and wins == want_wins
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got} ({wins} won)"
              + ("" if ok else f", want {want} ({want_wins} won)"))
    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        return not ok

    def rec(pair, side, value, steal=None, attempt=None):
        r = {"workload": "w", "pair": pair, "seed": pair, "side": side,
             "result": {"correct": True, "failed": 0,
                        "metrics": {"m": {"value": value, "unit": "us"}}}}
        if steal is not None:
            r["result"]["host"] = f"host: calibration_loop_s=0.1000 steal_pct={steal:.2f} " \
                                  "iowait_pct=0.00 (window, all CPUs)"
        if attempt is not None:
            r["attempt"] = attempt
        return r

    def table(runs):
        return report(runs, {"m": ("lower", 0.25, "us")}, out=open(os.devnull, "w"))

    # The report pairs runs by (workload, pair) and orders sides correctly;
    # records without an attempt or a host line (older runs.jsonl) still read.
    runs = [rec(i, side, v) for i in range(10)
            for side, v in (("parent", 100 + i % 3), ("change", 80 + i % 3))]
    rows = table(runs)
    failed += check("report pairs runs by seed",
                    len(rows) == 1 and rows[0]["verdict"] == "gain" and rows[0]["wins"] == 10)
    # Steal comes from the host line.
    failed += check("steal read from the host line",
                    steal_of(rec(0, "parent", 1, steal=12.5)["result"]) == 12.5
                    and steal_of(rec(0, "parent", 1)["result"]) is None)
    # A pair matches within 3 points of steal, not beyond.
    failed += check("steal 3 points apart matches, 3.1 does not",
                    steal_matches(rec(0, "parent", 1, steal=2.0), rec(0, "change", 1, steal=5.0))
                    and not steal_matches(rec(0, "parent", 1, steal=2.0),
                                          rec(0, "change", 1, steal=5.1)))
    # A pair whose steal misses is re-run, at most twice.
    for name, steals, want in (("matched pair runs once", [(4, 5)], 1),
                               ("missed pair re-runs until it matches", [(1, 9), (1, 2)], 2),
                               ("missed pair re-runs at most twice", [(1, 9)] * 5, 3)):
        it = iter(steals)
        current = {}

        def run_side(side, attempt):
            if side == "parent":
                current["pair"] = next(it)
            return rec(0, side, 1, steal=current["pair"][0 if side == "parent" else 1],
                       attempt=attempt)
        failed += check(name, len(run_pair(run_side, ["parent", "change"])) == want)
    # The report counts a re-run pair's matching attempt, not its first.
    runs = [rec(i, side, v, steal=1.0, attempt=0) for i in range(10)
            for side, v in (("parent", 100), ("change", 80))]
    runs[0] = rec(0, "parent", 100, steal=20.0, attempt=0)
    runs += [rec(0, "parent", 100, steal=2.0, attempt=1), rec(0, "change", 70, steal=1.0, attempt=1)]
    pairs, total = matched_pairs(runs, "w")
    failed += check("report takes a re-run pair's matching attempt",
                    len(pairs) == 10 and total == 10
                    and pairs[0]["change"]["result"]["metrics"]["m"]["value"] == 70)
    # Fewer than 10 matched pairs: no verdict.
    runs[-2] = rec(0, "parent", 100, steal=20.0, attempt=1)
    rows = table(runs)
    failed += check("9 matched pairs read host too noisy",
                    len(rows) == 1 and rows[0]["pairs"] == 9
                    and rows[0]["verdict"] == "host too noisy")
    print("selftest: " + ("passed" if failed == 0 else f"{failed} failed"))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--held-out-seed", type=int, default=None)
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    ap.add_argument("--work-dir", default=None)
    ap.add_argument("--report", metavar="RUNS_JSONL",
                    help="print the table of an earlier runs.jsonl and exit")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    bench, specs = load_benchmark()
    if args.report:
        with open(args.report) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    else:
        if args.seconds is None:
            args.seconds = bench.get("run_seconds", 20)
        runs = measure(args, bench)
    report(runs, specs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
