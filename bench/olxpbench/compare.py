#!/usr/bin/env python3
"""A/B comparison and run-to-run spread for olxpbench.

Compare a parent checkout with a change checkout:

  compare.py --parent DIR --change DIR [--pairs 10] [--workloads a,b]
             [--seconds S] [--seed-base N] [--json FILE]

Runs `bench/olxpbench/run.py --trace 0` in each checkout, alternating which
side runs first, for N pairs per workload (at least 5; a gain needs 10).
Pair i uses the same seed on both sides. For every (end-to-end metric,
workload) it reports each side's median and quartiles and a verdict:

  gain        the change is better in >= 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  REGRESSION  the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json
  unresolved  the parent's own spread (IQR / median) exceeds the bound, and
              not every change run beats every parent run
  ok          none of the above: no regression within the bound

It also compares failed/attempted per workload and the correctness flags.
Exits 1 on any regression, extra failures or incorrect run.

Measure the spread of one checkout (the basis of the bounds):

  compare.py --spread DIR [--runs 5] [--workloads a,b] [--seconds S]

Runs every workload --runs times with different seeds and prints, per
metric, the median, the quartiles, the spread (IQR / median, quartiles as
statistics.quantiles(n=4) gives them) and a suggested bound of three times
the spread, kept within [0.05, 0.25].

Stdlib only.
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 1200  # the first run in a checkout also builds


def load_spec(checkout):
    return json.loads((pathlib.Path(checkout) / "BENCHMARK.json").read_text())


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench/olxpbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"compare.py: {checkout} {workload} seed {seed}: "
                         f"no result (exit {proc.returncode})")
    result["exit"] = proc.returncode
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def spread_of(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def progress(msg):
    print(msg, file=sys.stderr, flush=True)


def cmd_spread(args):
    spec = load_spec(args.spread)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:  # interleaved, so slow drift hits all alike
            progress(f"spread: run {i + 1}/{args.runs} {w}")
            runs[w].append(run_once(args.spread, w, args.seed_base + i,
                                    seconds))
    report, wide = [], False
    print(f"{'workload':<16} {'metric':<18} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6} {'suggest':>7}")
    for w in workloads:
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = quartiles(vals)
            sp = spread_of(vals)
            suggest = min(0.25, max(0.05, math.ceil(3 * sp * 100) / 100))
            flag = ""
            if m["name"] != "setup_s" and sp > m["bound"]:
                flag, wide = "OVER BOUND", True
            elif sp > m["bound"] / 3:
                flag = "above bound/3"
            print(f"{w:<16} {m['name']:<18} {med:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {sp:>7.3f} {m['bound']:>6.2f} "
                  f"{suggest:>7.2f} {flag}")
            report.append({"workload": w, "metric": m["name"], "values": vals,
                           "median": med, "q1": q1, "q3": q3, "spread": sp,
                           "bound": m["bound"], "suggested_bound": suggest})
        bad = [r for r in runs[w] if not r["correct"] or r["exit"] != 0]
        if bad:
            wide = True
            print(f"{w:<16} {len(bad)} run(s) incorrect or failed")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(report, indent=2))
    return 1 if wide else 0


def cmd_compare(args):
    spec = load_spec(args.change)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    runs = {(s, w): [] for s in sides for w in workloads}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                progress(f"compare: pair {i + 1}/{args.pairs} {w} {side}")
                runs[(side, w)].append(run_once(sides[side], w,
                                                args.seed_base + i, seconds))
    failing, report = False, []
    print(f"{'workload':<16} {'metric':<18} {'parent median [q1,q3]':>32} "
          f"{'change median [q1,q3]':>32} {'wins':>6} {'worse':>7} "
          f"{'bound':>6} verdict")
    for w in workloads:
        par, chg = runs[("parent", w)], runs[("change", w)]
        n = len(par)
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in par]
            c = [r["metrics"][m["name"]]["value"] for r in chg]
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            wins = sum(better(ci, pi, m["better"]) for pi, ci in zip(p, c))
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (cmed - pmed) / pmed if pmed else 0.0
            all_better = all(better(ci, pi, m["better"])
                             for ci in c for pi in p)
            if (n >= 10 and wins >= math.ceil(0.9 * n)
                    and abs(cmed - pmed) > pq3 - pq1
                    and better(cmed, pmed, m["better"])):
                verdict = "gain"
            elif spread_of(p) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict, failing = "REGRESSION", True
            else:
                verdict = "ok"
            print(f"{w:<16} {m['name']:<18} "
                  f"{f'{pmed:.5g} [{pq1:.5g},{pq3:.5g}]':>32} "
                  f"{f'{cmed:.5g} [{cq1:.5g},{cq3:.5g}]':>32} "
                  f"{f'{wins}/{n}':>6} {100 * worse:>6.1f}% "
                  f"{m['bound']:>6.2f} {verdict}")
            report.append({"workload": w, "metric": m["name"], "parent": p,
                           "change": c, "wins": wins, "pairs": n,
                           "worse": worse, "bound": m["bound"],
                           "verdict": verdict})
        ratio = {}
        for side, rs in (("parent", par), ("change", chg)):
            att = sum(r["attempted"] for r in rs)
            fail = sum(r["failed"] for r in rs)
            ratio[side] = fail / att if att else 0.0
            ok = all(r["correct"] and r["exit"] == 0 for r in rs)
            if not ok:
                failing = True
            print(f"{w:<16} {side} failed_ratio {ratio[side]:.6f} "
                  f"({fail} / {att} attempted), all correct: {ok}")
        if ratio["change"] > ratio["parent"]:
            failing = True
            print(f"{w:<16} change fails more operations than parent")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(report, indent=2))
    return 1 if failing else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--spread")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--workloads", type=lambda s: s.split(","))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--json")
    args = ap.parse_args(argv)
    if args.spread:
        if args.runs < 5:
            ap.error("--spread needs --runs >= 5")
        return cmd_spread(args)
    if not (args.parent and args.change):
        ap.error("give --parent and --change, or --spread")
    if args.pairs < 5:
        ap.error("a comparison needs --pairs >= 5 (>= 10 to report a gain)")
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
