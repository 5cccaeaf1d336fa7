#!/usr/bin/env python3
"""Collect result sets of the benchmark and compare two of them.

    python3 benchmark/compare.py sweep OUT.json [--runs 10] [--seed 20050404]
                                          [--seconds N] [--workload NAME]...
    python3 benchmark/compare.py compare A.json B.json
    python3 benchmark/compare.py spread A.json

`sweep` runs the command of BENCHMARK.json on every workload, `--runs` times
untraced with seeds seed, seed+1, ... and once traced with the first seed,
and stores every result line. `spread` prints, per workload and end-to-end
metric, the median and the interquartile range as a share of the median,
against a third of the metric's bound. `compare` prints both medians with
quartiles, the ratio B/A with its base, and PASS / REGRESSED / UNRESOLVED
against the bound stored in BENCHMARK.json; metrics that are exact per seed
(makespan_s, efficiency) and the exact counts of the traced pass must be
equal. Exits 1 unless everything passes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics that are a pure function of the seed: two runs of one commit on
# one seed must print the same digits.
EXACT_END_TO_END = ("makespan_s", "efficiency")
EXACT_PER_LAYER_SUFFIXES = (".calls", ".generations", ".lookups", ".events",
                            ".plan_invocations", ".hit_rate", ".batch_fill",
                            ".generations_per_batch", ".max_pending", ".shed")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def sweep(args):
    bench = contract()
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    out = {"seconds": seconds, "workloads": {}}
    for name in names:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(bench["command"], name, args.seed + i, seconds, 0))
            print(f"{name} seed {args.seed + i}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        traced = run_once(bench["command"], name, args.seed, seconds, 1)
        out["workloads"][name] = {"untraced": runs, "traced": traced}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def series(result_set, workload, metric):
    return [r["metrics"][metric]["value"] for r in result_set["workloads"][workload]["untraced"]]


def spread(args):
    bench = contract()
    with open(args.a) as f:
        a = json.load(f)
    ok = True
    print(f"{'workload':<16}{'metric':<18}{'median':>14}{'iqr/median':>12}{'bound/3':>10}")
    for name in a["workloads"]:
        for m in bench["end_to_end"]:
            q1, med, q3 = quartiles(series(a, name, m["name"]))
            share = (q3 - q1) / med
            limit = m["bound"] / 3
            flag = "" if share <= limit or m["name"] == "setup_s" else "  WIDE"
            ok &= not flag
            print(f"{name:<16}{m['name']:<18}{med:>14.6g}{share:>12.4f}{limit:>10.4f}{flag}")
    return 0 if ok else 1


def worse_by(a, b, better):
    """Share of a's median by which b's median is worse."""
    return (b - a) / a if better == "lower" else (a - b) / a


def compare(args):
    bench = contract()
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    ok = True
    print(f"{'workload':<16}{'metric':<18}{'A q1/median/q3':>36}{'B q1/median/q3':>36}"
          f"{'B/A':>9}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for m in bench["end_to_end"]:
            va, vb = series(a, name, m["name"]), series(b, name, m["name"])
            qa, qb = quartiles(va), quartiles(vb)
            worse = worse_by(qa[1], qb[1], m["better"])
            b_all_better = all(
                (y < x) if m["better"] == "lower" else (y > x) for x in va for y in vb)
            if m["name"] in EXACT_END_TO_END:
                by_seed = {r["seed"]: r["metrics"][m["name"]]["value"]
                           for r in a["workloads"][name]["untraced"]}
                same = all(by_seed.get(r["seed"], r["metrics"][m["name"]]["value"])
                           == r["metrics"][m["name"]]["value"]
                           for r in b["workloads"][name]["untraced"])
                verdict = "PASS (exact)" if same else "REGRESSED (not exact)"
            elif worse > m["bound"]:
                verdict = "REGRESSED"
            elif (qa[2] - qa[0]) / qa[1] > m["bound"] and not b_all_better:
                verdict = "UNRESOLVED"
            else:
                verdict = "PASS"
            ok &= verdict.startswith("PASS")
            fmt = lambda q: "/".join(f"{x:.6g}" for x in q)
            print(f"{name:<16}{m['name']:<18}{fmt(qa):>36}{fmt(qb):>36}"
                  f"{qb[1] / qa[1]:>9.4f}  {verdict} (A median {qa[1]:.6g})")
        ta = a["workloads"][name]["traced"]
        tb = b["workloads"][name]["traced"]
        if ta["seed"] == tb["seed"]:
            for metric, cell in ta["metrics"].items():
                if metric.endswith(EXACT_PER_LAYER_SUFFIXES):
                    other = tb["metrics"][metric]["value"]
                    if cell["value"] != other:
                        ok = False
                        print(f"{name:<16}{metric:<40} {cell['value']} != {other}  NOT EXACT")
        for r in a["workloads"][name]["untraced"] + b["workloads"][name]["untraced"] + [ta, tb]:
            if not r["correct"] or r["failed"] != 0:
                ok = False
                print(f"{name:<16}seed {r['seed']}: {r['failed']} of {r['attempted']} failed")
    # plan_large_par must reproduce plan_large bit for bit.
    for rs, label in ((a, "A"), (b, "B")):
        w = rs["workloads"]
        if "plan_large" in w and "plan_large_par" in w:
            for m in EXACT_END_TO_END:
                if series(rs, "plan_large", m) != series(rs, "plan_large_par", m):
                    ok = False
                    print(f"{label}: plan_large_par {m} differs from plan_large")
    print("all PASS" if ok else "NOT all PASS")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("out")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seed", type=int, default=20050404)
    s.add_argument("--seconds", type=int, default=0)
    s.add_argument("--workload", action="append")
    s.set_defaults(func=sweep)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(func=compare)
    p = sub.add_parser("spread")
    p.add_argument("a")
    p.set_defaults(func=spread)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
