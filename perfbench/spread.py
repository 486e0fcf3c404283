#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

    python3 perfbench/spread.py --workloads fuzz-farm --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out set1.json
    python3 perfbench/spread.py --seeds 1-10 --out set2.json --compare set1.json

Runs perfbench/run.py once per workload and seed (from the repository root)
and reports, per end-to-end metric, the median over seeds and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, against the metric's bound in BENCHMARK.json. A spread above
a third of the bound is flagged. With --compare, the medians of the earlier
set are checked against this one (not worse by more than the bound), and the
determinism fingerprints of equal (workload, seed) pairs must be identical.
Exits non-zero when any run fails or any check does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    fingerprint = [l for l in lines if l.startswith("fingerprint")]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        return None, fingerprint
    return json.loads(lines[-1]), fingerprint


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        for seed in seeds_of(args.seeds):
            result, fingerprint = run_once(workload, seed, args.seconds)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED")
                ok = False
                continue
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(workload, []).append(
                {"seed": seed, "metrics": values, "fingerprint": fingerprint})
            print(f"{workload} seed {seed}: ok", flush=True)

    summary = {}
    for workload, rs in runs.items():
        print(f"\n{workload} ({len(rs)} runs)")
        print(f"  {'metric':<44} {'median':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]] for r in rs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            flag = ""
            if m["name"] != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
                ok = ok and spread <= bound
            print(f"  {m['name']:<44} {med:>14.6g} {spread:>8.4f} {bound:>6}{flag}")
            summary.setdefault(workload, {})[m["name"]] = med

    if args.compare:
        old = json.load(open(args.compare))
        print("\nagainst", args.compare)
        for workload, meds in summary.items():
            for m in metrics:
                name, bound = m["name"], m["bound"]
                before = old["medians"].get(workload, {}).get(name)
                if not before:
                    continue
                change = (meds[name] - before) / before
                worse = change > bound if m["better"] == "lower" else -change > bound
                ok = ok and not worse
                print(f"  {workload:<18} {name:<24} {change:+.4f}{'  WORSE' if worse else ''}")
            before_fp = {r["seed"]: r["fingerprint"]
                         for r in old["runs"].get(workload, [])}
            for r in runs[workload]:
                if r["seed"] in before_fp and before_fp[r["seed"]] != r["fingerprint"]:
                    print(f"  {workload} seed {r['seed']}: fingerprint differs")
                    ok = False

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"medians": summary, "runs": runs}, f, indent=1)
    print("\nall checks hold" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
