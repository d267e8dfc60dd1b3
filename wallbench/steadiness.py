#!/usr/bin/env python3
"""Repeats the wall-clock benchmark and reports each metric's spread.

    python3 wallbench/steadiness.py --runs 10 --first-seed 101 \
        --out wallbench/evidence/set1.jsonl
    python3 wallbench/steadiness.py --summarize wallbench/evidence/set1.jsonl \
        wallbench/evidence/set2.jsonl

The first form runs every workload --runs times, one seed per run, in
interleaved order (so a slow spell of the host hits every workload alike),
appends one JSON record per run (host facts + the result line) to --out, and
prints the summary. For each end-to-end metric the summary gives the median,
the quartiles from statistics.quantiles(values, n=4), and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json, and the
spread of the same metric as measured before host-speed scaling (the run's
"raw" line). Given two sets, it also gives the change of the second median
against the first.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    rec = {"workload": workload, "seed": seed, "trace": trace}
    layers = {}
    for line in lines:
        if line.startswith("host "):
            rec["host"] = json.loads(line[len("host "):])
        elif line.startswith("measured "):
            # measured <n> batches (<tuples> tuples) in <k> set-up segments
            rec["measured_batches"] = int(line.split()[1])
        elif line.startswith("set-ups (s):"):
            rec["setups_s"] = [float(v) for v in line.split()[2:]]
        elif line.startswith("raw "):
            rec["raw"] = json.loads(line[len("raw "):])
        elif line.startswith("layer "):
            # layer <name> <ms> ms/batch <share>%
            parts = line.split()
            layers[parts[1]] = float(parts[2])
    rec["result"] = json.loads(lines[-1])
    if trace:
        rec["layer_ms"] = layers
    return rec


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(sets, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for w in [w["name"] for w in spec["workloads"]]:
        for name, bound in bounds.items():
            medians = []
            row = {"workload": w, "metric": name, "bound": bound, "sets": []}
            for records in sets:
                runs = [r for r in records
                        if r["workload"] == w and r["trace"] == 0]
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                if len(values) < 2:
                    continue
                q1, med, q3 = quartiles(values)
                medians.append(med)
                s = {"n": len(values), "q1": q1, "median": med, "q3": q3,
                     "spread": (q3 - q1) / med}
                # The same metric as measured, before host-speed scaling.
                raw = [r["raw"][name] for r in runs if name in r.get("raw", {})]
                if len(raw) == len(values):
                    q1, med, q3 = quartiles(raw)
                    s["raw_spread"] = (q3 - q1) / med
                row["sets"].append(s)
            if len(medians) == 2:
                row["drift"] = (medians[1] - medians[0]) / medians[0]
            if row["sets"]:
                rows.append(row)
    return rows


def print_layer_table(records, out=sys.stdout):
    """Where a batch's time goes: median self time per layer, its share of
    all layers' time in a traced batch, and trace.coverage, over the traced
    runs."""
    for w in sorted({r["workload"] for r in records if r["trace"] == 1}):
        runs = [r for r in records if r["workload"] == w and r["trace"] == 1]
        metrics = lambda name: [r["result"]["metrics"][name]["value"]
                                for r in runs]
        layers = sorted({k for r in runs for k in r["layer_ms"]})
        rows = [(l, statistics.median([r["layer_ms"].get(l, 0) for r in runs]))
                for l in layers]
        batch_ms = sum(ms for _, ms in rows)
        print("\n%s (%d traced runs; layers %.2f ms per traced batch, "
              "trace.coverage %.3f [%.3f-%.3f])\n" % (
                  w, len(runs), batch_ms,
                  statistics.median(metrics("trace.coverage")),
                  min(metrics("trace.coverage")),
                  max(metrics("trace.coverage"))),
              file=out)
        print("| layer | self ms/batch | share of batch |", file=out)
        print("|---|---|---|", file=out)
        for layer, ms in sorted(rows, key=lambda x: -x[1]):
            print("| %s | %.3f | %.1f%% |" % (layer, ms, 100 * ms / batch_ms),
                  file=out)
        print("\n| per-layer metric | unit | median | min | max |", file=out)
        print("|---|---|---|---|---|", file=out)
        for name, m in runs[0]["result"]["metrics"].items():
            values = metrics(name)
            if any(values):
                print("| %s | %s | %.6g | %.6g | %.6g |" % (
                    name, m["unit"], statistics.median(values), min(values),
                    max(values)), file=out)


def print_table(rows, out=sys.stdout):
    two = any("drift" in r for r in rows)
    header = ("| workload | metric | bound | n | Q1 | median | Q3 | spread "
              "| raw spread |")
    if two:
        header += (" n | Q1 | median | Q3 | spread | raw spread "
                   "| median drift |")
    print(header, file=out)
    print("|" + "---|" * (header.count("|") - 1), file=out)
    for r in rows:
        cells = [r["workload"], r["metric"], "%.2f" % r["bound"]]
        for s in r["sets"]:
            cells += [str(s["n"]), "%.6g" % s["q1"], "%.6g" % s["median"],
                      "%.6g" % s["q3"], "%.4f" % s["spread"],
                      "%.4f" % s["raw_spread"] if "raw_spread" in s else "-"]
        if "drift" in r:
            cells.append("%+.4f" % r["drift"])
        print("| " + " | ".join(cells) + " |", file=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSONL file to append run records to")
    parser.add_argument("--summarize", nargs="+", metavar="JSONL")
    args = parser.parse_args()
    spec = load_spec()

    if args.summarize:
        sets = []
        for path in args.summarize:
            with open(path) as f:
                sets.append([json.loads(line) for line in f if line.strip()])
        rows = summarize(sets, spec)
        if rows:
            print_table(rows)
        print_layer_table([r for records in sets for r in records])
        return 0

    records = []
    for i in range(args.runs):
        for w in [w["name"] for w in spec["workloads"]]:
            rec = run_once(w, args.first_seed + i, spec["run_seconds"],
                           args.trace)
            records.append(rec)
            print("%s seed %d: %s" % (w, rec["seed"], json.dumps(
                {k: v["value"] for k, v in rec["result"]["metrics"].items()})),
                  file=sys.stderr)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(rec) + "\n")
    if args.trace == 0:
        print_table(summarize([records], spec))
    else:
        print_layer_table(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
