#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or reports the spread of one set.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl
    python3 perfbench/compare.py --spread RUNS.jsonl

Input files are perfbench/series.py output. Metric directions and bounds
come from BENCHMARK.json.

Compare: runs pair up by (workload, seed). For each end-to-end metric and
workload the verdict is
  better        the head wins at least 9 of 10 pairs (ties count for
                neither) and the medians differ, in the metric's better
                direction, by more than the base's interquartile range;
  worse         the head's median is worse than the base's by more than
                the metric's bound;
  unresolved    the base's own interquartile range is wider than the bound,
                and not every head run beats every base run;
  within bound  otherwise.
Any rise in the share of failed operations is flagged. Exit status 1 when
something is worse, a failed share rose, or a run failed.

Spread: per workload and metric, the median and the interquartile range as
a share of the median (statistics.quantiles(n=4)), next to the bound.
Exit status 1 when a spread (setup_s excepted) exceeds its bound, or the
failed share differs between runs.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    runs = defaultdict(dict)  # workload -> seed -> record
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            runs[r["workload"]][r["seed"]] = r
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs(bench, traced):
    if traced:
        return [dict(m, bound=None) for m in bench["per_layer"]]
    return bench["end_to_end"]


def value(record, name):
    res = record.get("result") or {}
    m = res.get("metrics", {}).get(name)
    return None if m is None else m["value"]


def failed_share(records):
    att = sum((r.get("result") or {}).get("attempted", 0) for r in records)
    fail = sum((r.get("result") or {}).get("failed", 0) for r in records)
    return fail / att if att else 0.0


def bad_runs(records):
    return [r["seed"] for r in records
            if r["exit"] != 0 or not (r.get("result") or {}).get("correct")]


def spread(bench, path):
    runs = load(path)
    status = 0
    for workload, by_seed in sorted(runs.items()):
        records = list(by_seed.values())
        traced = records[0]["trace"] == 1
        shares = {((r.get("result") or {}).get("failed", 0),
                   (r.get("result") or {}).get("attempted", 1))
                  for r in records}
        ratios = {f / a for f, a in shares}
        print(f"{workload}: {len(records)} runs, failed share "
              f"{sorted(ratios)}" + ("  (DIFFERS)" if len(ratios) > 1 else ""))
        if len(ratios) > 1:
            status = 1
        if bad_runs(records):
            print(f"  failed or incorrect runs: seeds {bad_runs(records)}")
            status = 1
        for spec in metric_specs(bench, traced):
            vals = [v for v in (value(r, spec["name"]) for r in records)
                    if v is not None]
            if not vals:
                print(f"  {spec['name']:36s} missing")
                status = 1
                continue
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / abs(med) if med else 0.0
            bound = spec.get("bound")
            note = ""
            if bound is not None:
                note = f"bound {bound:.2f}"
                if rel > bound and spec["name"] != "setup_s":
                    note += "  EXCEEDS"
                    status = 1
                elif rel > bound / 3:
                    note += "  above a third of the bound"
            print(f"  {spec['name']:36s} median {med:14.4f} {spec['unit']:7s}"
                  f" spread {rel:7.4f}  {note}")
    return status


def compare(bench, base_path, head_path):
    base, head = load(base_path), load(head_path)
    status = 0
    for workload in sorted(set(base) & set(head)):
        seeds = sorted(set(base[workload]) & set(head[workload]))
        b_recs = [base[workload][s] for s in seeds]
        h_recs = [head[workload][s] for s in seeds]
        print(f"{workload}: {len(seeds)} pairs")
        for label, recs in (("base", b_recs), ("head", h_recs)):
            if bad_runs(recs):
                print(f"  {label} failed or incorrect runs: seeds "
                      f"{bad_runs(recs)}")
                status = 1
        b_share, h_share = failed_share(b_recs), failed_share(h_recs)
        if h_share > b_share:
            print(f"  FAILED SHARE ROSE: {b_share:.6f} -> {h_share:.6f}")
            status = 1
        for spec in bench["end_to_end"]:
            pairs = [(value(b, spec["name"]), value(h, spec["name"]))
                     for b, h in zip(b_recs, h_recs)]
            pairs = [(b, h) for b, h in pairs if b is not None and h is not None]
            if not pairs:
                print(f"  {spec['name']:20s} missing")
                status = 1
                continue
            sign = 1 if spec["better"] == "higher" else -1
            bv = [b for b, _ in pairs]
            hv = [h for _, h in pairs]
            bq1, bmed, bq3 = quartiles(bv)
            hmed = statistics.median(hv)
            wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
            gain = sign * (hmed - bmed)  # > 0: head better
            worse_rel = -gain / abs(bmed) if bmed else 0.0
            spread_rel = (bq3 - bq1) / abs(bmed) if bmed else 0.0
            all_better = min(sign * h for h in hv) > max(sign * b for b in bv)
            if wins >= 0.9 * len(pairs) and gain > (bq3 - bq1):
                verdict = "better"
            elif spread_rel > spec["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_rel > spec["bound"]:
                verdict = "worse"
                status = 1
            else:
                verdict = "within bound"
            print(f"  {spec['name']:20s} base {bmed:14.4f} head {hmed:14.4f} "
                  f"{spec['unit']:7s} change {-worse_rel:+8.2%} "
                  f"wins {wins}/{len(pairs)}  {verdict}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="*")
    p.add_argument("--spread", metavar="RUNS")
    p.add_argument("--bench", default=str(HERE.parent / "BENCHMARK.json"))
    a = p.parse_args()
    bench = json.loads(Path(a.bench).read_text())
    if a.spread:
        return spread(bench, a.spread)
    if len(a.files) != 2:
        p.error("give BASE and HEAD run files, or --spread RUNS")
    return compare(bench, *a.files)


if __name__ == "__main__":
    sys.exit(main())
