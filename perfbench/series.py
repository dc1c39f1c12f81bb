#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records every result.

One checkout (the one holding this script, or --checkout DIR):

    python3 perfbench/series.py --out runs.jsonl --seeds 1-10

Parent and change, in alternating pairs (seed 1: base first, seed 2: head
first, ...), for perfbench/compare.py:

    python3 perfbench/series.py --base PARENT_DIR --head CHANGE_DIR \
        --out-base base.jsonl --out-head head.jsonl --seeds 1-10

Each line of an output file is one run: {"workload", "seed", "trace",
"exit", "result"}; "result" is the run's last stdout line, parsed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(checkout, workload, seed, trace):
    bench = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": done.returncode, "result": result}


def append(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")
    status = "ok" if record["exit"] == 0 else f"exit {record['exit']}"
    print(f"{path}: {record['workload']} seed {record['seed']} {status}",
          file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="ledger,games,calls")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--checkout", default=str(HERE.parent))
    p.add_argument("--out")
    p.add_argument("--base")
    p.add_argument("--head")
    p.add_argument("--out-base")
    p.add_argument("--out-head")
    a = p.parse_args()
    paired = a.base is not None or a.head is not None
    if paired and not (a.base and a.head and a.out_base and a.out_head):
        p.error("pairs need --base, --head, --out-base and --out-head")
    if not paired and not a.out:
        p.error("--out is required")

    failures = 0
    for workload in a.workloads.split(","):
        for i, seed in enumerate(seeds(a.seeds)):
            if not paired:
                record = run_one(a.checkout, workload, seed, a.trace)
                append(a.out, record)
                failures += record["exit"] != 0
                continue
            sides = [("base", a.base, a.out_base), ("head", a.head, a.out_head)]
            if i % 2 == 1:
                sides.reverse()
            for _, checkout, out in sides:
                record = run_one(checkout, workload, seed, a.trace)
                append(out, record)
                failures += record["exit"] != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
