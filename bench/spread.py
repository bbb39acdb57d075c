"""Run-to-run spread and steadiness checks for the benchmark in run.py.

    python3 bench/spread.py spread --seeds 1-10
    python3 bench/spread.py steady --workload solve-tower --seed 1

``spread`` runs one end-to-end run per seed of every workload (or of
``--workload``) and prints, per metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median next to the metric's bound in BENCHMARK.json, with the failed
fraction and the latency sample count.  ``--save FILE`` merges the figures
into a JSON file.

``steady`` runs the traced benchmark twice on one seed and fails unless every
count (``*.calls``, branch counts, maxima) and the stdout digest repeat
exactly; ``--save FILE`` then stores the first run's per-layer metrics.
Both check that a run reports exactly the metrics BENCHMARK.json names.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, traced):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    info = dict(line.strip().split(": ", 1) for line in lines[:-1] if ": " in line)
    expected = {m["name"] for m in spec()["per_layer" if traced else "end_to_end"]}
    if set(result["metrics"]) != expected:
        sys.exit(f"metric names differ from BENCHMARK.json: {set(result['metrics']) ^ expected}")
    return result, info


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def cmd_spread(args):
    workloads = [w["name"] for w in spec()["workloads"]]
    for workload in workloads if args.workload == "all" else [args.workload]:
        spread_one(args, workload)


def spread_one(args, workload):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    values, failed_frac = {}, []
    for seed in args.seeds:
        result, info = run(workload, seed, args.seconds, False)
        failed_frac.append(result["failed"] / result["attempted"])
        samples = info["latency samples (one median time per job)"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(
            f"{workload} seed {seed}: rounds {info['rounds']}  latency samples {samples}  "
            f"failed {result['failed']}/{result['attempted']}  "
            + "  ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
            flush=True,
        )
    print(f"{workload}: {len(args.seeds)} runs, failed_frac max {max(failed_frac)} ratio")
    summary = {"failed_frac": max(failed_frac)}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        print(
            f"  {name:15s} median {median:9.5g} {units[name]:6s} q1 {q1:9.5g}  q3 {q3:9.5g}  "
            f"spread {spread:.4f}  bound {bounds[name]}  spread/bound {spread / bounds[name]:.2f}"
        )
    if args.save:
        path = Path(args.save)
        saved = json.loads(path.read_text()) if path.exists() else {}
        saved["python"] = platform.python_version()
        saved.setdefault("workloads", {}).setdefault(workload, {}).update(
            {"seeds": args.seeds, "seconds": args.seconds, "metrics": summary}
        )
        path.write_text(json.dumps(saved, indent=1) + "\n")


def cmd_steady(args):
    (first, i1), (second, i2) = (run(args.workload, args.seed, 1, True) for _ in range(2))
    counts = [
        name
        for name, m in first["metrics"].items()
        if m["unit"] in ("count", "calls/job", "ratio") and name != "trace.jobs"
    ]
    bad = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
    if i1["stdout_sha256"] != i2["stdout_sha256"]:
        bad.append("stdout_sha256")
    print(f"{args.workload} seed {args.seed}: {len(counts)} counts and the stdout digest compared")
    for name in bad:
        print(f"  DIFFERS {name}")
    if args.save and not bad:
        path = Path(args.save)
        saved = json.loads(path.read_text()) if path.exists() else {}
        saved.setdefault("workloads", {}).setdefault(args.workload, {})["per_layer"] = {
            "seed": args.seed,
            "metrics": {name: m["value"] for name, m in first["metrics"].items()},
        }
        path.write_text(json.dumps(saved, indent=1) + "\n")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", default="all")
    sp.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    sp.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    sp.add_argument("--save")
    st = sub.add_parser("steady")
    st.add_argument("--workload", required=True)
    st.add_argument("--seed", type=int, default=1)
    st.add_argument("--save")
    args = ap.parse_args()
    return (cmd_spread if args.command == "spread" else cmd_steady)(args)


if __name__ == "__main__":
    sys.exit(main())
