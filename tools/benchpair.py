"""Paired benchmark runs of two git refs, each from a clean export.

    python3 tools/benchpair.py --base REF --change REF --out BENCH.json \
        [--workloads sweep tall atlas cli] [--pairs 10] [--seeds 1 ...]

For every workload, seed and pair, each ref is exported with ``git archive``
into a fresh directory, ``perfbench/run.py --trace 0`` runs there, and the
export is removed. A clean export holds no byte code and no ``perfbench/out``
from an earlier run, so both sides start alike. Both sides run the same
benchmark: the change's ``perfbench/`` and ``BENCHMARK.json`` replace the
base's in the base export, and every run lasts the ``run_seconds`` of the
change's ``BENCHMARK.json``. The two sides alternate in the order
base, change, change, base, ... so that a slow drift of the machine falls on
both. The output file holds, per workload and side, the median and quartiles
of every end-to-end metric that ``BENCHMARK.json`` names, the count of pairs
in which the change is better, and every run as reported. The file is
rewritten after each workload and seed, so an interrupted session keeps what
it measured. Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ["sweep", "tall", "atlas", "cli"]
BENCH_PATHS = ["perfbench", "BENCHMARK.json"]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path, paths: list[str] = ()) -> None:
    data = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", commit,
                           *paths], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_once(commit: str, bench_commit: str, workload: str, seed: int, seconds: int,
             scratch: Path) -> dict:
    """One untraced run of ``bench_commit``'s perfbench in a fresh export of ``commit``."""
    dest = Path(tempfile.mkdtemp(prefix="benchpair-", dir=scratch))
    try:
        export(commit, dest)
        if commit != bench_commit:
            shutil.rmtree(dest / "perfbench", ignore_errors=True)
            (dest / "BENCHMARK.json").unlink(missing_ok=True)
            export(bench_commit, dest, BENCH_PATHS)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=dest, capture_output=True, text=True)
        wall = time.monotonic() - t0
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    out = {"exit": proc.returncode, "wall_s": round(wall, 2)}
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        out["error"] = (proc.stderr or proc.stdout)[-2000:]
        return out
    out.update(correct=doc["correct"], attempted=doc["attempted"], failed=doc["failed"],
               metrics={k: v["value"] for k, v in doc["metrics"].items()})
    return out


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0] if values else None
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def compare(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-side summaries and, per metric, the pairs the change wins."""
    sides = {side: [r for r in runs if r["side"] == side and "metrics" in r]
             for side in ("base", "change")}
    out = {side: {m: summary([r["metrics"][m] for r in rs])
                  for m in better} for side, rs in sides.items()}
    wins = {}
    for m, direction in better.items():
        pairs = {}
        for r in runs:
            if "metrics" in r:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"][m]
        sign = 1 if direction == "higher" else -1
        wins[m] = "%d of %d" % (
            sum(1 for p in pairs.values() if len(p) == 2
                and sign * (p["change"] - p["base"]) > 0),
            sum(1 for p in pairs.values() if len(p) == 2))
    out["change_better_in_pairs"] = wins
    out["median_ratio"] = {
        m: (out["change"][m]["median"] / out["base"][m]["median"]
            if out["base"][m]["median"] else None) for m in better}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the ref measured as before")
    ap.add_argument("--change", required=True, help="the ref measured as after")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--scratch", type=Path, default=None,
                    help="where the exports go (default: the system temp dir)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    commits = {side: git("rev-parse", "--verify", ref + "^{commit}")
               for side, ref in (("base", args.base), ("change", args.change))}
    bench = json.loads(git("show", commits["change"] + ":BENCHMARK.json"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    doc = {
        "base": {"ref": args.base, "commit": commits["base"]},
        "change": {"ref": args.change, "commit": commits["change"]},
        "benchmark_from": commits["change"],
        "base_benchmark_differs": bool(git("diff", "--name-only", commits["base"],
                                           commits["change"], "--", *BENCH_PATHS)),
        "seconds": seconds,
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "processor": platform.processor()},
        "results": [],
    }
    for workload in args.workloads:
        for seed in args.seeds:
            runs = []
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    run = run_once(commits[side], commits["change"], workload, seed,
                                   seconds, args.scratch)
                    run.update(pair=pair, side=side)
                    runs.append(run)
                    print("%s seed %d pair %d %-6s exit %d  %s ops/s" % (
                        workload, seed, pair, side, run["exit"],
                        run.get("metrics", {}).get("throughput_ops_per_s")), flush=True)
            doc["results"].append(dict(workload=workload, seed=seed, pairs=args.pairs,
                                       **compare(runs, better), runs=runs))
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    failed = [r for res in doc["results"] for r in res["runs"] if r["exit"] != 0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
