"""snakealg benchmark runner.

    python3 perfbench/run.py --workload {sweep,tall,atlas,cli} --seed N \
        --seconds S --trace {0,1}

Generates the workload's inputs from the seed, runs them in fresh worker
processes (``worker.py``) and prints every metric with its unit; the last
line of stdout is one JSON object.  ``--trace 0`` reports the end-to-end
metrics of an untraced run; ``--trace 1`` reports the per-layer metrics of a
traced run of a fixed number of ops, next to an untraced run of the same ops.
The exit code is 1 when an output check fails, 2 when the library is missing.
See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPS = 11
RUN_BUDGET_S = 170.0
ROUND_CAP_S = 70.0

VERBS = ("validate", "sets", "factor", "exchange", "iso", "height", "cluster",
         "enumerate", "selftest")

# name -> (unit, better)
END_TO_END = {
    "throughput_ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "success_ratio": ("ratio", "higher"),
}

SELF_TIMES = {
    "core.parse.self_s": ("core.parse_snake", "core.parse_monoid_element"),
    "explorer.enumerate_snakes.self_s": ("explorer.enumerate_snakes",),
    "snakes.classify.self_s": ("snakes.classify",),
    "snakes.check_enumeration.self_s": ("snakes.check_enumeration",),
    "primesets.pr_set.self_s": ("primesets.pr_set",),
    "primesets.fr_set.self_s": ("primesets.fr_set",),
    "primesets.descriptor_index.self_s": ("primesets.descriptor_index",),
    "factorizer.factor.self_s": ("factorizer.factor",),
    "grothendieck.exchange_triple.self_s": ("grothendieck.exchange_triple",),
    "heightmap.height_profile.self_s": ("heightmap.height_profile",),
    "heightmap.pr_bijection.self_s": ("heightmap.pr_bijection",),
    "heightmap.cluster_export.self_s": ("heightmap.cluster_export",),
    "isomorph.build_iso.self_s": ("isomorph.build_iso",),
}

# name -> (unit, better)
PER_LAYER = {name: ("s", "lower") for name in SELF_TIMES}
PER_LAYER.update({
    "core.monoid_ops.calls": ("count", "lower"),
    "core.gc_collections": ("count", "lower"),
    "snakes.classify.calls": ("count", "lower"),
    "factorizer.factor.calls": ("count", "lower"),
    "factorizer.factor.outer_share": ("ratio", "lower"),
    "factorizer.factor.cache_hit_ratio": ("ratio", "higher"),
    "factorizer.factor.cache_lookups": ("count", "lower"),
    "factorizer.factor.us_per_height": ("us", "lower"),
    "factorizer.recursion_errors": ("count", "lower"),
    "caches.entries_total": ("count", "lower"),
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
})
PER_LAYER.update({"cli.%s.p50_ms" % v: ("ms", "lower") for v in VERBS})
PER_LAYER.update({
    "fail_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})


# end-to-end metrics reported at reference host speed (see hostspeed.py)
TIMES = ("throughput_ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s")


class RunError(Exception):
    """The run could not produce a result."""


def percentile(values, q):
    """Nearest-rank percentile; q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform()}


class Runner:
    def __init__(self, workload: str, seed: int, ops: int):
        import workloads
        self.wl = workloads.WORKLOADS[workload]
        self.ops = ops or self.wl.fixed_ops
        # the golden digest applies to the default seed at the default size
        self.seed_checked = seed == DEFAULT_SEED and self.ops == self.wl.fixed_ops
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.seed = seed
        self.inputs = self.round_inputs(0)

    def round_inputs(self, k: int) -> dict:
        """Inputs of round k.  Round 0 is the seed's own sample, the one
        that is checked against the golden digest and traced; every later
        round draws a fresh sample of the same design."""
        key = "%s:%d" % (self.wl.name, self.seed) + (":%d" % k if k else "")
        return self.wl.generate(random.Random(key), self.ops)

    def spawn(self, inputs=None, **job) -> dict:
        """Run one worker, on round 0's inputs unless given others.  Its
        result gains its set-up time and, for a round, its op latencies and
        phase time, raw and at reference host speed (``setup_s``,
        ``setup_ref_s``, ``latency_s`` ...)."""
        job.update(workload=self.wl.name, inputs=self.inputs if inputs is None else inputs)
        payload = json.dumps(job).encode()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunError("run budget of %.0f s spent" % RUN_BUDGET_S)
        before = hostspeed.probe()
        t0 = time.monotonic()
        p = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
        try:
            out, err = p.communicate(payload, timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            raise RunError("worker exceeded the run budget")
        if p.returncode != 0:
            raise RunError("worker exited %d:\n%s" % (p.returncode, err.decode()[-4000:]))
        result = json.loads(out)
        # the spawn is scaled by a probe here and the worker's first one
        result["setup_s"] = result["ready"] - t0
        result["setup_ref_s"] = result["setup_s"] * hostspeed.REF_S * 2 / (
            before + result["probes"][0][2])
        if "spawn_probes" in result:
            add_times(result, hostspeed.Probes(result["spawn_probes"], hostspeed.REF_SPAWN_S))
        elif "op_spans" in result:
            add_times(result, hostspeed.Probes(result["probes"]))
        return result

    def round(self, check: bool, inputs=None, **job) -> dict:
        """One worker running all ops; ``check`` adds the output checks."""
        return self.spawn(inputs, mode="run", ops=self.ops, cap_s=ROUND_CAP_S, check=check,
                          digest_ops=self.ops if check and self.seed_checked else 0, **job)

    def rounds(self, seconds: float) -> list[dict]:
        """Rounds in fresh workers until ``seconds`` are spent, at least one,
        each on its own inputs; only the first checks its outputs."""
        out = []
        t0 = time.monotonic()
        walls = []
        while True:
            inputs = self.round_inputs(len(out))
            t1 = time.monotonic()
            out.append(self.round(check=not out, inputs=inputs))
            walls.append(time.monotonic() - t1 - out[-1]["check_s"])
            if time.monotonic() - t0 + max(walls) > seconds:
                return out


def add_times(result: dict, probes: hostspeed.Probes) -> None:
    """Op latencies and phase time of a round, raw and at reference speed.
    The phase is the prelude plus the ops, without the loop's upkeep."""
    a, b = result["prelude"]
    prelude = b - a - probes.inside(a, b)
    spans = result["op_spans"]
    lat = [t1 - t0 for t0, t1 in spans]
    lat_ref = [(t1 - t0) * probes.scale(t0, t1) for t0, t1 in spans]
    result.update(latency_s=lat, latency_ref_s=lat_ref, phase_s=prelude + sum(lat),
                  phase_ref_s=prelude * probes.scale(a, b) + sum(lat_ref))


def fold_digest(op_digests, excluded) -> str:
    skip = set(excluded)
    body = "\n".join("%d:%s" % (i, d) for i, d in enumerate(op_digests) if i not in skip)
    return hashlib.sha256(body.encode()).hexdigest()


def golden_status(wl, result, record: bool) -> tuple[bool, str]:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    digests = result["op_digests"]
    if record:
        if result["bad_checks"] or not result["prelude_ok"]:
            return False, "not recorded: outputs fail their checks"
        excluded = [i for i, d in enumerate(digests) if d.startswith("FAILED:")]
        golden[wl.name] = {"seed": DEFAULT_SEED, "ops": len(digests), "excluded": excluded,
                           "digest": fold_digest(digests, excluded),
                           "prelude": result["prelude_digest"]}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return True, "recorded"
    entry = golden.get(wl.name)
    if entry is None:
        return False, "no golden digest recorded for %s" % wl.name
    if len(digests) != entry["ops"]:
        return False, "digest covers %d ops, golden %d" % (len(digests), entry["ops"])
    if fold_digest(digests, entry["excluded"]) != entry["digest"]:
        return False, "canonical outputs differ from the golden digest"
    if result["prelude_digest"] != entry["prelude"]:
        return False, "enumeration differs from the golden digest"
    return True, "match"


def failures(result) -> int:
    return sum(1 for e in result["errors"] if e is not None)


def end_to_end(drv: Runner, setups: list, rounds: list, scaled: bool) -> tuple[dict, dict]:
    """Figures over the ops of all rounds, with times at reference host
    speed (the reported ones) or raw; peak RSS is the median over rounds."""
    def rss_kb(r):
        return max(r["child_rss_kb"]) if drv.wl.name == "cli" else r["rss_kb"]

    lat_key, phase = ("latency_ref_s", "phase_ref_s") if scaled else ("latency_s", "phase_s")
    lat = [t for r in rounds for t in r[lat_key]]
    n = sum(r["attempted"] for r in rounds)
    values = {
        "throughput_ops_per_s": n / sum(r[phase] for r in rounds),
        "latency_p50_ms": percentile(lat, 0.5) * 1000.0,
        "latency_p90_ms": percentile(lat, 0.9) * 1000.0,
        "peak_rss_mb": statistics.median(rss_kb(r) for r in rounds) / 1024.0,
        "setup_s": statistics.median(s["setup_ref_s" if scaled else "setup_s"] for s in setups),
        "success_ratio": 1.0 - sum(failures(r) for r in rounds) / n,
    }
    pooled = "%d ops of %d rounds" % (n, len(rounds))
    samples = {k: pooled for k in values}
    samples["setup_s"] = "%d set-ups" % len(setups)
    return values, samples


def slope_us_per_height(result) -> tuple[float, int]:
    """Least-squares slope of latency on height over first-time successes."""
    pts = [(h, t * 1e6) for h, t, rep, e in zip(result["heights"], result["latency_ref_s"],
                                                result["repeated"], result["errors"])
           if not rep and e is None]
    if len(pts) < 2:
        return 0.0, len(pts)
    mx = statistics.fmean(h for h, _ in pts)
    my = statistics.fmean(t for _, t in pts)
    sxx = sum((h - mx) ** 2 for h, _ in pts)
    sxy = sum((h - mx) * (t - my) for h, t in pts)
    return (sxy / sxx if sxx else 0.0), len(pts)


def child_median_ms(argv, reps=7) -> float:
    """Median wall time of a child, scaled by the spawn probe as CLI calls are."""
    import workloads
    host = hostspeed.HostClock(hostspeed.spawn_probe)
    spans = []
    for _ in range(reps):
        t0 = time.monotonic()
        workloads.run_child(argv, env=workloads.cli_env())
        spans.append((t0, time.monotonic()))
        host.probe()
    probes = hostspeed.Probes(host.rows, hostspeed.REF_SPAWN_S)
    return statistics.median((b - a) * probes.scale(a, b) for a, b in spans) * 1000.0


def per_layer(drv: Runner, ref: dict, traced: dict) -> tuple[dict, dict]:
    import workloads
    layers = traced["layers"]
    values: dict = {}
    notes: dict = {}
    for metric, names in SELF_TIMES.items():
        present = [n for n in names if n in layers]
        values[metric] = sum(layers[n]["self_s"] for n in present)
        if not present:
            notes[metric] = "; ".join(traced["absent"].get(n, "no span") for n in names)
    values["core.monoid_ops.calls"] = traced["monoid_calls"]
    values["core.gc_collections"] = ref["gc_collections"]
    for name, metric in (("snakes.classify", "snakes.classify.calls"),
                         ("factorizer.factor", "factorizer.factor.calls")):
        values[metric] = layers.get(name, {}).get("calls", 0)
    factor_row = layers.get("factorizer.factor", {"outer_s": 0.0})
    values["factorizer.factor.outer_share"] = factor_row["outer_s"] / traced["phase_s"]
    hits, lookups = ref.get("factor_cache", (0, 0))
    values["factorizer.factor.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    values["factorizer.factor.cache_lookups"] = lookups
    if "factor_cache" not in ref:
        notes["factorizer.factor.cache_hit_ratio"] = "factor has no cache_info"
    if drv.wl.name == "tall":
        values["factorizer.factor.us_per_height"], pts = slope_us_per_height(ref)
        notes["factorizer.factor.us_per_height"] = "slope over %d first-time successes" % pts
    else:
        values["factorizer.factor.us_per_height"] = 0.0
        notes["factorizer.factor.us_per_height"] = "tall only"
    if drv.wl.name in ("tall", "cli"):
        calls, errors = drv.wl.limit_probe(drv.inputs)
        values["factorizer.recursion_errors"] = errors
        notes["factorizer.recursion_errors"] = "limit probe: %d of %d factor calls at height %d" % (
            errors, calls, workloads.PROBE_HEIGHT)
    else:
        values["factorizer.recursion_errors"] = ref["recursion_errors"]
    values["caches.entries_total"] = (traced if drv.wl.name == "cli" else ref)["cache_entries"]
    if drv.wl.name == "cli":
        floor = child_median_ms([sys.executable, "-c", "pass"])
        imp = child_median_ms([sys.executable, "-c", "import snakealg.cli"])
        values["cli.interpreter_ms"] = floor
        values["cli.import_ms"] = imp - floor
        by_verb: dict = {}
        for verb, t in zip(ref["verbs"], ref["latency_ref_s"]):
            by_verb.setdefault(verb, []).append(t * 1000.0)
        for verb in VERBS:
            ts = by_verb.get(verb, [])
            values["cli.%s.p50_ms" % verb] = statistics.median(ts) if ts else 0.0
            notes["cli.%s.p50_ms" % verb] = "%d calls" % len(ts)
    else:
        for metric in ["cli.interpreter_ms", "cli.import_ms"] + ["cli.%s.p50_ms" % v for v in VERBS]:
            values[metric] = 0.0
            notes[metric] = "cli only"
    values["fail_ratio"] = failures(ref) / ref["attempted"]
    values["trace.overhead_ratio"] = traced["phase_ref_s"] / ref["phase_ref_s"] - 1.0
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "tall", "atlas", "cli"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="ops of a round (default: the workload's fixed "
                         "count, the only size whose counts compare across runs)")
    ap.add_argument("--record-golden", action="store_true",
                    help="store the digests of this run as the golden ones "
                         "(default seed only)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "snakealg" / "__init__.py").is_file():
        print("error: %s does not hold the snakealg sources" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.record_golden and args.seed != DEFAULT_SEED:
        ap.error("--record-golden needs --seed %d" % DEFAULT_SEED)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    load_before = os.getloadavg()[0]
    try:
        drv = Runner(args.workload, args.seed, args.ops)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
                  "machine": machine(), "load_1min_before": load_before}
        if args.trace == 0:
            setups = [drv.spawn(mode="setup") for _ in range(SETUP_REPS)]
            rounds = drv.rounds(args.seconds)
            setups += rounds
            metrics, samples = end_to_end(drv, setups, rounds, scaled=True)
            raw, _ = end_to_end(drv, setups, rounds, scaled=False)
            spec, notes = END_TO_END, {k: "raw %.6g" % raw[k] for k in TIMES}
            record["raw_metrics"] = raw
            checked = rounds[0]
        else:
            ref = drv.round(check=True)
            job = {}
            if drv.wl.name == "cli":
                trace_dir = OUT / "cli-trace"
                trace_dir.mkdir(exist_ok=True)
                for old in trace_dir.glob("op*.json"):
                    old.unlink()
                job["cli_trace_dir"] = str(trace_dir)
            else:
                job.update(trace=1, spans_path=str(
                    OUT / ("spans-%s-seed%d.tsv" % (args.workload, args.seed))))
            traced = drv.round(check=False, **job)
            metrics, notes = per_layer(drv, ref, traced)
            rounds = [ref]
            samples = {"ops": ref["attempted"], "traced_ops": traced["attempted"]}
            spec = PER_LAYER
            checked = ref
        if any(r["attempted"] < drv.ops for r in rounds):
            notes["truncated"] = "a round was cut at %.0f s" % ROUND_CAP_S
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    correct = not checked["bad_checks"] and checked["prelude_ok"]
    golden = "not checked (seed %d and %d ops, not seed %d and %d ops)" % (
        args.seed, drv.ops, DEFAULT_SEED, drv.wl.fixed_ops)
    if drv.seed_checked:
        ok, golden = golden_status(drv.wl, checked, args.record_golden)
        correct = correct and ok
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(failures(r) for r in rounds)
    kinds: dict = {}
    for r in rounds:
        for e in r["errors"]:
            if e is not None:
                kinds[e] = kinds.get(e, 0) + 1

    record.update({
        "load_1min_after": os.getloadavg()[0], "correct": correct, "golden": golden,
        "attempted": attempted, "failed": failed, "failure_kinds": kinds,
        "bad_checks": checked["bad_checks"][:20], "samples": samples, "notes": notes,
        "metrics": {k: {"value": metrics[k], "unit": spec[k][0], "better": spec[k][1]}
                    for k in spec},
    })
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1) + "\n")

    print("workload %s  seed %d  trace %d  python %s  nproc %s  load %.2f -> %.2f" % (
        args.workload, args.seed, args.trace, record["machine"]["python"],
        record["machine"]["nproc"], load_before, record["load_1min_after"]))
    for k in spec:
        note = notes.get(k)
        print("  %-38s %14.6g %-6s%s" % (k, metrics[k], spec[k][0],
                                          "  (%s)" % note if note else ""))
    print("  samples: %s" % json.dumps(samples))
    print("  attempted %d  failed %d %s  fail_ratio %.4f  golden: %s  correct: %s" % (
        attempted, failed, json.dumps(kinds), failed / attempted, golden, correct))
    print("  record: %s" % path.relative_to(ROOT))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": spec[k][0]} for k in spec},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
