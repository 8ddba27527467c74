"""One benchmark worker: a fresh process, so every library cache starts empty.

Reads a job as JSON on stdin, sets up, runs the first ``ops`` ops of the
workload and writes one JSON result on stdout.  With ``mode: setup`` it only
sets up and reports when it was ready.

With ``check`` set, outputs are checked after the ops, outside every timer,
and for the first ``digest_ops`` ops the worker also returns the SHA-256 of
each op's canonical output, which run.py folds into the workload digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time


def gc_collections() -> int:
    return sum(g["collections"] for g in gc.get_stats())


def main() -> int:
    job = json.load(sys.stdin)
    import hostspeed
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[job["workload"]]
    tr = None
    if job.get("trace"):
        tr = tracing.Tracer()
        tr.install()
    state = wl.setup(job["inputs"])
    ready = time.monotonic()
    host = hostspeed.HostClock()
    if job["mode"] == "setup":
        json.dump({"ready": ready, "probes": host.rows}, sys.stdout)
        return 0

    cli_trace_dir = job.get("cli_trace_dir")
    if wl.name == "cli":
        wl.warm_up(state)

    # CLI calls are scaled by interpreter starts, not by the loop probe
    spawns = hostspeed.HostClock(hostspeed.spawn_probe) if wl.name == "cli" else None
    count = min(job["ops"], wl.size(state))
    cap = job["cap_s"]
    spans, errors, outputs = [], [], []
    gc0 = gc_collections()
    clock = time.monotonic  # the probes' clock
    start = clock()
    prelude = wl.prelude(state, host.tick)
    prelude_end = clock()
    for i in range(count):
        host.tick()
        if spawns is not None:
            spawns.tick()
        if clock() - start >= cap:
            break
        if tr is not None:
            tr.begin_op(i)
        t0 = clock()
        try:
            if cli_trace_dir is not None:
                out = wl.op(state, i, traced_to="%s/op%05d.json" % (cli_trace_dir, i))
            else:
                out = wl.op(state, i)
            err = None
        except Exception as exc:  # every failure is counted, none stops the run
            out, err = None, type(exc).__name__
        t1 = clock()
        if tr is not None:
            tr.op_span(i, t0, t1)
        spans.append((t0, t1))
        errors.append(err)
        outputs.append(out)
    host.probe()
    if spawns is not None:
        spawns.probe()
    gc1 = gc_collections()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tr is not None:
        tr.uninstall()

    result = {
        "ready": ready, "probes": host.rows, "prelude": [start, prelude_end], "op_spans": spans,
        "gc_collections": gc1 - gc0, "rss_kb": rss_kb, "attempted": len(spans),
    }
    if spawns is not None:
        result["spawn_probes"] = spawns.rows
    t_check = clock()
    result.update(check_outputs(wl, state, outputs, errors, job.get("check", False),
                                job.get("digest_ops", 0)))
    if job.get("check"):
        pre_ok, pre_text = wl.check_prelude(state, prelude)
        result["prelude_ok"] = pre_ok
        result["prelude_digest"] = hashlib.sha256(pre_text.encode()).hexdigest()
    result["check_s"] = clock() - t_check
    if wl.name == "tall":
        result["heights"] = [wl.height(state, i) for i in range(len(spans))]
        result["repeated"] = [wl.repeated(state, i) for i in range(len(spans))]
    if wl.name == "cli":
        result["verbs"] = [state["calls"][i][0][0] for i in range(len(spans))]
        result["child_rss_kb"] = [o[3] if o is not None else 0 for o in outputs]
    result["recursion_errors"] = sum(1 for e in errors if e == "RecursionError")
    factor = workloads.factorizer.factor
    if not hasattr(factor, "cache_info"):  # the tracer's wrapper
        factor = getattr(factor, "__wrapped__", factor)
    if hasattr(factor, "cache_info"):
        info = factor.cache_info()
        result["factor_cache"] = [info.hits, info.hits + info.misses]
    result["cache_entries"] = tracing.cache_entries_total()
    if tr is not None:
        result["layers"] = tr.layers()
        result["monoid_calls"] = tr.monoid_calls[0]
        result["absent"] = tr.absent
        if job.get("spans_path"):
            tr.write(job["spans_path"])
    if cli_trace_dir is not None:
        result.update(merge_cli_traces(cli_trace_dir, len(spans)))
    json.dump(result, sys.stdout)
    return 0


def check_outputs(wl, state, outputs, errors, full, digest_ops) -> dict:
    """Classify every op; with ``full``, check every output and digest the
    canonical outputs of the first ``digest_ops`` ops.  CLI calls that break
    the contract are failures even when outputs are not checked."""
    kinds = list(errors)
    bad_checks = []
    digests = []
    for i, out in enumerate(outputs):
        canon = None
        if kinds[i] is None:
            if wl.name == "cli" and not wl.contract(out):
                kinds[i] = "contract"
            elif full:
                ok, canon = wl.check(state, i, out)
                if not ok:
                    kinds[i] = "check"
                    bad_checks.append(i)
        if full and i < digest_ops:
            digests.append(hashlib.sha256(canon.encode()).hexdigest() if kinds[i] is None
                           else "FAILED:%s" % kinds[i])
    return {"errors": kinds, "bad_checks": bad_checks, "op_digests": digests}


def merge_cli_traces(directory, count) -> dict:
    """Sum the layer tables the traced CLI calls wrote, one file per call."""
    layers: dict = {}
    monoid = 0
    entries = 0
    absent: dict = {}
    for i in range(count):
        try:
            with open("%s/op%05d.json" % (directory, i)) as fh:
                part = json.load(fh)
        except FileNotFoundError:  # the call died before writing its table
            continue
        for name, row in part["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "outer_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        monoid += part["monoid_calls"]
        entries = max(entries, part["cache_entries"])
        absent.update(part["absent"])
    return {"layers": layers, "monoid_calls": monoid, "cache_entries": entries,
            "absent": absent}


if __name__ == "__main__":
    sys.exit(main())
