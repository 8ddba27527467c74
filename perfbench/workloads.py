"""The four workloads: input generation (runner side), set-up, ops and output
checks (worker side).

Every op calls the library through module attributes (``factorizer.factor``
and so on), looked up at call time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import selectors
import subprocess
import sys
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

from snakealg import (core, explorer, factorizer, grothendieck, heightmap,
                      primesets, snakes)

ROOT = Path(__file__).resolve().parent.parent
CACHE = Path(__file__).resolve().parent / ".cache"


def is_boundary(s) -> bool:
    return s.r >= 3 and s.j_max - s.i_min == s.n + 1 and s.j_min == s.i_max


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "snakealg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def corpus_texts(r_max: int, span: int) -> list[str]:
    """The prime corpus as text, cached per library source so that the
    7-second r <= 7 enumeration is paid once per checkout."""
    path = CACHE / ("corpus-r%d-s%d-%s.txt" % (r_max, span, source_digest()))
    if path.exists():
        return path.read_text().splitlines()
    spec = explorer.CorpusSpec(r_max=r_max, span=span, filters=frozenset({"prime"}))
    texts = [str(s) for s in explorer.enumerate_snakes(spec)]
    CACHE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text("\n".join(texts) + "\n")
    tmp.replace(path)
    return texts


@functools.lru_cache(maxsize=None)
def corpus(r_max: int, span: int) -> tuple:
    return tuple(core.parse_snake(t) for t in corpus_texts(r_max, span))


def stratified_sample(ranked: list, count: int, rng: random.Random,
                      shuffle: bool = True) -> list:
    """One random item from each of ``count`` equal blocks of ``ranked``
    (sorted by cost), shuffled unless asked to keep the rank order, so that
    every seed draws nearly the same cost mix."""
    size = len(ranked) / count
    out = [rng.choice(ranked[int(b * size):int((b + 1) * size)]) for b in range(count)]
    if shuffle:
        rng.shuffle(out)
    return out


def random_element(s, height: int, rng: random.Random):
    """A random mix of the generators of s with total multiplicity ``height``."""
    gens = sorted(primesets.generator_intervals(s))
    counts = Counter(rng.choice(gens) for _ in range(height))
    return core.MonoidElement.from_exponents(s.n, counts)


# Ops of the timed workloads stay below the height at which the recursive
# factorizer of the seed code starts to raise RecursionError (about 1100;
# the recursion depth of a random mix at 768 stays below 800 frames), so no
# op fails.  The failure itself is measured by a limit probe at PROBE_HEIGHT
# in traced runs (``factorizer.recursion_errors``).
TALL_MAX_HEIGHT = 768
PROBE_HEIGHT = 2048
PROBE_CALLS = 8


def log_height(rng: random.Random, stratum: int, strata: int, lo: int = 16,
               hi: int = TALL_MAX_HEIGHT) -> int:
    """A height log-uniform in stratum ``stratum`` of ``strata`` equal strata
    of [lo, hi] on the log scale."""
    return round(lo * math.exp(math.log(hi / lo) * (stratum + rng.random()) / strata))


def tall_heights(rng: random.Random, batch: int = 16):
    """Heights log-uniform in [16, TALL_MAX_HEIGHT], stratified in batches
    of ``batch``."""
    while True:
        hs = [log_height(rng, b, batch) for b in range(batch)]
        rng.shuffle(hs)
        yield from hs


def recovers(w, f, index) -> bool:
    """Every factor is a descriptor of the snake and the factors multiply to w."""
    acc: Counter = Counter()
    for d, k in Counter(f.factors).items():
        if d.weight not in index:
            return False
        for iv, e in d.weight.exps:
            acc[iv] += e * k
    return acc == Counter(dict(w.exps))


def factorization_text(f) -> str:
    return "|".join(str(d) for d in f.factors)


class Workload:
    name = ""
    fixed_ops = 0  # ops of one round, of a traced run and of the golden digest

    def generate(self, rng: random.Random, count: int) -> dict:
        """Inputs of ``count`` ops, as text."""
        raise NotImplementedError

    def setup(self, inputs: dict):
        raise NotImplementedError

    def prelude(self, state, tick):
        """Timed work that belongs to the phase but to no op; it calls
        ``tick`` between steps so that the host-speed probe can run."""
        return None

    def size(self, state) -> int:
        raise NotImplementedError

    def op(self, state, i: int):
        raise NotImplementedError

    def check(self, state, i: int, out) -> tuple[bool, str]:
        """(output is correct, canonical text of the output)."""
        raise NotImplementedError

    def check_prelude(self, state, out) -> tuple[bool, str]:
        return True, ""


class Sweep(Workload):
    name = "sweep"
    fixed_ops = 100

    def generate(self, rng, count):
        # the mirrored half (first alternation bit 1) factors through a
        # reflection and costs about 30% more in the same class
        ranked = sorted(corpus(5, 9), key=lambda s: (
            len(primesets.generator_intervals(s)), s.r, snakes.classify(s).eps, str(s)))
        stream = stratified_sample(ranked, count, rng)
        return {"snakes": [str(s) for s in stream]}

    def setup(self, inputs):
        return [core.parse_snake(t) for t in inputs["snakes"]]

    def size(self, state):
        return len(state)

    def op(self, s_list, i):
        s = s_list[i]
        c = snakes.classify(s)
        pr = primesets.pr_set(s)
        fr = primesets.fr_set(s)
        gens = sorted(primesets.generator_intervals(s))
        facs = []
        for k in (1, 2, 3):
            for combo in combinations_with_replacement(gens, k):
                w = core.MonoidElement.from_exponents(s.n, Counter(combo))
                facs.append((w, factorizer.factor(w, s)))
        x = grothendieck.exchange_triple(s) if s.r >= 2 else None
        return c, pr, fr, facs, x

    def check(self, s_list, i, out):
        s = s_list[i]
        c, pr, fr, facs, x = out
        index = primesets.descriptor_index(s)
        ok = c.prime
        lines = [str(s), "eps=%s" % (c.eps,),
                 "pr=" + ";".join(map(str, pr)), "fr=" + ";".join(map(str, fr))]
        for w, f in facs:
            ok = ok and recovers(w, f, index)
            lines.append("%s=%s" % (w, factorization_text(f)))
        if x is not None:
            lines.append("exchange=%s;%s;%s;%s" % (
                ",".join(str(k.omega) for k in x.left), x.term1.omega,
                x.term2.omega, ",".join(str(k.omega) for k in x.term2_components)))
        return ok, "\n".join(lines)


class Tall(Workload):
    name = "tall"
    fixed_ops = 400
    per_rank = 32
    block = 4  # one op in each full block of four repeats an earlier element
    stride = 37  # coprime with the 3 * per_rank snakes

    def generate(self, rng, count):
        pool = corpus(5, 9)
        chosen = []  # in rank order: by r, then by generator count
        for r in (3, 4, 5):
            ranked = sorted((s for s in pool if s.r == r), key=lambda s: (
                len(primesets.generator_intervals(s)), str(s)))
            chosen += stratified_sample(ranked, self.per_rank, rng, shuffle=False)
        # First-time elements come in cycles that give every snake one.  In a
        # cycle the snake of rank i draws its height from stratum
        # (stride * i + shift) of n, so every seed pairs snake cost and height
        # alike and the heavy tail does not hang on which snakes drew the
        # tallest elements.
        n = len(chosen)
        fresh = []
        firsts = count - count // self.block
        while len(fresh) < firsts:
            shift = rng.randrange(n)
            fresh += [(i, log_height(rng, (self.stride * i + shift) % n, n)) for i in range(n)]
        fresh = fresh[:firsts]
        rng.shuffle(fresh)
        fresh_ops = iter(fresh)
        seen, ops = [], []
        slot = self.block
        for j in range(count):
            if j % self.block == 0:  # no repeat in a last, partial block
                slot = (rng.randrange(1 if j == 0 else 0, self.block)
                        if j + self.block <= count else self.block)
            if j % self.block == slot:
                k, text = rng.choice(seen)
                ops.append([k, text, 1])
                continue
            k, height = next(fresh_ops)
            text = str(random_element(chosen[k], height, rng))
            seen.append((k, text))
            ops.append([k, text, 0])
        probe = [[k, str(random_element(chosen[k], PROBE_HEIGHT, rng))]
                 for k in rng.sample(range(len(chosen)), PROBE_CALLS)]
        return {"snakes": [str(s) for s in chosen], "ops": ops, "probe": probe}

    def setup(self, inputs):
        ss = [core.parse_snake(t) for t in inputs["snakes"]]
        for s in ss:
            primesets.pr_set(s)
            primesets.fr_set(s)
            primesets.descriptor_index(s)
        ops = [(ss[k], core.parse_monoid_element(text, ss[k].n), bool(rep))
               for k, text, rep in inputs["ops"]]
        return ops

    def size(self, ops):
        return len(ops)

    def op(self, ops, i):
        s, w, _ = ops[i]
        return factorizer.factor(w, s)

    def height(self, ops, i) -> int:
        return ops[i][1].ht

    def repeated(self, ops, i) -> bool:
        return ops[i][2]

    def limit_probe(self, inputs) -> tuple[int, int]:
        """(calls, RecursionErrors) of ``factor`` at PROBE_HEIGHT."""
        errors = 0
        for k, text in inputs["probe"]:
            s = core.parse_snake(inputs["snakes"][k])
            try:
                factorizer.factor(core.parse_monoid_element(text, s.n), s)
            except RecursionError:
                errors += 1
        return len(inputs["probe"]), errors

    def check(self, ops, i, f):
        s, w, _ = ops[i]
        ok = recovers(w, f, primesets.descriptor_index(s))
        return ok, "%s|%s=%s" % (s, w, factorization_text(f))


ATLAS_SPEC = (7, 11)
ATLAS_COUNT = 13321


class Atlas(Workload):
    name = "atlas"
    fixed_ops = 600

    def generate(self, rng, count):
        ranked = sorted(corpus(*ATLAS_SPEC), key=lambda s: (s.r, is_boundary(s), str(s)))
        return {"snakes": [str(s) for s in stratified_sample(ranked, count, rng)]}

    def setup(self, inputs):
        return [core.parse_snake(t) for t in inputs["snakes"]]

    def size(self, state):
        return len(state)

    def prelude(self, state, tick):
        r_max, span = ATLAS_SPEC
        spec = explorer.CorpusSpec(r_max=r_max, span=span, filters=frozenset({"prime"}))
        out = []
        for s in explorer.enumerate_snakes(spec):
            out.append(s)
            tick()
        return out

    def check_prelude(self, state, out):
        text = "\n".join(str(s) for s in out)
        return len(out) == ATLAS_COUNT, text

    def op(self, s_list, i):
        s = s_list[i]
        ok = snakes.check_enumeration(s)
        pr = primesets.pr_set(s)
        fr = primesets.fr_set(s)
        closed = primesets.closure_check(s) if s.r >= 3 else None
        h = heightmap.height_profile(s) if s.r >= 3 else None
        doc = heightmap.cluster_export(s) if is_boundary(s) else None
        return ok, pr, fr, closed, h, doc

    def check(self, s_list, i, out):
        s = s_list[i]
        ok_enum, pr, fr, closed, h, doc = out
        ok = ok_enum is True and closed is not False and bool(pr)
        lines = [str(s), "pr=" + ";".join(map(str, pr)), "fr=" + ";".join(map(str, fr))]
        if h is not None:
            ok = ok and len(h.xi) == h.N and h.p_seq[-1] == h.N
            lines.append("height=%d;%s;%s" % (h.N, h.p_seq, h.xi))
        if doc is not None:
            ok = ok and well_formed(doc, CLUSTER_KEYS)
            lines.append(json.dumps(doc, sort_keys=True))
        return ok, "\n".join(lines)


CLUSTER_KEYS = ("type", "N", "snake", "height_snake", "xi", "p_seq", "exchangeable",
                "frozen", "frozen_images", "correspondence")

# keys each verb's document must carry; the digest covers these keys only,
# so a later change may add keys without changing the digest
CLI_KEYS = {
    "validate": ("snake", "stable", "connected", "prime", "eps"),
    "sets": ("snake", "generators", "pr", "fr"),
    "factor": ("snake", "omega", "factors", "count"),
    "exchange": ("snake", "left", "term1", "term2", "term2_components"),
    "iso": ("source", "target", "conditions", "map", "omega", "eta", "transport"),
    "height": ("snake", "N", "p_seq", "xi", "interval_set_xi", "snake_of_xi",
               "pr_xi", "fr_xi"),
    "cluster": CLUSTER_KEYS,
    "enumerate": ("count", "snakes"),
    "selftest": ("passed",),
}
CLI_CODES = (0, 2, 3, 4)


def well_formed(doc, keys) -> bool:
    if not isinstance(doc, dict) or any(k not in doc for k in keys):
        return False
    try:
        return json.loads(json.dumps(doc)) == doc
    except (TypeError, ValueError):
        return False


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up call leaves byte code
    return env


def run_child(argv, env=None, cwd=ROOT) -> tuple[int, str, str, int]:
    """Run one child to completion: (exit code, stdout, stderr, max RSS kB).

    The child is reaped with ``wait4`` so its own peak RSS is read, not the
    running maximum over all children.
    """
    p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, env=env, cwd=cwd)
    try:
        out, err = _drain(p)
    finally:
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode(errors="replace"), err.decode(errors="replace"), usage.ru_maxrss


def _drain(p) -> tuple[bytes, bytes]:
    bufs = {p.stdout: [], p.stderr: []}
    with selectors.DefaultSelector() as sel:
        for fh in bufs:
            sel.register(fh, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                chunk = os.read(key.fd, 65536)
                if chunk:
                    bufs[key.fileobj].append(chunk)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(bufs[p.stdout]), b"".join(bufs[p.stderr])


class Cli(Workload):
    name = "cli"
    fixed_ops = 120
    VERBS = tuple(CLI_KEYS)

    def generate(self, rng, count):
        pool = corpus(5, 9)
        by_rank = [s for s in pool if s.r >= 2]
        bounds = [s for s in pool if is_boundary(s)]
        plain = [s for s in pool if s.r >= 3 and not is_boundary(s)]
        heights = tall_heights(rng)

        def normal(verb):
            if verb in ("validate", "sets"):
                return [verb, str(rng.choice(pool))]
            if verb == "factor":
                s = rng.choice([t for t in by_rank if t.r >= 3])
                return [verb, "--snake", str(s), "--omega",
                        str(random_element(s, next(heights), rng))]
            if verb == "exchange":
                return [verb, str(rng.choice(by_rank))]
            if verb == "iso":
                s = rng.choice(bounds)
                return [verb, "--source", str(s), "--target", str(heightmap.snake_of_xi(s)),
                        "--omega", str(random_element(s, rng.randint(1, 6), rng))]
            if verb in ("height", "cluster"):
                return [verb, str(rng.choice(bounds))]
            if verb == "enumerate":
                return [verb, "--r-max", str(rng.randint(2, 3)), "--span",
                        str(rng.randint(4, 6)), "--filter", "prime", "--limit", "40"]
            return [verb]

        def bad():
            s = rng.choice(plain)
            kind = rng.randrange(4)
            if kind == 0:  # malformed snake text
                verb = rng.choice(("validate", "sets", "exchange", "height", "cluster"))
                return [verb, str(s).replace("]", "", 1)], 2
            if kind == 1:  # malformed element text
                return ["factor", "--snake", str(s), "--omega", "w{0,1}^^2"], 2
            if kind == 2:  # non-prime snake: reversing breaks the nesting
                t = core.Snake(s.n, tuple(reversed(s.intervals)))
                if snakes.classify(t).prime:
                    t = core.Snake(s.n, s.intervals[:1] * 2)
                verb = rng.choice(("sets", "exchange"))
                return [verb, str(t)], 3
            return ["cluster", str(s)], 3  # prime but not of boundary shape

        calls = []
        while len(calls) < count:
            rnd = [(normal(v), 0) for v in self.VERBS]
            rnd.append(bad())
            rng.shuffle(rnd)
            calls.extend([argv, code] for argv, code in rnd)
        warm = [normal(v) for v in self.VERBS]
        probe = []
        for _ in range(2):
            s = rng.choice([t for t in by_rank if t.r >= 3])
            probe.append(["factor", "--snake", str(s), "--omega",
                          str(random_element(s, PROBE_HEIGHT, rng))])
        return {"calls": calls[:count], "warm": warm, "probe": probe}

    def setup(self, inputs):
        # parse what a caller would have validated: every well-formed snake text
        for argv, code in inputs["calls"]:
            if code == 0:
                for a in argv[1:]:
                    if a.startswith("["):
                        core.parse_snake(a)
        return inputs

    def size(self, state):
        return len(state["calls"])

    def command(self, argv, traced_to=None):
        if traced_to is None:
            return [sys.executable, "-m", "snakealg.cli", *argv]
        return [sys.executable, str(Path(__file__).with_name("clitrace.py")),
                str(traced_to), *argv]

    def warm_up(self, state):
        for argv in state["warm"]:
            run_child(self.command(argv), env=cli_env())

    def op(self, state, i, traced_to=None):
        argv, _ = state["calls"][i]
        return run_child(self.command(argv, traced_to), env=cli_env())

    def limit_probe(self, inputs) -> tuple[int, int]:
        """(calls, calls that die of RecursionError) of ``factor`` at
        PROBE_HEIGHT."""
        errors = 0
        for argv in inputs["probe"]:
            out = run_child(self.command(argv), env=cli_env())
            if "RecursionError" in out[2] and not self.contract(out):
                errors += 1
        return len(inputs["probe"]), errors

    def contract(self, out) -> bool:
        """Exactly one JSON document on stdout and a documented exit code."""
        code, stdout = out[0], out[1]
        if code not in CLI_CODES:
            return False
        try:
            json.loads(stdout)
        except ValueError:
            return False
        return True

    def check(self, state, i, out):
        argv, expected = state["calls"][i]
        code, stdout = out[0], out[1]
        doc = json.loads(stdout)
        verb = argv[0]
        if code != expected:
            return False, "exit=%d" % code
        if code != 0:
            ok = isinstance(doc, dict) and isinstance(doc.get("message", doc.get("witness")), str)
            return ok, "%s exit=%d error=%s" % (verb, code, doc.get("error"))
        ok = well_formed(doc, CLI_KEYS[verb])
        if ok and verb == "factor":
            ok = self.factor_recovers(doc)
        view = {k: doc.get(k) for k in CLI_KEYS[verb]}
        return ok, "%s %s" % (verb, json.dumps(view, sort_keys=True))

    @staticmethod
    def factor_recovers(doc) -> bool:
        s = core.parse_snake(doc["snake"])
        w = core.parse_monoid_element(doc["omega"], s.n)
        index = primesets.descriptor_index(s)
        acc: Counter = Counter()
        for d in doc["factors"]:
            dw = core.parse_monoid_element(d["weight"], s.n)
            if dw not in index:
                return False
            for iv, e in dw.exps:
                acc[iv] += e
        return acc == Counter(dict(w.exps)) and doc["count"] == len(doc["factors"])


WORKLOADS = {w.name: w for w in (Sweep(), Tall(), Atlas(), Cli())}
