"""Golden digests of canonical factorizations.

``golden/factor.json`` pins the output of ``factor`` byte for byte: for each
element, the kind, intervals and weight of every factor, in output order.
There is one SHA-256 digest per snake length r for each of two element sets:

- ``monomials``: every monomial of height <= 5 on a fixed sample of r <= 4
  snakes;
- ``tall``: seeded random elements of height 16-512 on r = 3-5 snakes.  Their
  multiplicities reach well past 1, where a factorizer that peels a whole
  multiplicity at once could part from one that peels a factor at a time.

The inputs (snake texts and element texts) are stored next to the digests,
so the digests do not move when the enumerator or the sampler changes.

``golden/snakes.json`` pins the classification and what is built on it:

- ``enumerate``: the output of ``enumerate_snakes``, in order, for the filter
  sets {}, {stable}, {connected}, {prime}, {prime, boundary} and one spec
  with an ``n_range`` and no translation normalization;
- ``classify``: stable, connected, prime and the alternation bits, and what
  ``epsilon_sequence`` returns or raises, for every tuple of length <= 3 over
  a small alphabet (trivial, repeated and non-alternating intervals
  included; inputs the enumerator never yields) and every one-interval
  extension of the stable ones up to length 5, at each rank n = 1..6;
- ``sample``: ``random_snake`` for seeds 0-49 on two specs;
- ``descriptors``: ``pr_set``, ``fr_set``, ``exchange_triple`` and
  ``cluster_export`` on a fixed sample of the r <= 5, span <= 9 corpus, whose
  snake texts are stored next to the digest.

Record again only when the canonical form itself is meant to change::

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

import snakealg as sa

from conftest import boundary, monomials

GOLDEN = Path(__file__).with_name("golden") / "factor.json"
SNAKES_GOLDEN = Path(__file__).with_name("golden") / "snakes.json"
MONOMIAL_HEIGHT = 5
MONOMIAL_SAMPLE = {1: 2, 2: 6, 3: 8, 4: 6}  # snakes per length r
TALL_SAMPLE = {3: 8, 4: 8, 5: 8}
TALL_PER_SNAKE = 6
ENUMERATE_SPECS = {
    "all": dict(r_max=5, span=7),
    "stable": dict(r_max=5, span=7, filters=["stable"]),
    "connected": dict(r_max=5, span=7, filters=["connected"]),
    "prime": dict(r_max=6, span=8, filters=["prime"]),
    "prime-boundary": dict(r_max=6, span=8, filters=["boundary", "prime"]),
    "n-range": dict(r_max=4, span=6, n_range=[2, 6], translation_normalized=False,
                    filters=["connected"]),
}
CLASSIFY_SPAN = 5
CLASSIFY_RANKS = range(1, 7)
SAMPLE_SPECS = {
    "prime": dict(r_max=5, span=9, filters=["prime"]),
    "stable-n-range": dict(r_max=6, span=10, n_range=[3, 9], filters=["stable"]),
}
SAMPLE_SEEDS = range(50)
DESCRIPTOR_SAMPLE = {1: 2, 2: 4, 3: 8, 4: 8, 5: 8}
BOUNDARY_SAMPLE = {3: 4, 4: 4, 5: 4}


def factorization_lines(s, elements):
    for w in elements:
        f = sa.factor(w, s)
        body = ";".join("%s:%s:%s" % (d.kind, ",".join(str(iv) for iv in d.intervals),
                                      d.weight) for d in f.factors)
        yield "%s|%s=%s\n" % (s, w, body)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
    return h.hexdigest()


def monomial_digests(snakes_by_r):
    out = {}
    for r, texts in snakes_by_r.items():
        lines = []
        for text in texts:
            s = sa.parse_snake(text)
            lines.extend(factorization_lines(s, monomials(s, MONOMIAL_HEIGHT)))
        out[r] = digest(lines)
    return out


def tall_digests(elements_by_r):
    out = {}
    for r, items in elements_by_r.items():
        lines = []
        for text, elements in items:
            s = sa.parse_snake(text)
            lines.extend(factorization_lines(
                s, [sa.parse_monoid_element(e, s.n) for e in elements]))
        out[r] = digest(lines)
    return out


def test_monomial_digests():
    golden = json.loads(GOLDEN.read_text())
    assert monomial_digests(golden["monomials"]["snakes"]) == golden["monomials"]["digests"]


def test_tall_digests():
    golden = json.loads(GOLDEN.read_text())
    assert tall_digests(golden["tall"]["elements"]) == golden["tall"]["digests"]


def corpus_spec(fields) -> sa.CorpusSpec:
    fields = dict(fields)
    fields["filters"] = frozenset(fields.get("filters", ()))
    if "n_range" in fields:
        fields["n_range"] = tuple(fields["n_range"])
    return sa.CorpusSpec(**fields)


def enumerate_digests(specs):
    counts, digests = {}, {}
    for name, fields in specs.items():
        lines = ["%s\n" % s for s in sa.enumerate_snakes(corpus_spec(fields))]
        counts[name], digests[name] = len(lines), digest(lines)
    return counts, digests


def _classification_line(s) -> str:
    c = sa.classify(s)
    try:
        eps = sa.epsilon_sequence(s)
    except sa.NotAlternatingError as exc:
        eps = exc
    return "%s|%d%d%d|%s|%s\n" % (s, c.stable, c.connected, c.prime, c.eps, eps)


def classify_digests():
    alphabet = [sa.Interval(i, j) for i in range(CLASSIFY_SPAN + 1)
                for j in range(i, CLASSIFY_SPAN + 1)]
    out = {}
    for n in CLASSIFY_RANKS:
        letters = [iv for iv in alphabet if iv.j - iv.i <= n + 1]
        lines = []
        layer = [()]
        for r in range(1, 6):
            grown = []
            for ivs in layer:
                for iv in letters:
                    s = sa.Snake(n, ivs + (iv,))
                    lines.append(_classification_line(s))
                    if r < 3 or sa.classify(s).stable:
                        grown.append(s.intervals)
            layer = grown
        out[str(n)] = digest(lines)
    return out


def sample_digests(specs):
    out = {}
    for name, fields in specs.items():
        spec = corpus_spec(fields)
        lines = []
        for seed in SAMPLE_SEEDS:
            try:
                lines.append("%d:%s\n" % (seed, sa.random_snake(seed, spec)))
            except sa.PreconditionError as exc:
                lines.append("%d:error:%s\n" % (seed, exc))
        out[name] = digest(lines)
    return out


def descriptor_lines(s):
    yield "%s\n" % s
    for kind, ds in (("pr", sa.pr_set(s)), ("fr", sa.fr_set(s))):
        yield "%s=%s\n" % (kind, ";".join(
            "%s:%s" % (d, d.weight) for d in ds))
    if s.r >= 2:
        t = sa.exchange_triple(s)
        yield "exchange=%s|%s|%s|%s\n" % (
            ";".join(str(c.omega) for c in t.left), t.term1.omega, t.term2.omega,
            ";".join(str(c.omega) for c in t.term2_components))
    if s.r >= 3 and boundary(s):
        yield "cluster=%s\n" % json.dumps(sa.cluster_export(s), sort_keys=True)


def descriptor_digest(texts) -> str:
    lines = []
    for text in texts:
        lines.extend(descriptor_lines(sa.parse_snake(text)))
    return digest(lines)


def test_enumerate_digests():
    golden = json.loads(SNAKES_GOLDEN.read_text())["enumerate"]
    assert enumerate_digests(golden["specs"]) == (golden["counts"], golden["digests"])


def test_classify_digests():
    golden = json.loads(SNAKES_GOLDEN.read_text())["classify"]
    assert classify_digests() == golden["digests"]


def test_sample_digests():
    golden = json.loads(SNAKES_GOLDEN.read_text())["sample"]
    assert sample_digests(golden["specs"]) == golden["digests"]


def test_descriptor_digest():
    golden = json.loads(SNAKES_GOLDEN.read_text())["descriptors"]
    assert descriptor_digest(golden["snakes"]) == golden["digest"]


def _sample(corpus, r, count):
    """``count`` snakes of length r spread evenly over the corpus ranked by
    generator count and alternation sequence, so both orientations appear."""
    ranked = sorted((s for s in corpus if s.r == r), key=lambda s: (
        len(sa.generator_intervals(s)), sa.classify(s).eps, str(s)))
    return [ranked[(2 * k + 1) * len(ranked) // (2 * count)] for k in range(count)]


def _random_element(s, rng):
    """Height log-uniform in 16-512, over a random subset of the generators."""
    gens = sorted(sa.generator_intervals(s))
    height = round(16 * 32 ** rng.random())
    support = rng.sample(gens, rng.randint(2, len(gens)))
    return sa.MonoidElement.from_exponents(
        s.n, Counter(rng.choice(support) for _ in range(height)))


def record() -> None:
    spec = sa.CorpusSpec(r_max=5, span=9, filters=frozenset({"prime"}))
    corpus = list(sa.enumerate_snakes(spec))
    mono = {str(r): [str(s) for s in _sample(corpus, r, k)]
            for r, k in MONOMIAL_SAMPLE.items()}
    tall = {}
    for r, k in TALL_SAMPLE.items():
        tall[str(r)] = []
        for s in _sample(corpus, r, k):
            rng = random.Random("golden:%s" % s)
            tall[str(r)].append([str(s), [str(_random_element(s, rng))
                                          for _ in range(TALL_PER_SNAKE)]])
    doc = {
        "monomials": {"snakes": mono, "digests": monomial_digests(mono)},
        "tall": {"elements": tall, "digests": tall_digests(tall)},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    counts, digests = enumerate_digests(ENUMERATE_SPECS)
    described = [str(s) for r, k in DESCRIPTOR_SAMPLE.items() for s in _sample(corpus, r, k)]
    framed = [s for s in corpus if s.r >= 3 and boundary(s)]
    described += [str(s) for r, k in BOUNDARY_SAMPLE.items() for s in _sample(framed, r, k)]
    doc = {
        "enumerate": {"specs": ENUMERATE_SPECS, "counts": counts, "digests": digests},
        "classify": {"digests": classify_digests()},
        "sample": {"specs": SAMPLE_SPECS, "digests": sample_digests(SAMPLE_SPECS)},
        "descriptors": {"snakes": described, "digest": descriptor_digest(described)},
    }
    SNAKES_GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
