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

from conftest import monomials

GOLDEN = Path(__file__).with_name("golden") / "factor.json"
MONOMIAL_HEIGHT = 5
MONOMIAL_SAMPLE = {1: 2, 2: 6, 3: 8, 4: 6}  # snakes per length r
TALL_SAMPLE = {3: 8, 4: 8, 5: 8}
TALL_PER_SNAKE = 6


def factorization_lines(s, elements):
    for w in elements:
        f = sa.factor(w, s)
        body = ";".join("%s:%s:%s" % (d.kind, ",".join(str(iv) for iv in d.intervals()),
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
