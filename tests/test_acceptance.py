"""End-to-end acceptance battery.

Each test exercises one headline guarantee over the standard corpus
(translation-normalized prime snakes, length <= 5, span <= 9) and prints a
single PASS line; any failure surfaces as an ordinary assertion error.

``golden/criterion4.json`` pins every factorization criterion 4 makes.
Record it again only when the canonical form itself is meant to change::

    PYTHONPATH=src python tests/test_acceptance.py --record
"""

import hashlib
import json
import random
import sys
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement, islice
from math import comb
from pathlib import Path

import snakealg as sa
from snakealg import heightmap as hm

from conftest import boundary, monomials

SSTAR_TEXT = "[(0,6),(-1,4),(2,5),(1,3),(3,4)] @ n=6"
CRITERION_4_GOLDEN = Path(__file__).with_name("golden") / "criterion4.json"


def report(tag, detail):
    print("[PASS] %s: %s" % (tag, detail))


def sample_elements(s, rng, count, max_ht):
    gens = sorted(sa.generator_intervals(s))
    out = []
    for _ in range(count):
        k = rng.randint(1, max_ht)
        w = sa.MonoidElement.one(s.n)
        for iv in (rng.choice(gens) for _ in range(k)):
            w = w * sa.MonoidElement.generator(iv, s.n)
        out.append(w)
    return out


def test_criterion_1_worked_example(sstar):
    t0 = time.monotonic()
    assert str(sstar) == SSTAR_TEXT
    c = sa.classify(sstar)
    assert c.prime and c.eps == (0, 1, 0, 1, 0)
    assert {(iv.i, iv.j) for iv in sa.interval_set(sstar)} == {
        (-1, 4), (-1, 5), (0, 4), (0, 5), (0, 6), (1, 3),
        (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)}
    h = hm.height_profile(sstar)
    assert h.N == 6
    assert h.p_seq == (1, 2, 3, 5, 6)
    assert h.xi == (7, 6, 7, 6, 5, 6)
    assert hm.snake_of_xi(sstar) == sstar
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("criterion 1", "reference snake exact in %.3fs" % elapsed)


def test_criterion_2_enumeration(corpus):
    t0 = time.monotonic()
    for s in corpus:
        assert sa.check_enumeration(s), str(s)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    report("criterion 2",
           "interleaving chains hold on %d snakes in %.1fs" % (len(corpus), elapsed))


def test_criterion_3_closure(corpus):
    checked = 0
    for s in corpus:
        if s.r < 3:
            continue
        assert sa.closure_check(s), str(s)
        if boundary(s):
            dropped = sa.tilde_interval_set(s) - sa.interval_set(s)
            assert dropped == {sa.Interval(s.i_max, s.j_min),
                               sa.Interval(s.i_min, s.j_max)}, str(s)
        checked += 1
    report("criterion 3", "closure and boundary identity on %d snakes" % checked)


def factors_line(f, labels) -> bytes:
    """Each factor of f with its multiplicity, in output order.  labels maps
    id(d) to (d, str(d)); holding d keeps its id its own."""
    parts = []
    for d, m in f.pairs:
        label = labels.get(id(d))
        if label is None:
            label = labels[id(d)] = d, str(d)
        parts.append("%s*%d" % (label[1], m))
    return b"%s\n" % ";".join(parts).encode()


def criterion_4_factorizations() -> dict:
    """Factor every descriptor weight and every monomial of height <= 5 over
    each prime snake with r <= 4, span <= 9, and check each factorization.

    Returns the counts of snakes and of monomials, and per length r one
    SHA-256 digest of what ``factor`` returned: a line per snake, then a line
    per element, descriptors first, listing each factor's kind, intervals and
    multiplicity in output order."""
    spec = sa.CorpusSpec(r_max=4, span=9, filters=frozenset({"prime"}))
    snakes = list(sa.enumerate_snakes(spec))
    total = 0
    digests = {}
    for s in snakes:
        h = digests.setdefault(str(s.r), hashlib.sha256())
        h.update(b"%s\n" % str(s).encode())
        labels = {}
        index = sa.descriptor_index(s)
        for d in index.values():
            f = sa.factor(d.weight, s)
            assert f.weight_multiset() == (d.weight,), (str(s), str(d.weight))
            h.update(factors_line(f, labels))
        for w in monomials(s, 5):
            f = sa.factor(w, s)
            got = Counter()
            for d, m in f.pairs:
                assert d.weight in index, (str(s), str(w))
                for iv, e in d.weight.exps:
                    got[iv] += e * m
            assert got == dict(w.exps), (str(s), str(w))
            h.update(factors_line(f, labels))
            total += 1
    return {"snakes": len(snakes), "elements": total,
            "digests": {r: h.hexdigest() for r, h in digests.items()}}


def test_criterion_4_factorization_soundness():
    t0 = time.monotonic()
    got = criterion_4_factorizations()
    assert got == json.loads(CRITERION_4_GOLDEN.read_text())
    oracle_checked = 0
    small = sa.CorpusSpec(r_max=3, span=6, filters=frozenset({"prime"}))
    for s in sa.enumerate_snakes(small):
        for w in monomials(s, 4):
            if w.is_one:
                continue
            sols = sa.oracle_factorizations(w, s, cap=4)
            assert sa.factor(w, s).weight_multiset() in sols, (str(s), str(w))
            oracle_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 180
    report("criterion 4",
           "%d elements over %d snakes factored, %d oracle-checked, %.1fs"
           % (got["elements"], got["snakes"], oracle_checked, elapsed))


def test_criterion_5_reflection_equivariance(corpus):
    rng = random.Random(5)
    checked = 0
    for s in corpus:
        sr = s.reflect()
        cs, cr = sa.classify(s), sa.classify(sr)
        assert (cs.stable, cs.connected, cs.prime) == (cr.stable, cr.connected, cr.prime)
        assert sa.check_enumeration(sr)
        if s.r >= 3:
            assert {iv.reflect() for iv in sa.interval_set(s)} == set(sa.interval_set(sr))
        assert ({d.weight.reflect() for d in sa.pr_set(s)}
                == {d.weight for d in sa.pr_set(sr)})
        assert ({d.weight.reflect() for d in sa.fr_set(s)}
                == {d.weight for d in sa.fr_set(sr)})
        for w in sample_elements(s, rng, 3, 4):
            left = sorted(x.reflect().exps for x in sa.factor(w, s).weight_multiset())
            right = sorted(x.exps for x in sa.factor(w.reflect(), sr).weight_multiset())
            assert left == right, (str(s), str(w))
            checked += 1
    report("criterion 5",
           "reflection commutes on %d snakes (%d spot factorizations)"
           % (len(corpus), checked))


def test_criterion_6_transport(corpus):
    rng = random.Random(6)
    pairs = 0
    checks = 0
    for s in corpus:
        if s.r < 3 or not boundary(s):
            continue
        iso = hm.height_iso(s)
        for w in sample_elements(iso.source, rng, 20, 4):
            assert sa.transport_check(iso, w), (str(s), str(w))
            checks += 1
        pairs += 1
    by_r = {}
    for s in corpus:
        by_r.setdefault((s.r, s.n), []).append(s)
    for group in by_r.values():
        for s, t in islice(zip(group, group[1:]), 4):
            if s.r < 2 or not sa.check_iso_conditions(s, t):
                continue
            iso = sa.build_iso(s, t)
            for w in sample_elements(s, rng, 20, 4):
                assert sa.transport_check(iso, w), (str(s), str(t), str(w))
                checks += 1
            pairs += 1
    assert pairs >= 200
    report("criterion 6",
           "factorization transports across %d isomorphisms (%d elements)"
           % (pairs, checks))


def test_criterion_7_height_translation(corpus):
    translated = 0
    for s in corpus:
        if s.r < 3:
            continue
        h = hm.height_profile(s)
        assert h.p_seq[-1] == hm.n_of(s)
        assert all(abs(a - b) == 1 for a, b in zip(h.xi, h.xi[1:]))
        assert all((h.xi[t - 1] - t) % 2 == 0 for t in range(1, h.N + 1))
        if not boundary(s):
            continue
        t = hm.snake_of_xi(s)
        assert boundary(t) and t.n == h.N
        assert sa.interval_set(t) == hm.interval_set_xi(h)
        assert hm.snake_of_xi(t) == t
        image = hm.pr_bijection(s)
        assert len(image) == len(sa.pr_set(s))
        translated += 1
    report("criterion 7",
           "height translation verified, %d snakes fully translated" % translated)


def test_criterion_8_exchange(corpus, s2):
    t = sa.exchange_triple(s2)
    assert t.term1.omega == sa.parse_monoid_element("w{-1,1} * w{0,2}", 3)
    assert t.term2.omega == sa.parse_monoid_element("w{-1,2} * w{0,1}", 3)
    assert sorted(str(c.omega) for c in t.term2_components) == ["w{-1,2}", "w{0,1}"]
    checked = 0
    for s in corpus:
        if s.r < 2:
            continue
        tr = sa.exchange_triple(s)
        assert tr.left[0].omega * tr.left[1].omega == tr.term1.omega, str(s)
        prod = sa.MonoidElement.one(s.n)
        for c in tr.term2_components:
            prod = prod * c.omega
        assert prod == tr.term2.omega, str(s)
        checked += 1
    report("criterion 8",
           "exchange relations conserve weight on %d snakes" % checked)


def test_criterion_9_type_a_counts(corpus):
    """The boundary snakes give the counts of a cluster algebra of type A_N:
    N(N+3)/2 cluster variables, N frozen variables and 2N generators, and
    every frozen variable is compatible with every cluster variable."""
    snakes = [s for s in corpus if s.r >= 3 and boundary(s)]
    for s in snakes:
        N = hm.n_of(s)
        assert len(sa.pr_set(s)) == N * (N + 3) // 2, str(s)
        assert len(sa.fr_set(s)) == N, str(s)
        assert len(sa.generator_intervals(s)) == 2 * N, str(s)
    pairs = 0
    for s in snakes[::25]:
        for a in sa.fr_set(s):
            fa = sa.factor(a.weight, s)
            for b in sa.pr_set(s):
                assert sa.compatible_product(fa, sa.factor(b.weight, s), s), (
                    str(s), str(a.weight), str(b.weight))
                pairs += 1
    report("criterion 9",
           "type A_N counts on %d boundary snakes, %d frozen-exchangeable pairs "
           "compatible on %d of them" % (len(snakes), pairs, len(snakes[::25])))


def compatibility(s):
    """The PR weights of s and, per index, the indices of the other weights
    it is compatible with (``compatible_product`` of their factorizations)."""
    weights = [d.weight for d in sa.pr_set(s)]
    facs = [sa.factor(w, s) for w in weights]
    adj = [set() for _ in weights]
    for a, b in combinations(range(len(weights)), 2):
        if sa.compatible_product(facs[a], facs[b], s):
            adj[a].add(b)
            adj[b].add(a)
    return weights, adj


def maximal_compatible_sets(adj):
    """Every maximal set of pairwise compatible indices (Bron-Kerbosch with a
    pivot)."""
    out = []

    def grow(chosen, cands, done):
        if not cands and not done:
            out.append(frozenset(chosen))
            return
        pivot = max(cands | done, key=lambda v: len(adj[v] & cands))
        for v in sorted(cands - adj[pivot]):
            grow(chosen | {v}, cands & adj[v], done & adj[v])
            cands = cands - {v}
            done = done | {v}

    grow(frozenset(), set(range(len(adj))), set())
    return out


def test_criterion_10_type_a_clusters(corpus):
    """On a seeded fifth of the boundary snakes with r >= 3 and N <= 5, the
    maximal compatible subsets of PR(s) are the clusters of type A_N: each has
    N elements, there are Catalan(N+1) of them, and each (N-1)-subset of one
    lies in exactly two (mutation)."""
    t0 = time.monotonic()
    snakes = [s for s in corpus if s.r >= 3 and boundary(s) and hm.n_of(s) <= 5]
    sample = random.Random(1).sample(snakes, len(snakes) // 5)
    by_n = Counter()
    for s in sample:
        N = hm.n_of(s)
        weights, adj = compatibility(s)
        clusters = maximal_compatible_sets(adj)
        for c in clusters:
            assert len(c) == N, (str(s), sorted(str(weights[k]) for k in c))
        assert len(clusters) == comb(2 * N + 2, N + 1) // (N + 2), (str(s), len(clusters))
        holders = Counter(sub for c in clusters for sub in combinations(sorted(c), N - 1))
        for sub, count in holders.items():
            assert count == 2, (str(s), [str(weights[k]) for k in sub], count)
        by_n[N] += 1
    elapsed = time.monotonic() - t0
    report("criterion 10",
           "type A_N clusters on %d of %d boundary snakes (by N: %s) in %.1fs"
           % (len(sample), len(snakes), dict(sorted(by_n.items())), elapsed))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_acceptance.py --record")
    CRITERION_4_GOLDEN.write_text(
        json.dumps(criterion_4_factorizations(), indent=1, sort_keys=True) + "\n")
