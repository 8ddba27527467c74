"""Invariants past the acceptance corpus: a seeded sample of the prime
snakes of length 6 and 7 with span <= 11."""

import random
from collections import Counter

import pytest

import snakealg as sa
from snakealg import heightmap as hm

from conftest import boundary, check_levels, check_shat_rule, checked_pr_set

SAMPLE = 250
# seeded submonoid elements per boundary snake for the transport check
TRANSPORTED = 4
# the oracle and reflection checks take every ORACLE_STRIDE-th sampled snake,
# with one seeded element of height ORACLE_HT each
ORACLE_STRIDE = 3
ORACLE_HT = 3


@pytest.fixture(scope="module")
def long_snakes():
    spec = sa.CorpusSpec(r_max=7, span=11, filters=frozenset({"prime"}))
    snakes = [s for s in sa.enumerate_snakes(spec) if s.r >= 6]
    assert len(snakes) == 3850
    return random.Random(67).sample(snakes, SAMPLE)


@pytest.mark.slow
def test_invariants_on_long_snakes(long_snakes):
    for s in long_snakes:
        assert sa.check_enumeration(s), str(s)
        assert sa.closure_check(s), str(s)
        index = sa.descriptor_index(s)
        for d in index.values():
            assert sa.factor(d.weight, s).weight_multiset() == (d.weight,), (
                str(s), str(d.weight))
        w = sa.MonoidElement.from_exponents(
            s.n, {g: 2 for g in sa.generator_intervals(s)})
        got = Counter()
        for d, m in sa.factor(w, s).pairs:
            assert d.weight in index, (str(s), str(d.weight))
            for iv, e in d.weight.exps:
                got[iv] += e * m
        assert sa.MonoidElement.from_exponents(s.n, got) == w, str(s)
        sa.exchange_triple(s)
        hm.height_profile(s)
        if boundary(s):
            hm.cluster_export(s)
            assert boundary(hm.snake_of_xi(s)), str(s)


@pytest.mark.slow
def test_child_alphabets_on_long_snakes(long_snakes):
    # the 250 sampled snakes, and 2183 tails and prime ŝ snakes at every
    # depth below them
    assert sum(check_levels(s) for s in long_snakes) == 2433


@pytest.mark.slow
def test_shat_rule_on_long_snakes(long_snakes):
    # every distinct snake of length >= 3 in the trees of the sample
    checked = set()
    for s in long_snakes:
        checked |= check_shat_rule(s)
    assert len(checked) == 1096


@pytest.mark.slow
def test_height_round_trip_on_long_snakes(long_snakes):
    rng = random.Random(7)
    for s in long_snakes:
        if not boundary(s):
            continue
        t = hm.snake_of_xi(s)
        assert hm.snake_of_xi(t) == t, str(s)
        assert sa.interval_set(t) == hm.interval_set_xi(hm.height_profile(s)), str(s)
        assert len(hm.pr_bijection(s)) == len(sa.pr_set(s)), str(s)
        iso = hm.height_iso(s)
        gens = sorted(sa.generator_intervals(t))
        for _ in range(TRANSPORTED):
            w = sa.MonoidElement.from_pairs(
                t.n, ((rng.choice(gens), rng.randint(1, 3)) for _ in range(3)))
            assert sa.transport_check(iso, w), (str(s), str(w))


@pytest.mark.slow
def test_oracle_and_reflection_on_long_snakes(long_snakes):
    rng = random.Random(11)
    checked = 0
    for s in long_snakes[::ORACLE_STRIDE]:
        gens = sorted(sa.generator_intervals(s))
        w = sa.MonoidElement.from_pairs(s.n, ((rng.choice(gens), 1) for _ in range(ORACLE_HT)))
        got = sa.factor(w, s).weight_multiset()
        assert got in sa.oracle_factorizations(w, s, cap=ORACLE_HT), (str(s), str(w))
        sr = s.reflect()
        assert ({d.weight.reflect() for d in sa.pr_set(s)}
                == {d.weight for d in sa.pr_set(sr)}), str(s)
        assert ({d.weight.reflect() for d in sa.fr_set(s)}
                == {d.weight for d in sa.fr_set(sr)}), str(s)
        mirrored = sa.factor(w.reflect(), sr).weight_multiset()
        assert sorted(x.reflect().exps for x in got) == sorted(
            x.exps for x in mirrored), (str(s), str(w))
        checked += 1
    assert checked == 84


@pytest.mark.slow
def test_pr_set_matches_checked_construction_on_long_snakes(long_snakes):
    for s in long_snakes:
        for x in (s, s.reflect()):
            assert sa.pr_set(x) == checked_pr_set(x), str(x)
