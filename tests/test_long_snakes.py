"""Invariants past the acceptance corpus: a seeded sample of the prime
snakes of length 6 and 7 with span <= 11."""

import random
from collections import Counter

import pytest

import snakealg as sa
from snakealg import heightmap as hm

from conftest import boundary

SAMPLE = 250


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
