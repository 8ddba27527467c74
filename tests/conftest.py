from itertools import combinations_with_replacement

import pytest

import snakealg as sa

S2_TEXT = "[(0,2),(-1,1)] @ n=3"
SSTAR_TEXT = "[(0,6),(-1,4),(2,5),(1,3),(3,4)] @ n=6"


@pytest.fixture(scope="session")
def s2():
    return sa.parse_snake(S2_TEXT)


@pytest.fixture(scope="session")
def sstar():
    return sa.parse_snake(SSTAR_TEXT)


@pytest.fixture(scope="session")
def corpus():
    """All translation-normalized prime snakes with r <= 5, span <= 9."""
    spec = sa.CorpusSpec(r_max=5, span=9, filters=frozenset({"prime"}))
    return tuple(sa.enumerate_snakes(spec))


@pytest.fixture(scope="session")
def small_corpus():
    spec = sa.CorpusSpec(r_max=3, span=6, filters=frozenset({"prime"}))
    return tuple(sa.enumerate_snakes(spec))


def translated(s, t):
    """s moved t places along the line, at the same rank."""
    return sa.Snake(s.n, tuple(iv.translate(t) for iv in s.intervals))


def boundary(s):
    return s.j_max - s.i_min == s.n + 1 and s.j_min == s.i_max


def monomials(s, max_ht):
    """Every submonoid element of s with total multiplicity <= max_ht, by
    height, then in the order of ``combinations_with_replacement`` over the
    sorted generators.  A combination is sorted and its generators are
    non-trivial, so its exponents, in first-seen order, are already the
    normalized ``exps`` of the element."""
    gens = sorted(sa.generator_intervals(s))
    for k in range(max_ht + 1):
        for combo in combinations_with_replacement(gens, k):
            exps = dict.fromkeys(combo, 0)
            for iv in combo:
                exps[iv] += 1
            yield sa.MonoidElement(s.n, tuple(exps.items()))
