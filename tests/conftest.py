from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

import snakealg as sa
from snakealg import snakes
from snakealg.factorizer import snake_context
from snakealg.primesets import descriptor_index

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


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty per-snake memo for one test, so that what it derives (the
    contexts with their trees, classifications) is built anew and dropped
    afterwards."""
    monkeypatch.setattr(snakes, "_memo", lru_cache(snakes.SNAKE_MEMO_SIZE)(
        snakes._memo.__wrapped__))


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


def children(ctx):
    """The contexts ctx hands work to: of its tail, and of its ŝ if it has one."""
    return [c for c in (ctx.tail_ctx, ctx.shat_ctx) if c is not None]


def tree(s):
    """The distinct contexts of the tree that ``snake_context(s)`` compiles,
    s first."""
    seen, todo = {}, [snake_context(s)]
    while todo:
        ctx = todo.pop()
        if ctx.snake not in seen:
            seen[ctx.snake] = ctx
            todo += children(ctx)
    return list(seen.values())


def check_levels(s):
    """Check that the contexts the factorizer reaches from the one of s, by
    tail and ŝ contexts at any depth, each have as their own descriptor
    weights the weights of s that live over their generators: they factor
    over the alphabet of s.  Returns how many levels there are, s included,
    one per path."""
    top = snake_context(s)
    todo, levels = [top], 0
    while todo:
        ctx = todo.pop()
        levels += 1
        assert {w.exps for w in descriptor_index(ctx.snake)} == {
            exps for exps in top.exps
            if ctx.gens.issuperset([iv for iv, _ in exps])}, (str(s), str(ctx.snake))
        todo += children(ctx)
    return levels


def check_shat_rule(s):
    """Check, for every context of length >= 3 in the tree of s, that ŝ (g2,
    then positions 3..r) is prime exactly when g2 is not a generator of the
    tail, and that the context holds the context of ŝ exactly then.  Returns
    the snakes of those contexts."""
    checked = set()
    for ctx in tree(s):
        t = ctx.snake
        if t.r >= 3:
            g2 = ctx.head[1]
            slanted = g2 not in ctx.tail_ctx.gens
            assert sa.classify(sa.Snake(t.n, (g2,) + t.intervals[2:])).prime == slanted, (
                str(s), str(t))
            assert (ctx.shat_ctx is not None) == slanted, (str(s), str(t))
            checked.add(t)
    return checked
