"""Corpus generation: exhaustive enumeration of small snakes, a rejection
sampler, and a brute-force factorization oracle used as an independent
check on the canonical factorizer."""

from __future__ import annotations

from itertools import chain

from .core import Interval, MonoidElement, Snake, _Value
from .errors import PreconditionError
from .primesets import descriptor_index
from .snakes import Step, extend, is_boundary, pair_rank

SPAN_CAP = 12
R_CAP = 7
# largest rank an n_range may ask for: the alphabet's intervals are at most
# SPAN_CAP long, so every rank from SPAN_CAP on classifies them alike
N_CAP = SPAN_CAP + 1
# draws random_snake makes before it gives up
DRAW_BUDGET = 20000


class CorpusSpec(_Value):
    __match_args__ = __slots__ = (
        "r_max", "span", "n_range", "translation_normalized", "filters")

    def __init__(self, r_max: int, span: int, n_range: tuple[int, int] | None = None,
                 translation_normalized: bool = True, filters: frozenset = frozenset()):
        if not (type(r_max) is int and type(span) is int
                and 1 <= span <= SPAN_CAP and 1 <= r_max <= R_CAP):
            raise PreconditionError(
                "corpus bounds r_max=%r span=%r outside 1..%d and 1..%d"
                % (r_max, span, R_CAP, SPAN_CAP))
        if type(translation_normalized) is not bool:
            raise PreconditionError("translation_normalized must be a bool, got %r"
                                    % (translation_normalized,))
        # a bare string would be read as its letters
        try:
            names = None if isinstance(filters, (str, bytes)) else frozenset(filters)
        except TypeError:
            names = None
        if names is None:
            raise PreconditionError(
                "filters must be a collection of filter names, got %r" % (filters,))
        filters = names
        bad = filters - {"stable", "connected", "prime", "boundary"}
        if bad:
            raise PreconditionError("unknown filters: %s" % sorted(bad))
        # the boundary filter lists prime snakes of the boundary shape, so it
        # implies prime; every filter test below reads this normalized set
        if "boundary" in filters:
            filters |= {"prime"}
        if n_range is not None and not (
                isinstance(n_range, tuple) and len(n_range) == 2
                and all(type(n) is int for n in n_range)):
            raise PreconditionError(
                "n_range must be None or a pair of integers, got %r" % (n_range,))
        if n_range is not None and n_range[1] > N_CAP:
            raise PreconditionError(
                "n_range %r reaches past the rank cap %d" % (n_range, N_CAP))
        _Value.__init__(self, r_max, span, n_range, translation_normalized, filters)


def _admits(step: Step, filters) -> bool:
    """Whether a search keeps the prefix that ``step`` judged: the rank-free
    part of the filters, used to prune.  With ``_candidate_ranks``, which
    offers only ranks at or above every interval length and, under
    connected or prime, every pair rank, the steps decide every filter but
    boundary: no candidate needs ``classify``."""
    if "prime" in filters:
        return step.connected and step.keeps_prime
    if "connected" in filters:
        return step.connected
    return step.stable


def _candidate_ranks(ivs: tuple[Interval, ...], spec: CorpusSpec) -> list[int]:
    n_min = max(iv.length for iv in ivs)
    if spec.filters & {"connected", "prime"}:
        n_min = max([n_min] + [pair_rank(a, b) for a, b in zip(ivs, ivs[1:])])
    if spec.n_range is not None:
        lo, hi = spec.n_range
        return [n for n in range(max(lo, n_min), hi + 1)]
    j_max = max(iv.j for iv in ivs)
    j_min = min(iv.j for iv in ivs)
    i_max = max(iv.i for iv in ivs)
    out = [n_min]
    if j_min == i_max and j_max - 1 > n_min:
        out.append(j_max - 1)
    if "boundary" in spec.filters:
        out = [n for n in out if n == j_max - 1]
    return out


def _alphabet(spec: CorpusSpec) -> list[Interval]:
    return [Interval(i, j) for i in range(0, spec.span + 1)
            for j in range(i + 1, spec.span + 1)]


def enumerate_snakes(spec: CorpusSpec):
    """Every snake meeting the spec, translation-normalized, exactly once,
    in deterministic order: depth first, children in alphabet order.

    Every prefix kept is stable, so position k >= 3 nests in position k - 2.
    Hence a prefix of length >= 2 is extended only by sub-intervals of its
    second-to-last interval, and the least left end lies at position 1 or 2:
    a normalized search stops below a length-2 prefix that misses 0 there.
    """
    alphabet = _alphabet(spec)
    # each interval's sub-intervals, in alphabet order: ``extend`` rejects
    # every other interval past a prefix of length 2
    nested = {o: [iv for iv in alphabet if o.i <= iv.i < iv.j <= o.j]
              for o in alphabet}

    def walk(prefix: tuple[Interval, ...], bit: int | None):
        yield prefix
        if len(prefix) == spec.r_max or (
                spec.translation_normalized and len(prefix) == 2
                and 0 not in (prefix[0].i, prefix[1].i)):
            return
        for iv in nested[prefix[-2]] if len(prefix) >= 2 else alphabet:
            step = extend(prefix, bit, iv)
            if _admits(step, spec.filters):
                yield from walk(prefix + (iv,), step.bit)

    for ivs in chain.from_iterable(walk((iv,), None) for iv in alphabet):
        if spec.translation_normalized and min(iv.i for iv in ivs) != 0:
            continue
        # every candidate rank is at least the length of every interval
        for n in _candidate_ranks(ivs, spec):
            s = Snake._of(n, ivs)
            if "boundary" not in spec.filters or is_boundary(s):
                yield s


def oracle_factorizations(w: MonoidElement, s: Snake, cap: int = 4):
    """All multisets of descriptor weights multiplying to w, by backtracking."""
    if type(cap) is not int:
        raise PreconditionError("oracle cap must be an integer, got %r" % (cap,))
    if w.ht > cap:
        raise PreconditionError("height %d exceeds oracle cap %d" % (w.ht, cap))
    weights = sorted(descriptor_index(s).keys(), key=lambda x: x.exps)

    def rec(rem: MonoidElement, start: int):
        if rem.is_one:
            yield ()
            return
        for k in range(start, len(weights)):
            q = rem.quotient(weights[k])
            if q is None:
                continue
            for rest in rec(q, k):
                yield (weights[k],) + rest

    return [tuple(sol) for sol in rec(w, 0)]


def random_snake(seed: int, spec: CorpusSpec) -> Snake:
    """Deterministic rejection sampler over the spec."""
    if spec.n_range is not None and max(spec.n_range[0], 1) > spec.n_range[1]:
        raise PreconditionError(
            "n_range %r holds no rank n >= 1 to sample" % (spec.n_range,))
    import random  # here, so that importing the CLI does not load it
    rng = random.Random(seed)
    alphabet = _alphabet(spec)
    for _ in range(DRAW_BUDGET):
        r = rng.randint(1, spec.r_max)
        ivs, bit = (rng.choice(alphabet),), None
        while len(ivs) < r:
            steps = [(iv, step) for iv in alphabet
                     if _admits(step := extend(ivs, bit, iv), spec.filters)]
            if not steps:
                break
            iv, step = rng.choice(steps)
            ivs, bit = ivs + (iv,), step.bit
        if len(ivs) < r:
            continue
        if spec.translation_normalized:
            shift = -min(iv.i for iv in ivs)
            ivs = tuple(iv.translate(shift) for iv in ivs)
            if max(iv.j for iv in ivs) > spec.span:
                continue
        ranks = _candidate_ranks(ivs, spec)
        if not ranks:
            continue
        s = Snake(rng.choice(ranks), ivs)
        if "boundary" not in spec.filters or is_boundary(s):
            return s
    raise PreconditionError("rejection budget exhausted for %s" % (spec,))
