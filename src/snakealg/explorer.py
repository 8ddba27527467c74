"""Corpus generation: exhaustive enumeration of small snakes, a rejection
sampler, and a brute-force factorization oracle used as an independent
check on the canonical factorizer."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator

from .core import Interval, MonoidElement, Snake
from .errors import PreconditionError
from .primesets import descriptor_index
from .snakes import Step, classify, extend, is_boundary, pair_rank

SPAN_CAP = 12
R_CAP = 7


@dataclass(frozen=True)
class CorpusSpec:
    r_max: int
    span: int
    n_range: tuple[int, int] | None = None
    translation_normalized: bool = True
    filters: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not (1 <= self.span <= SPAN_CAP and 1 <= self.r_max <= R_CAP):
            raise PreconditionError(
                "corpus bounds r_max=%d span=%d outside 1..%d and 1..%d"
                % (self.r_max, self.span, R_CAP, SPAN_CAP))
        bad = set(self.filters) - {"stable", "connected", "prime", "boundary"}
        if bad:
            raise PreconditionError("unknown filters: %s" % sorted(bad))


def _admits(step: Step, filters) -> bool:
    """Whether a search keeps the prefix that ``step`` judged: the rank-free
    part of the filters, used to prune."""
    if filters & {"prime", "boundary"}:
        return step.connected and step.keeps_prime
    if "connected" in filters:
        return step.connected
    return step.stable


def _candidate_ranks(ivs: tuple[Interval, ...], spec: CorpusSpec) -> list[int]:
    n_min = max(iv.length for iv in ivs)
    if spec.filters & {"connected", "prime", "boundary"}:
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


def _passes(s: Snake, filters) -> bool:
    c = classify(s)
    return (c.stable and ("connected" not in filters or c.connected)
            and ("prime" not in filters or c.prime)
            and ("boundary" not in filters or is_boundary(s)))


def _alphabet(spec: CorpusSpec) -> list[Interval]:
    return [Interval(i, j) for i in range(0, spec.span + 1)
            for j in range(i + 1, spec.span + 1)]


def enumerate_snakes(spec: CorpusSpec) -> Iterator[Snake]:
    """Every snake meeting the spec, translation-normalized, exactly once,
    in deterministic order."""
    alphabet = _alphabet(spec)

    def walk(prefix: tuple[Interval, ...], bit: int | None) -> Iterator[tuple[Interval, ...]]:
        yield prefix
        if len(prefix) == spec.r_max:
            return
        for iv in alphabet:
            step = extend(prefix, bit, iv)
            if _admits(step, spec.filters):
                yield from walk(prefix + (iv,), step.bit)

    for ivs in chain.from_iterable(walk((iv,), None) for iv in alphabet):
        if spec.translation_normalized and min(iv.i for iv in ivs) != 0:
            continue
        for n in _candidate_ranks(ivs, spec):
            s = Snake(n, ivs)
            if _passes(s, spec.filters):
                yield s


def oracle_factorizations(w: MonoidElement, s: Snake, cap: int = 4):
    """All multisets of descriptor weights multiplying to w, by backtracking."""
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


def random_snake(seed: int, spec: CorpusSpec, budget: int = 20000) -> Snake:
    """Deterministic rejection sampler over the spec."""
    rng = random.Random(seed)
    alphabet = _alphabet(spec)
    for _ in range(budget):
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
        if _passes(s, spec.filters):
            return s
    raise PreconditionError("rejection budget exhausted for %s" % (spec,))
