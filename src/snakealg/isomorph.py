"""Monoid isomorphisms between the submonoids of two equal-length snakes.

Two snakes of the same length induce a generator-wise isomorphism exactly
when their first alternation bit, their endpoint coincidence pattern, and
their generator membership pattern agree.  The map sends the generator with
endpoints taken at positions (m, l) of one snake to the generator with the
same positions in the other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Interval, MonoidElement, Snake
from .errors import FalsifiedInvariantError, PreconditionError
from .factorizer import factor
from .primesets import generator_intervals
from .snakes import require_prime


def check_iso_conditions(s: Snake, t: Snake) -> bool:
    es, et = require_prime(s).eps, require_prime(t).eps
    if s.r != t.r or es[0] != et[0]:
        return False
    r = s.r
    for m in range(2, r - 1):
        if (s.iv(m - 1).i == s.iv(m + 2).i) != (t.iv(m - 1).i == t.iv(m + 2).i):
            return False
        if (s.iv(m - 1).j == s.iv(m + 2).j) != (t.iv(m - 1).j == t.iv(m + 2).j):
            return False
    gens_s, gens_t = generator_intervals(s), generator_intervals(t)
    for m in range(1, r + 1):
        for l in range(1, r + 1):
            a = Interval(s.iv(m).i, s.iv(l).j)
            b = Interval(t.iv(m).i, t.iv(l).j)
            if (a in gens_s) != (b in gens_t):
                return False
    return True


@dataclass(frozen=True)
class SnakeIso:
    source: Snake
    target: Snake
    pairs: tuple[tuple[Interval, Interval], ...]

    @property
    def mapping(self) -> dict:
        return dict(self.pairs)

    def eta(self, w: MonoidElement) -> MonoidElement:
        """Generator-wise image of a submonoid element.  The map's keys are
        the generators of the source (``build_iso`` checks it), so an element
        is in the submonoid exactly when the map holds its support."""
        m = self.mapping
        if not all(iv in m for iv in w.support):
            raise PreconditionError(
                "element %s is outside the submonoid of %s" % (w, self.source))
        return MonoidElement.from_pairs(self.target.n, ((m[iv], e) for iv, e in w.exps))


def build_iso(s: Snake, t: Snake) -> SnakeIso:
    """The index-wise generator bijection; fails loudly if any generator has
    conflicting images across its position representations."""
    if not check_iso_conditions(s, t):
        raise PreconditionError(
            "snakes %s and %s do not satisfy the matching conditions" % (s, t))
    gens_s = generator_intervals(s)
    gens_t = generator_intervals(t)
    m: dict[Interval, Interval] = {}
    for p in range(1, s.r + 1):
        for q in range(1, s.r + 1):
            a = Interval(s.iv(p).i, s.iv(q).j)
            if a not in gens_s:
                continue
            b = Interval(t.iv(p).i, t.iv(q).j)
            if b not in gens_t:
                raise FalsifiedInvariantError(
                    "image %s of %s at positions (%d,%d) is not a generator of %s"
                    % (b, a, p, q, t))
            prev = m.get(a)
            if prev is not None and prev != b:
                raise FalsifiedInvariantError(
                    "generator %s has conflicting images %s and %s" % (a, prev, b))
            m[a] = b
    if set(m) != set(gens_s) or set(m.values()) != set(gens_t):
        raise FalsifiedInvariantError(
            "generator map between %s and %s is not a bijection" % (s, t))
    if len(set(m.values())) != len(m):
        raise FalsifiedInvariantError(
            "generator map between %s and %s is not injective" % (s, t))
    return SnakeIso(s, t, tuple(sorted(m.items())))


def transport_check(iso: SnakeIso, w: MonoidElement) -> bool:
    """Factorization commutes with the isomorphism on w."""
    image, direct = Counter(), Counter()
    for d, m in factor(w, iso.source).pairs:
        image[iso.eta(d.weight)] += m
    for d, m in factor(iso.eta(w), iso.target).pairs:
        direct[d.weight] += m
    return image == direct
