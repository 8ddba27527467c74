"""Monoid isomorphisms between the submonoids of two equal-length snakes.

Two snakes of the same length induce a generator-wise isomorphism exactly
when their first alternation bit, their endpoint coincidence pattern, and
their generator membership pattern agree.  The map sends the generator with
endpoints taken at positions (m, l) of one snake to the generator with the
same positions in the other.
"""

from __future__ import annotations

from collections import Counter

from .core import Interval, MonoidElement, Snake, _Value
from .errors import FalsifiedInvariantError, PreconditionError
from .factorizer import factor
from .primesets import generator_intervals
from .snakes import require_prime


def _match(s: Snake, t: Snake) -> list[tuple[Interval, Interval]] | None:
    """The matching walk: the (source, target) pair at each position pair (p, q)
    whose source interval is a generator, or None when a matching condition fails."""
    if require_prime(s).eps[0] != require_prime(t).eps[0] or s.r != t.r:
        return None
    for a, b, c, d in zip(s.intervals, s.intervals[3:], t.intervals, t.intervals[3:]):
        if (a.i == b.i, a.j == b.j) != (c.i == d.i, c.j == d.j):
            return None
    gens_s, gens_t = generator_intervals(s), generator_intervals(t)
    found = []
    for sp, tp in zip(s.intervals, t.intervals):
        for sq, tq in zip(s.intervals, t.intervals):
            a, b = Interval(sp.i, sq.j), Interval(tp.i, tq.j)
            if (a in gens_s) != (b in gens_t):
                return None
            if a in gens_s:
                found.append((a, b))
    return found


def check_iso_conditions(s: Snake, t: Snake) -> bool:
    return _match(s, t) is not None


class SnakeIso(_Value):
    __match_args__ = ("source", "target", "pairs")
    __slots__ = __match_args__ + ("_map",)

    def __init__(self, source: Snake, target: Snake,
                 pairs: tuple[tuple[Interval, Interval], ...]):
        _Value.__init__(self, source, target, pairs)
        object.__setattr__(self, "_map", dict(pairs))

    @property
    def mapping(self) -> dict:
        return dict(self._map)

    def eta(self, w: MonoidElement) -> MonoidElement:
        """Generator-wise image of a submonoid element.  ``build_iso`` checks
        that the map is a bijection between the generators of source and target,
        so the support decides membership and relabelling merges nothing."""
        if w.n != self.source.n:
            raise PreconditionError("rank mismatch: %d vs %d" % (w.n, self.source.n))
        m = self._map
        try:
            exps = [(m[iv], e) for iv, e in w.exps]
        except KeyError:
            raise PreconditionError(
                "element %s is outside the submonoid of %s" % (w, self.source)) from None
        exps.sort()
        return MonoidElement(self.target.n, tuple(exps))


def build_iso(s: Snake, t: Snake) -> SnakeIso:
    """The index-wise generator bijection: the matching walk, then checks that
    no generator has conflicting images and that the map is a bijection."""
    found = _match(s, t)
    if found is None:
        raise PreconditionError(
            "snakes %s and %s do not satisfy the matching conditions" % (s, t))
    m: dict[Interval, Interval] = {}
    for a, b in found:
        prev = m.setdefault(a, b)
        if prev != b:
            raise FalsifiedInvariantError(
                "generator %s has conflicting images %s and %s" % (a, prev, b))
    if set(m) != generator_intervals(s) or set(m.values()) != generator_intervals(t):
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
