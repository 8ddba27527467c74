"""Formal integer combinations of irreducible classes and the exchange
relations relating a snake, its tail, and the endpoint-crossed product.

A class is identified by its normalized weight.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Interval, MonoidElement, Snake
from .errors import FalsifiedInvariantError, PreconditionError
from .factorizer import factor
from .snakes import both_ends_differ, epsilon_sequence, require_prime


@dataclass(frozen=True)
class IrredClass:
    omega: MonoidElement

    def __str__(self):
        return "[V(%s)]" % self.omega


def irred_class(w: MonoidElement, s: Snake) -> IrredClass:
    """Build a class after checking w factors over s."""
    factor(w, s)
    return IrredClass(w)


@dataclass(frozen=True)
class RingElement:
    terms: tuple[tuple[IrredClass, int], ...]

    @staticmethod
    def from_terms(pairs) -> "RingElement":
        acc: dict[IrredClass, int] = {}
        for cls, coef in pairs:
            acc[cls] = acc.get(cls, 0) + coef
        items = [(c, k) for c, k in acc.items() if k != 0]
        items.sort(key=lambda item: item[0].omega.exps)
        return RingElement(tuple(items))

    @staticmethod
    def single(cls: IrredClass) -> "RingElement":
        return RingElement(((cls, 1),))

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement.from_terms(self.terms + other.terms)

    def coefficient(self, cls: IrredClass) -> int:
        for c, k in self.terms:
            if c == cls:
                return k
        return 0

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for c, k in self.terms:
            parts.append(("%d*" % k if k != 1 else "") + str(c))
        return " + ".join(parts)


def _crossed(s: Snake) -> tuple[Interval, Interval]:
    return (Interval(s.iv(2).i, s.iv(1).j), Interval(s.iv(1).i, s.iv(2).j))


def _tail_weight(s: Snake, start: int) -> MonoidElement:
    if start > s.r:
        return MonoidElement.one(s.n)
    return s.subsnake(start, s.r).weight


@dataclass(frozen=True)
class ExchangeTriple:
    snake: Snake
    left: tuple[IrredClass, IrredClass]
    term1: IrredClass
    term2: IrredClass
    term2_components: tuple[IrredClass, ...]

    @property
    def right(self) -> RingElement:
        return RingElement.single(self.term1) + RingElement.single(self.term2)


def _raw_endpoints(intervals):
    return (sorted(iv.i for iv in intervals), sorted(iv.j for iv in intervals))


def exchange_triple(s: Snake) -> ExchangeTriple:
    """The relation: head class times tail class = snake class + crossed class."""
    require_prime(s)
    if s.r < 2:
        raise PreconditionError("exchange needs length >= 2")
    n = s.n
    e1 = epsilon_sequence(s)[0]
    g1 = MonoidElement.generator(s.iv(1), n)
    tailw = _tail_weight(s, 2)
    left = (irred_class(g1, s), irred_class(tailw, s))
    term1 = irred_class(s.weight, s)
    if term1.omega != g1 * tailw:
        raise FalsifiedInvariantError("head/tail product differs from %s" % s)

    cross1, cross2 = _crossed(s)
    w_c1 = MonoidElement.generator(cross1, n)
    w_c2 = MonoidElement.generator(cross2, n)
    deep = _tail_weight(s, 3)
    term2 = irred_class(w_c1 * w_c2 * deep, s)

    # raw endpoint conservation; normalization may erase a crossed generator
    raw_left = [s.iv(1)] + list(s.intervals[1:])
    raw_term2 = [cross1, cross2] + list(s.intervals[2:])
    if _raw_endpoints(raw_left) != _raw_endpoints(raw_term2):
        raise FalsifiedInvariantError("endpoint conservation fails for %s" % s)

    first = w_c1.pow(1 - e1) * w_c2.pow(e1)
    second = w_c1.pow(e1) * w_c2.pow(1 - e1) * deep
    if s.r >= 4 and not both_ends_differ(s.iv(1), s.iv(4)):
        components = (
            irred_class(first, s),
            irred_class(w_c1.pow(e1) * w_c2.pow(1 - e1)
                        * MonoidElement.generator(s.iv(3), n), s),
            irred_class(_tail_weight(s, 4), s),
        )
    else:
        components = (irred_class(first, s), irred_class(second, s))
    components = tuple(c for c in components if not c.omega.is_one)
    prod = MonoidElement.one(n)
    for c in components:
        prod = prod * c.omega
    if prod != term2.omega:
        raise FalsifiedInvariantError("component product differs for %s" % s)
    return ExchangeTriple(s, left, term1, term2, components)
