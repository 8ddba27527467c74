"""Irreducible classes and the exchange relations relating a snake, its
tail, and the endpoint-crossed product.

A class is identified by its normalized weight.
"""

from __future__ import annotations

from collections import namedtuple

from .core import MonoidElement, Snake
from .errors import FalsifiedInvariantError, PreconditionError
from .factorizer import factor
from .snakes import both_ends_differ, crossed, require_prime


IrredClass = namedtuple("IrredClass", "omega")


def irred_class(w: MonoidElement, s: Snake) -> IrredClass:
    """Build a class after checking w factors over s."""
    factor(w, s)
    return IrredClass(w)


def _tail_weight(s: Snake, start: int) -> MonoidElement:
    if start > s.r:
        return MonoidElement.one(s.n)
    return s.subsnake(start, s.r).weight


# left[0] * left[1] = term1 + term2 in the classes of snake, and term2 is
# the product of term2_components
ExchangeTriple = namedtuple("ExchangeTriple", "snake left term1 term2 term2_components")


def _raw_endpoints(intervals):
    return (sorted(iv.i for iv in intervals), sorted(iv.j for iv in intervals))


def exchange_triple(s: Snake) -> ExchangeTriple:
    """The relation: head class times tail class = snake class + crossed class."""
    e1 = require_prime(s).eps[0]
    if s.r < 2:
        raise PreconditionError("exchange needs length >= 2")
    n = s.n
    g1 = MonoidElement.generator(s.iv(1), n)
    tailw = _tail_weight(s, 2)
    left = (irred_class(g1, s), irred_class(tailw, s))
    term1 = irred_class(s.weight, s)
    if term1.omega != g1 * tailw:
        raise FalsifiedInvariantError("head/tail product differs from %s" % s)

    # the crossed pair: g2 and g4 of the factorizer's ledger
    c2, c4 = crossed(s.iv(1 + e1), s.iv(2 - e1))
    g2, g4 = MonoidElement.generator(c2, n), MonoidElement.generator(c4, n)
    deep = _tail_weight(s, 3)
    term2 = irred_class(g2 * g4 * deep, s)

    # raw endpoint conservation; normalization may erase a crossed generator
    raw_term2 = [c2, c4] + list(s.intervals[2:])
    if _raw_endpoints(s.intervals) != _raw_endpoints(raw_term2):
        raise FalsifiedInvariantError("endpoint conservation fails for %s" % s)

    if s.r >= 4 and not both_ends_differ(s.iv(1), s.iv(4)):
        components = (
            irred_class(g4, s),
            irred_class(g2 * MonoidElement.generator(s.iv(3), n), s),
            irred_class(_tail_weight(s, 4), s),
        )
    else:
        components = (irred_class(g4, s), irred_class(g2 * deep, s))
    components = tuple(c for c in components if not c.omega.is_one)
    prod = MonoidElement.one(n)
    for c in components:
        prod = prod * c.omega
    if prod != term2.omega:
        raise FalsifiedInvariantError("component product differs for %s" % s)
    return ExchangeTriple(s, left, term1, term2, components)
