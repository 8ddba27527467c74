"""Command-line interface.

One JSON document per invocation on stdout.  Exit codes: 0 success, 2 bad
input, 3 precondition violation, 4 falsified invariant (with witness).  A
reader that closes stdout early cuts the document short; the exit code stays
that of the document, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import explorer, factorizer, grothendieck, heightmap, isomorph, primesets, snakes
from .core import parse_monoid_element, parse_snake
from .errors import FalsifiedInvariantError, ParseError, PreconditionError

# The factor document lists one entry per factor, so it is only written for
# factorizations of at most this many factors.
MAX_LISTED_FACTORS = 10000


def _emit(doc) -> int:
    try:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; what is left of the document goes to the null
        # device, so the flush at exit raises nothing (see the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _descriptor_doc(d: primesets.PrimeDescriptor) -> dict:
    return {
        "kind": d.kind,
        "intervals": [[iv.i, iv.j] for iv in d.intervals],
        "weight": str(d.weight),
    }


def _cmd_validate(args) -> int:
    s = parse_snake(args.snake)
    c = snakes.classify(s)
    return _emit({
        "snake": str(s),
        "stable": c.stable,
        "connected": c.connected,
        "prime": c.prime,
        "eps": list(c.eps) if c.eps is not None else None,
    })


def _cmd_sets(args) -> int:
    s = parse_snake(args.snake)
    doc = {
        "snake": str(s),
        "generators": sorted([iv.i, iv.j] for iv in primesets.generator_intervals(s)),
        "pr": [_descriptor_doc(d) for d in primesets.pr_set(s)],
        "fr": [_descriptor_doc(d) for d in primesets.fr_set(s)],
    }
    if s.r >= 3:
        doc["tilde"] = sorted([iv.i, iv.j] for iv in primesets.tilde_interval_set(s))
        doc["intervals"] = sorted([iv.i, iv.j] for iv in primesets.interval_set(s))
    return _emit(doc)


def _cmd_factor(args) -> int:
    s = parse_snake(args.snake)
    w = parse_monoid_element(args.omega, s.n)
    f = factorizer.factor(w, s)
    # len(f) cannot count past sys.maxsize
    count = sum(m for _, m in f.pairs)
    if count > MAX_LISTED_FACTORS:
        raise PreconditionError(
            "%s of height %d has %d factors; factor lists at most %d"
            % (w, w.ht, count, MAX_LISTED_FACTORS))
    return _emit({
        "snake": str(s),
        "omega": str(w),
        "factors": [_descriptor_doc(d) for d in f.factors],
        "count": count,
    })


def _cmd_exchange(args) -> int:
    s = parse_snake(args.snake)
    t = grothendieck.exchange_triple(s)
    return _emit({
        "snake": str(s),
        "left": [str(c.omega) for c in t.left],
        "term1": str(t.term1.omega),
        "term2": str(t.term2.omega),
        "term2_components": [str(c.omega) for c in t.term2_components],
    })


def _cmd_iso(args) -> int:
    s = parse_snake(args.source)
    t = parse_snake(args.target)
    w = None if args.omega is None else parse_monoid_element(args.omega, s.n)
    snakes.require_prime(s)
    snakes.require_prime(t)
    try:
        iso = isomorph.build_iso(s, t)
    except PreconditionError:
        # both snakes are prime, so only the matching conditions can fail
        iso = None
    doc = {"source": str(s), "target": str(t), "conditions": iso is not None}
    if iso is not None:
        doc["map"] = sorted(
            [[a.i, a.j], [b.i, b.j]] for a, b in iso.pairs)
        if w is not None:
            doc["omega"] = str(w)
            doc["eta"] = str(iso.eta(w))
            doc["transport"] = isomorph.transport_check(iso, w)
    return _emit(doc)


def _cmd_height(args) -> int:
    s = parse_snake(args.snake)
    h = heightmap.height_profile(s)
    return _emit({
        "snake": str(s),
        "N": h.N,
        "p_seq": list(h.p_seq),
        "xi": list(h.xi),
        "interval_set_xi": sorted(
            [iv.i, iv.j] for iv in heightmap.interval_set_xi(h)),
        "snake_of_xi": str(heightmap.snake_of_xi(s)),
        "pr_xi": sorted(str(w) for w in heightmap.pr_xi(s)),
        "fr_xi": sorted(str(w) for w in heightmap.fr_xi(s)),
    })


def _cmd_cluster(args) -> int:
    s = parse_snake(args.snake)
    return _emit(heightmap.cluster_export(s))


def _cmd_enumerate(args) -> int:
    if (args.n_lo is None) != (args.n_hi is None):
        raise ParseError("--n-lo and --n-hi must be given together")
    spec = explorer.CorpusSpec(
        r_max=args.r_max,
        span=args.span,
        n_range=(args.n_lo, args.n_hi) if args.n_lo is not None else None,
        filters=frozenset(args.filter or ()),
    )
    if args.limit < 0:
        raise ParseError("--limit must be >= 0, got %d" % args.limit)
    out = []
    for s in explorer.enumerate_snakes(spec):
        out.append(str(s))
        if args.limit and len(out) >= args.limit:
            break
    return _emit({"count": len(out), "snakes": out})


def _cmd_selftest(args) -> int:
    spec = explorer.CorpusSpec(r_max=3, span=5, filters=frozenset({"prime"}))
    checks = {"classified": 0, "enumeration": 0, "closure": 0, "factored": 0,
              "exchange": 0, "height": 0}
    for s in explorer.enumerate_snakes(spec):
        checks["classified"] += 1
        if not snakes.check_enumeration(s):
            raise FalsifiedInvariantError("enumeration sweep failed on %s" % s)
        checks["enumeration"] += 1
        if s.r >= 3:
            if not primesets.closure_check(s):
                raise FalsifiedInvariantError("closure failed on %s" % s)
            checks["closure"] += 1
            if snakes.is_boundary(s):
                heightmap.pr_bijection(s)
                checks["height"] += 1
        for d in primesets.pr_set(s) + primesets.fr_set(s):
            f = factorizer.factor(d.weight, s)
            if f.weight_multiset() != (d.weight,):
                raise FalsifiedInvariantError(
                    "descriptor %s of %s is not a factorization fixed point"
                    % (d, s))
            checks["factored"] += 1
        if s.r >= 2:
            grothendieck.exchange_triple(s)
            checks["exchange"] += 1
    return _emit({"passed": checks})


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a ParseError, so they leave as a JSON document
    with exit code 2 instead of usage text on stderr."""

    def error(self, message):
        raise ParseError("%s: %s" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="snakealg")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, func, *positional):
        p = sub.add_parser(name)
        for arg in positional:
            p.add_argument(arg)
        p.set_defaults(func=func)
        return p

    verb("validate", _cmd_validate, "snake")
    verb("sets", _cmd_sets, "snake")
    p = verb("factor", _cmd_factor)
    p.add_argument("--snake", required=True)
    p.add_argument("--omega", required=True)
    verb("exchange", _cmd_exchange, "snake")
    p = verb("iso", _cmd_iso)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--omega")
    verb("height", _cmd_height, "snake")
    verb("cluster", _cmd_cluster, "snake")
    p = verb("enumerate", _cmd_enumerate)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--span", type=int, required=True)
    p.add_argument("--n-lo", type=int)
    p.add_argument("--n-hi", type=int)
    p.add_argument("--filter", action="append",
                   choices=["stable", "connected", "prime", "boundary"])
    p.add_argument("--limit", type=int, default=0)
    verb("selftest", _cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        _emit({"error": "parse", "message": str(exc)})
        return 2
    except PreconditionError as exc:
        _emit({"error": "precondition", "message": str(exc)})
        return 3
    except FalsifiedInvariantError as exc:
        _emit({"error": "falsified-invariant", "witness": str(exc)})
        return 4


if __name__ == "__main__":
    sys.exit(main())
