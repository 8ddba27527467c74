"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of ``snakealg`` at every module
attribute that holds them, so each caller, inside the library or in the
benchmark, goes through the wrapper.  Nothing under ``src/`` changes.  A span
is ``(op, id, parent, name, start, end)``; spans stay in memory until the run
ends.  The monoid operations of ``core`` are counted, not spanned, because
there are millions of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# span name -> (module, attribute) of the function it times
SPANNED = {
    "core.parse_snake": ("core", "parse_snake"),
    "core.parse_monoid_element": ("core", "parse_monoid_element"),
    "snakes.classify": ("snakes", "classify"),
    "snakes.check_enumeration": ("snakes", "check_enumeration"),
    "primesets.pr_set": ("primesets", "pr_set"),
    "primesets.fr_set": ("primesets", "fr_set"),
    "primesets.descriptor_index": ("primesets", "descriptor_index"),
    "factorizer.factor": ("factorizer", "factor"),
    "grothendieck.exchange_triple": ("grothendieck", "exchange_triple"),
    "heightmap.height_profile": ("heightmap", "height_profile"),
    "heightmap.pr_bijection": ("heightmap", "pr_bijection"),
    "heightmap.cluster_export": ("heightmap", "cluster_export"),
    "isomorph.build_iso": ("isomorph", "build_iso"),
    "explorer.enumerate_snakes": ("explorer", "enumerate_snakes"),
    "cli.main": ("cli", "main"),
}

# MonoidElement members counted as core.monoid_ops.calls
MONOID_OPS = ("__mul__", "quotient", "from_exponents")

MODULES = ("core", "snakes", "primesets", "factorizer", "grothendieck",
           "isomorph", "heightmap", "explorer", "cli")


def library_modules():
    """Every imported module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "snakealg" or name.startswith("snakealg."))]


def cached_functions():
    """Every function with ``cache_info`` reachable from a module attribute."""
    seen = {}
    for mod in library_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_info") and callable(value.cache_info):
                seen.setdefault(id(value), value)
    return list(seen.values())


def cache_entries_total() -> int:
    return sum(f.cache_info().currsize for f in cached_functions())


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack = [0]
        self.next_id = 1
        self.op = -1  # -1 while setting up, then the op index
        self.monoid_calls = [0]
        self.absent: dict[str, str] = {}
        self._patches: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for m in MODULES:
            importlib.import_module("snakealg." + m)
        mods = library_modules()
        for name, (modname, attr) in SPANNED.items():
            mod = sys.modules["snakealg." + modname]
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent[name] = "snakealg.%s has no attribute %s" % (modname, attr)
                continue
            wrapper = (self._wrap_generator(name, fn) if inspect.isgeneratorfunction(fn)
                       else self._wrap(name, fn))
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, key, value))
                        setattr(m, key, wrapper)
        element = getattr(sys.modules["snakealg.core"], "MonoidElement")
        for attr in MONOID_OPS:
            raw = element.__dict__.get(attr)
            if raw is None:
                self.absent["core.monoid_ops." + attr] = "MonoidElement has no %s" % attr
                continue
            self._patches.append((element, attr, raw))
            setattr(element, attr, self._count(raw))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def _count(self, raw):
        counter = self.monoid_calls
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)

        return staticmethod(counted) if static else counted

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.monotonic  # the op spans' clock

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((self.op, sid, parent, name, t0, t1))

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        """One span per resumption, so consumer time between items is excluded."""
        step = self._wrap(name, next)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- op spans ---------------------------------------------------------

    def begin_op(self, i: int) -> None:
        self.op = i

    def op_span(self, i: int, t0: float, t1: float) -> None:
        """Record the op root span after the fact; its children point at 0."""
        self.spans.append((i, 0, -1, "op", t0, t1))

    # -- deriving layer numbers -------------------------------------------

    def layers(self) -> dict:
        """Calls, self time and outermost inclusive time per span name.

        Spans are appended as they close, so children precede parents and a
        single pass can subtract child time.  Op root spans share id 0 and are
        excluded; their children are the outermost library calls.
        """
        child_time: dict[int, float] = {}
        open_same: dict[tuple[int, str], bool] = {}
        out: dict[str, dict] = {}
        parent_of = {sid: (parent, name) for _, sid, parent, name, _, _ in self.spans if sid}
        for _, sid, parent, name, t0, t1 in self.spans:
            if not sid:
                continue
            dur = t1 - t0
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "outer_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child_time.pop(sid, 0.0)
            child_time[parent] = child_time.get(parent, 0.0) + dur
            if not _has_ancestor(parent, name, parent_of, open_same):
                row["outer_s"] += dur
        for name in SPANNED:
            if name not in self.absent:
                out.setdefault(name, {"calls": 0, "self_s": 0.0, "outer_s": 0.0})
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("op\tid\tparent\tname\tstart\tend\n")
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (op, sid, parent, name, t0, t1))


def _has_ancestor(sid, name, parent_of, memo) -> bool:
    """Whether span ``sid`` or one of its ancestors is named ``name``."""
    path = []
    found = False
    while sid in parent_of:
        key = (sid, name)
        if key in memo:
            found = memo[key]
            break
        path.append(key)
        sid, sname = parent_of[sid]
        if sname == name:
            found = True
            break
    for key in path:
        memo[key] = found
    return found
