import contextlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

import snakealg as sa
from snakealg import MonoidElement, cli, heightmap, isomorph, parse_monoid_element
from snakealg.explorer import R_CAP
from snakealg.factorizer import snake_context

from conftest import boundary

S2 = "[(0,2),(-1,1)] @ n=3"
SSTAR = "[(0,6),(-1,4),(2,5),(1,3),(3,4)] @ n=6"
# as many nines as Python's default limit on int/str conversion allows; the
# sum of two such numbers can no longer be printed
NINES = "9" * 4300


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestValidate:
    def test_prime(self, capsys):
        code, doc = run(capsys, "validate", SSTAR)
        assert code == 0
        assert doc["prime"] is True
        assert doc["eps"] == [0, 1, 0, 1, 0]

    def test_unstable(self, capsys):
        code, doc = run(capsys, "validate", "[(0,2),(0,2)] @ n=3")
        assert code == 0
        assert doc["stable"] is False
        assert doc["eps"] is None

    def test_parse_error(self, capsys):
        code, doc = run(capsys, "validate", "[(0,2)]")
        assert code == 2
        assert doc["error"] == "parse"


class TestSets:
    def test_sstar(self, capsys):
        code, doc = run(capsys, "sets", SSTAR)
        assert code == 0
        assert len(doc["intervals"]) == 12
        assert len(doc["pr"]) == 27
        assert len(doc["fr"]) == 6

    def test_rank2_omits_interval_sets(self, capsys):
        code, doc = run(capsys, "sets", S2)
        assert code == 0
        assert "intervals" not in doc


class TestFactor:
    def test_window_pair(self, capsys):
        code, doc = run(capsys, "factor", "--snake", SSTAR,
                        "--omega", "w{0,6} * w{-1,4}")
        assert code == 0
        assert doc["count"] == 1
        assert doc["factors"][0]["kind"] == "window"

    def test_precondition(self, capsys):
        code, doc = run(capsys, "factor", "--snake", SSTAR, "--omega", "w{0,3}")
        assert code == 3
        assert doc["error"] == "precondition"

    def test_tall_power(self, capsys):
        code, doc = run(capsys, "factor", "--snake", SSTAR, "--omega", "w{0,5}^2000")
        assert code == 0
        assert doc["count"] == len(doc["factors"]) == 2000
        product = MonoidElement.one(6)
        for d in doc["factors"]:
            product = product * parse_monoid_element(d["weight"], 6)
        assert product == parse_monoid_element("w{0,5}^2000", 6)

    def test_falsified_invariant(self, capsys, monkeypatch):
        # the generator descriptor of w{1,3} is corrupted to weigh w{1,3}^2
        # in the alphabet of sstar's last tail context
        ctx = snake_context(sa.parse_snake(SSTAR))
        for _ in range(3):
            ctx = ctx.tail_ctx
        k = next(k for k, d in enumerate(ctx.alphabet) if str(d) == "generator[(1,3)]")
        exps = list(ctx.exps)
        exps[k] = ((sa.Interval(1, 3), 2),)
        monkeypatch.setattr(ctx, "exps", tuple(exps))
        code, doc = run(capsys, "factor", "--snake", SSTAR, "--omega", "w{1,3}")
        assert code == 4
        assert doc == {"error": "falsified-invariant",
                       "witness": "weight recovery failed for w{1,3} over "
                                  "[(1,3),(3,4)] @ n=6: got 1"}


class TestHugeExponents:
    """Elements whose factorizations are far too long to expand end in one
    JSON document, not in a MemoryError."""

    @pytest.mark.parametrize("argv, expected", [
        (("factor", "--snake", "[(0,2)] @ n=3", "--omega", "w{0,2}^1000000000"), 3),
        (("factor", "--snake", S2, "--omega",
          "w{0,2}^99999999999999999999999 * w{-1,1}"), 3),
        (("iso", "--source", S2, "--target", "[(0,3),(-2,1)] @ n=5",
          "--omega", "w{0,2}^99999999999"), 0),
        (("factor", "--snake", "[(0,2)] @ n=3", "--omega",
          "w{0,2}^%s * w{0,2}^%s" % ("9" * 4000, "9" * 4000)), 3),
    ], ids=["rank1-power", "rank2-power", "iso-power", "long-sum"])
    def test_one_document(self, capsys, argv, expected):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        doc, end = json.JSONDecoder().raw_decode(out)
        assert out[end:] == "\n"
        assert code == expected
        assert doc.get("transport", True) is True

    def test_factor_cap(self, capsys):
        cap = cli.MAX_LISTED_FACTORS
        assert cap >= 2048
        code, doc = run(capsys, "factor", "--snake", "[(0,2)] @ n=3",
                        "--omega", "w{0,2}^%d" % cap)
        assert code == 0 and doc["count"] == cap
        code, doc = run(capsys, "factor", "--snake", "[(0,2)] @ n=3",
                        "--omega", "w{0,2}^%d" % (cap + 1))
        assert code == 3
        assert str(cap) in doc["message"] and str(cap + 1) in doc["message"]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("factor", "--snake", SSTAR),
        ("bogus", SSTAR),
        (),
        ("selftest", "--level", "desk"),
        ("enumerate", "--r-max", "2", "--span", "3", "--limit", "-1"),
        ("validate", "[(0,2)] @ n=" + "9" * 5000),
        ("validate", "[(0,%s)] @ n=3" % ("9" * 5000)),
        ("factor", "--snake", "[(0,2)] @ n=3", "--omega", "w{0,2}^" + "9" * 5000),
        ("factor", "--snake", "[(0,2)] @ n=3", "--omega",
         "w{0,2}^%s * w{0,2}^%s" % (NINES, NINES)),
        ("factor", "--snake", S2, "--omega", "w{0,2}^%s * w{-1,1}^%s" % (NINES, NINES)),
        ("iso", "--source", S2, "--target", "[(0,3),(-2,1)] @ n=5",
         "--omega", "w{0,2}^%s * w{0,2}^%s" % (NINES, NINES)),
    ], ids=["missing-omega", "unknown-verb", "no-verb", "selftest-level",
            "negative-limit", "long-rank", "long-endpoint", "long-exponent",
            "long-sum-factor", "long-sum-height", "long-sum-iso"])
    def test_parse_error_document(self, capsys, argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["error"] == "parse"
        assert isinstance(doc["message"], str)

    def test_help_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: snakealg")


class TestExchange:
    def test_s2(self, capsys):
        code, doc = run(capsys, "exchange", S2)
        assert code == 0
        assert doc["left"] == ["w{0,2}", "w{-1,1}"]
        assert doc["term1"] == "w{-1,1} * w{0,2}"
        assert doc["term2"] == "w{-1,2} * w{0,1}"
        assert sorted(doc["term2_components"]) == ["w{-1,2}", "w{0,1}"]

    def test_singleton_rejected(self, capsys):
        code, doc = run(capsys, "exchange", "[(0,2)] @ n=3")
        assert code == 3


class TestIso:
    def test_transport(self, capsys):
        code, doc = run(capsys, "iso", "--source", S2,
                        "--target", "[(0,3),(-2,1)] @ n=5",
                        "--omega", "w{0,2} * w{-1,1}")
        assert code == 0
        assert doc["conditions"] is True
        assert doc["eta"] == "w{-2,1} * w{0,3}"
        assert doc["transport"] is True

    def test_unmatched(self, capsys):
        code, doc = run(capsys, "iso", "--source", S2,
                        "--target", "[(0,2),(1,3)] @ n=3")
        assert code == 0
        assert doc["conditions"] is False
        assert "map" not in doc

    def test_bad_omega_when_unmatched(self, capsys):
        # the element is read before the conditions are decided, so a bad
        # one is a parse error whether or not they hold
        code, doc = run(capsys, "iso", "--source", S2,
                        "--target", "[(-2,0),(-1,1)] @ n=3",
                        "--omega", "not an element")
        assert code == 2
        assert doc == {"error": "parse", "message": "bad generator 'not an element'"}

    @pytest.mark.parametrize("target", [
        "[(0,3),(-2,1)] @ n=5", "[(0,2),(1,3)] @ n=3"], ids=["matched", "unmatched"])
    def test_one_matching_walk(self, capsys, monkeypatch, target):
        calls = []
        match = isomorph._match
        monkeypatch.setattr(isomorph, "_match",
                            lambda s, t: calls.append((s, t)) or match(s, t))
        code, doc = run(capsys, "iso", "--source", S2, "--target", target,
                        "--omega", "w{0,2}")
        assert code == 0 and "conditions" in doc
        assert len(calls) == 1

    @pytest.mark.parametrize("source, target", [
        ("[(0,2),(0,2)] @ n=3", S2), (S2, "[(0,2),(0,2)] @ n=3"),
        ("[(0,2),(0,2)] @ n=3", "[(0,3),(0,3)] @ n=3")],
        ids=["source", "target", "both"])
    def test_non_prime_is_a_precondition(self, capsys, source, target):
        code, doc = run(capsys, "iso", "--source", source, "--target", target)
        bad = source if source != S2 else target
        assert code == 3
        assert doc == {"error": "precondition", "message": "snake is not prime: %s" % bad}


class TestHeight:
    def test_sstar(self, capsys):
        code, doc = run(capsys, "height", SSTAR)
        assert code == 0
        assert doc["N"] == 6
        assert doc["xi"] == [7, 6, 7, 6, 5, 6]
        assert doc["snake_of_xi"] == SSTAR

    def test_non_boundary(self, capsys):
        code, doc = run(capsys, "height", "[(0,4),(2,5),(1,3)] @ n=4")
        assert code == 3


class TestCluster:
    def test_sstar(self, capsys):
        code, doc = run(capsys, "cluster", SSTAR)
        assert code == 0
        assert doc["type"] == "A_6"
        assert len(doc["correspondence"]) == 27

    @pytest.mark.parametrize("snake, message", [
        ("[(0,2),(0,2)] @ n=3", "snake is not prime: [(0,2),(0,2)] @ n=3"),
        (S2, "height translation needs length >= 3"),
        ("[(0,4),(2,5),(1,3)] @ n=4", "snake [(0,4),(2,5),(1,3)] @ n=4 does not "
         "have the boundary shape required here"),
        (SSTAR.replace("n=6", "n=9"), "snake [(0,6),(-1,4),(2,5),(1,3),(3,4)] "
         "@ n=9 does not have the boundary shape required here"),
    ], ids=["not-prime", "length-2", "not-boundary", "sstar-n9"])
    def test_errors(self, capsys, snake, message):
        code, doc = run(capsys, "cluster", snake)
        assert code == 3
        assert doc == {"error": "precondition", "message": message}


class TestEnumerate:
    def test_small(self, capsys):
        code, doc = run(capsys, "enumerate", "--r-max", "2", "--span", "4",
                        "--filter", "prime")
        assert code == 0
        assert doc["count"] == len(doc["snakes"]) > 0

    def test_limit(self, capsys):
        code, doc = run(capsys, "enumerate", "--r-max", "3", "--span", "5",
                        "--filter", "prime", "--limit", "5")
        assert code == 0
        assert doc["count"] == 5

    def test_half_range_rejected(self, capsys):
        code, doc = run(capsys, "enumerate", "--r-max", "2", "--span", "4",
                        "--n-lo", "3")
        assert code == 2

    def test_cap_rejected(self, capsys):
        code, doc = run(capsys, "enumerate", "--r-max", "9", "--span", "4")
        assert code == 3

    def test_reversed_range_is_empty(self, capsys):
        code, doc = run(capsys, "enumerate", "--r-max", "3", "--span", "5",
                        "--n-lo", "5", "--n-hi", "2")
        assert code == 0
        assert doc == {"count": 0, "snakes": []}


class TestSelftest:
    def test_passes(self, capsys):
        code, doc = run(capsys, "selftest")
        assert code == 0
        assert all(v > 0 for v in doc["passed"].values())


class TestImportPath:
    def test_no_dataclasses_inspect_or_typing(self):
        # pytest has imported all of them, random too, in this process, so a
        # fresh interpreter without site-packages imports the CLI
        code = ("import sys, snakealg.cli; print(sorted(set(sys.modules) & "
                "{'dataclasses', 'inspect', 'typing', 'ast', 'dis', 'random', "
                "'weakref'}))")
        src = os.path.dirname(os.path.dirname(sa.__file__))
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout == "[]\n"


# Prime snakes of every length up to R_CAP, boundary ones among them, that
# the contract test starts from before it changes their ranks.
_SEEDS = [S2, SSTAR, "[(0,2)] @ n=3"] + [
    str(sa.random_snake(seed, sa.CorpusSpec(R_CAP, 11, filters=frozenset({f}))))
    for seed in range(3) for f in ("prime", "boundary")]
_GENERATORS = {text: sorted(sa.generator_intervals(sa.parse_snake(text)))
               for text in _SEEDS}


def _iso_targets(text):
    """The snakes a seed has an isomorphism to: itself, and its height snake."""
    s = sa.parse_snake(text)
    return [text] + ([str(heightmap.snake_of_xi(s))] if s.r >= 3 and boundary(s) else [])


_TARGETS = {text: _iso_targets(text) for text in _SEEDS}

huge = st.sampled_from([2**63, 10**20, -10**20, int(NINES)])
small = st.integers(-3, 14)
ints = st.one_of(small, small, small, huge)
ranks = st.one_of(small, small, huge)
# text that is neither a snake nor an element, and no help flag: --help
# prints usage and exits 0 by design (TestUsageErrors.test_help_unchanged)
junk = st.text(max_size=24).filter(lambda t: not t.startswith(("-h", "--h")))
seed = st.sampled_from(_SEEDS)
snake_text = st.one_of(
    seed, seed,
    st.builds(lambda text, n: text.rsplit("=", 1)[0] + "=%d" % n, seed, ranks),
    st.builds(lambda ivs, n: "[%s] @ n=%d" % (",".join("(%d,%d)" % iv for iv in ivs), n),
              st.lists(st.tuples(ints, ints), min_size=1, max_size=R_CAP), ranks),
    junk)
exponent = st.one_of(st.integers(0, 3), st.integers(0, 3), huge)


def omega_text(intervals):
    """Elements over the given intervals, sometimes with a stray one, or junk."""
    interval = st.one_of(st.sampled_from(intervals), st.sampled_from(intervals),
                         st.tuples(ints, ints))
    return st.one_of(
        st.just("1"),
        st.builds(lambda terms: " * ".join("w{%d,%d}^%d" % (i, j, e)
                                           for (i, j), e in terms),
                  st.lists(st.tuples(interval, exponent), min_size=1, max_size=4)),
        junk)


def _factor(text):
    return st.builds(lambda s, w: ["factor", "--snake", s, "--omega", w],
                     st.one_of(st.just(text), snake_text), omega_text(_GENERATORS[text]))


def _iso(text):
    return st.builds(lambda t, w: ["iso", "--source", text, "--target", t]
                     + ([] if w is None else ["--omega", w]),
                     st.one_of(st.sampled_from(_TARGETS[text]), snake_text),
                     st.none() | omega_text(_GENERATORS[text]))


def _enumerate(r_max, width, n_lo, n_hi, filters, limit):
    argv = ["enumerate", "--r-max", str(r_max), "--span", str(width)]
    for flag, value in (("--n-lo", n_lo), ("--n-hi", n_hi), ("--limit", limit)):
        if value is not None:
            argv += [flag, str(value)]
    for f in filters:
        argv += ["--filter", f]
    return argv


# small corpus bounds keep each enumeration to a fraction of a second; the
# other values lie outside the CorpusSpec caps
r_max = st.one_of(st.integers(1, 3), st.sampled_from([-1, 0, R_CAP + 1, 10**20]))
width = st.one_of(st.sampled_from([1, 4, 6]), st.sampled_from([-1, 0, 13, 10**20]))
rank_bound = st.none() | st.integers(-2, 15) | huge
filters = st.lists(st.sampled_from(["stable", "connected", "prime", "boundary", "shiny"]),
                   max_size=2)

_ARGVS = {
    verb: st.builds(lambda s, verb=verb: [verb, s], snake_text)
    for verb in ("validate", "sets", "exchange", "height", "cluster")}
_ARGVS.update({
    "factor": seed.flatmap(_factor),
    "iso": seed.flatmap(_iso),
    "enumerate": st.builds(_enumerate, r_max, width, rank_bound, rank_bound, filters,
                           st.none() | st.sampled_from([-1, 0, 3])),
    "selftest": st.just(["selftest"]),
    "junk": st.lists(junk, max_size=4),
})
argvs = st.sampled_from(sorted(_ARGVS)).flatmap(_ARGVS.__getitem__)


class TestContract:
    """Every argv ends in exactly one JSON document and exit 0, 2, 3 or 4."""

    @staticmethod
    def check(argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        text = out.getvalue()
        doc, end = json.JSONDecoder().raw_decode(text)
        assert text[end:] == "\n"
        assert isinstance(doc, dict)
        assert code in (0, 2, 3, 4)

    @settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True)
    @given(argvs)
    def test_one_document(self, argv):
        self.check(argv)

    # enumerate has the most options to combine
    @settings(max_examples=150, deadline=timedelta(seconds=2), derandomize=True)
    @given(_ARGVS["enumerate"])
    def test_enumerate_one_document(self, argv):
        self.check(argv)
