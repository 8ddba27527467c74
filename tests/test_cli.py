import json

import pytest

from snakealg import MonoidElement, cli, parse_monoid_element

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
