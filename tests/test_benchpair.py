"""The summaries of ``tools/benchpair.py`` on synthetic runs, and its command
line with git, the exports and the runs stood in for."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "benchpair.py"
_spec = importlib.util.spec_from_file_location("benchpair", _PATH)
benchpair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpair)


def run(pair, side, **metrics):
    return {"pair": pair, "side": side, "exit": 0, "metrics": metrics}


RUNS = [
    run(0, "base", ops=10.0, ms=5.0), run(0, "change", ops=12.0, ms=4.0),
    run(1, "change", ops=10.0, ms=5.0), run(1, "base", ops=10.0, ms=5.0),
    run(2, "base", ops=11.0, ms=3.0), run(2, "change", ops=9.0, ms=6.0),
    run(3, "base", ops=12.0, ms=4.0), run(3, "change", ops=13.0, ms=3.5),
    # a failed run: it has no metrics and its pair is incomplete
    {"pair": 4, "side": "base", "exit": 1, "error": "boom"},
    run(4, "change", ops=99.0, ms=0.1),
    # a run whose outputs failed the check: its metrics do not count
    dict(run(5, "change", ops=500.0, ms=0.01), exit=1, correct=False),
]
BETTER = {"ops": "higher", "ms": "lower"}


class TestSummary:
    def test_quartiles(self):
        assert benchpair.summary([4.0, 1.0, 3.0, 2.0]) == {
            "median": 2.5, "q1": 1.75, "q3": 3.25, "values": [4.0, 1.0, 3.0, 2.0]}

    def test_short(self):
        assert benchpair.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0,
                                            "values": [7.0]}
        assert benchpair.summary([]) == {"median": None, "q1": None, "q3": None,
                                         "values": []}


class TestCompare:
    def test_wins_count_neither_side_on_a_tie(self):
        out = benchpair.compare(RUNS, BETTER)
        # pairs 0 and 3 go to the change, pair 2 to the base, pair 1 is a
        # tie, pair 4 lacks its base run and pair 5 its checked change run
        assert out["change_better_in_pairs"] == {"ops": "2 of 4", "ms": "2 of 4"}

    def test_runs_without_metrics_are_skipped(self):
        out = benchpair.compare(RUNS, BETTER)
        assert out["base"]["ops"]["values"] == [10.0, 10.0, 11.0, 12.0]
        assert out["change"]["ops"]["values"] == [12.0, 10.0, 9.0, 13.0, 99.0]

    def test_runs_with_wrong_outputs_are_skipped(self):
        out = benchpair.compare(RUNS, BETTER)
        assert 500.0 not in out["change"]["ops"]["values"]
        assert out["left_out"] == {"base": 1, "change": 1}
        # nor does the pair it would have won
        wrong = dict(run(0, "change", ops=500.0, ms=0.01), exit=1, correct=False)
        out = benchpair.compare([run(0, "base", ops=1.0, ms=1.0), wrong], BETTER)
        assert out["change_better_in_pairs"] == {"ops": "0 of 0", "ms": "0 of 0"}
        assert out["left_out"] == {"base": 0, "change": 1}
        assert out["base"]["ops"]["values"] == [1.0]

    def test_gap_against_the_base_spread(self):
        out = benchpair.compare(RUNS, BETTER)
        assert out["base_iqr"] == {"ops": 1.25, "ms": pytest.approx(1.25)}
        assert out["median_gap"] == {"ops": 1.5, "ms": -0.5}
        assert out["resolved"] == {"ops": True, "ms": False}
        assert out["median_ratio"]["ops"] == pytest.approx(12.0 / 10.5)

    def test_a_side_without_runs(self):
        out = benchpair.compare([r for r in RUNS if r["side"] == "base"], BETTER)
        assert out["change_better_in_pairs"] == {"ops": "0 of 0", "ms": "0 of 0"}
        assert out["base_iqr"] == out["median_gap"] == out["resolved"] == {
            "ops": None, "ms": None}


def sides(base_ops, change_ops):
    runs = []
    for pair, (b, c) in enumerate(zip(base_ops, change_ops)):
        runs += [run(pair, "base", ops=b, ms=1000.0 / b),
                 run(pair, "change", ops=c, ms=1000.0 / c)]
    return runs


class TestRegression:
    BOUNDS = {"ops": 0.25, "ms": 0.25}

    def test_none_within_the_bound(self):
        out = benchpair.compare(sides([10.0] * 4, [8.5] * 4), BETTER, self.BOUNDS)
        # 15% fewer ops/s and 18% more ms: neither is past its bound of 25%
        assert out["regression"] == {"ops": "none", "ms": "none"}

    def test_beyond_the_bound(self):
        out = benchpair.compare(sides([10.0] * 4, [7.0] * 4), BETTER, self.BOUNDS)
        assert out["regression"] == {"ops": "beyond_bound", "ms": "beyond_bound"}

    def test_unresolved_when_the_base_spreads_wider_than_the_bound(self):
        base = [5.0, 10.0, 15.0, 20.0]
        out = benchpair.compare(sides(base, [12.0] * 4), BETTER, self.BOUNDS)
        assert out["regression"] == {"ops": "unresolved", "ms": "unresolved"}
        # unless every change run beats every base run
        out = benchpair.compare(sides(base, [30.0] * 4), BETTER, self.BOUNDS)
        assert out["regression"] == {"ops": "none", "ms": "none"}

    def test_no_bounds_no_gate(self):
        assert benchpair.compare(RUNS, BETTER)["regression"] == {"ops": None, "ms": None}


class TestMain:
    def test_a_missing_scratch_dir_is_made_before_the_first_export(self, tmp_path,
                                                                   monkeypatch):
        # git, the export and the benchmark run are stood in for, so no
        # benchmark runs; each export goes into a fresh directory in scratch
        scratch = tmp_path / "not" / "yet"
        bench = {"run_seconds": 1, "end_to_end": [
            {"name": "ops", "better": "higher", "bound": 0.25}]}
        doc = {"correct": True, "attempted": 1, "failed": 0,
               "metrics": {"ops": {"value": 1.0}}}
        exports = []

        def git(*args):
            if args[0] == "rev-parse":
                return args[2].split("^")[0]
            return json.dumps(bench) if args[0] == "show" else ""

        class Proc:
            returncode, stdout, stderr = 0, json.dumps(doc) + "\n", ""

        monkeypatch.setattr(benchpair, "git", git)
        monkeypatch.setattr(benchpair, "export",
                            lambda commit, dest, paths=(): exports.append(dest))
        monkeypatch.setattr(benchpair.subprocess, "run", lambda *args, **kwargs: Proc)
        out = tmp_path / "bench.json"
        assert benchpair.main(["--base", "b", "--change", "c", "--out", str(out),
                               "--workloads", "atlas", "--pairs", "1",
                               "--scratch", str(scratch)]) == 0
        # base, change and the change's benchmark into the base export
        assert len(exports) == 3
        assert all(dest.parent == scratch for dest in exports)
        assert not list(scratch.iterdir())
        assert json.loads(out.read_text())["results"][0]["change_better_in_pairs"] == {
            "ops": "0 of 1"}
