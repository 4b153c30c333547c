"""The A/B tool's bookkeeping (``bench/ab.py``) on synthetic run records.

No perfbench run starts here: the runner and the checkout copies are
replaced by stand-ins, so these tests cover the summary, the verdicts,
the alternation of the sides and the record's keys.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "bench" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SHARED_KEYS = ("label", "revisions", "what", "command", "bounds", "machine", "claim",
               "workloads")
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def run(units=100.0, wall=1.0, setup=0.2, rss=40.0, correct=True, failed=0, attempted=10):
    return {"exit": 0, "correct": correct, "attempted": attempted, "failed": failed,
            "problems": [] if correct else ["g1: final train loss not below the first"],
            "metrics": {"norm_wall_s": wall, "norm_units_per_s": units, "setup_s": setup,
                        "peak_rss_mb": rss}}


def pairs_of(parent_units, change_units, **kw):
    return [{"seed": i, "first": ab.SIDES[i % 2], "parent": run(units=p, **kw),
             "change": run(units=c, **kw)}
            for i, (p, c) in enumerate(zip(parent_units, change_units))]


class TestVerdict:
    PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_nine_wins_and_a_gap_past_the_iqr_is_better(self):
        change = [p * 1.05 for p in self.PARENT]
        change[3] = 90.0  # one loss of ten
        assert ab.verdict(self.PARENT, change, "higher", 0.25) == "better"
        assert ab.verdict([-p for p in self.PARENT], [-c for c in change], "lower",
                          0.25) == "better"

    def test_eight_wins_are_not_enough(self):
        change = [p * 1.05 for p in self.PARENT]
        change[3] = change[5] = 90.0
        assert ab.verdict(self.PARENT, change, "higher", 0.25) == "inside the bound"

    def test_wins_inside_the_parents_spread_are_not_better(self):
        parent = [90.0, 110.0] * 5
        change = [p + 0.5 for p in parent]  # ten wins, a median gap of 0.5 against an IQR of 20
        assert ab.verdict(parent, change, "higher", 0.25) == "inside the bound"

    def test_a_median_worse_than_the_bound(self):
        change = [p * 0.7 for p in self.PARENT]
        assert ab.verdict(self.PARENT, change, "higher", 0.25) == "worse beyond the bound"
        wall = [1.0] * 10
        assert ab.verdict(wall, [1.3] * 10, "lower", 0.25) == "worse beyond the bound"

    def test_a_consistent_loss_inside_the_bound(self):
        change = [p * 0.95 for p in self.PARENT]
        assert ab.verdict(self.PARENT, change, "higher", 0.25) == "worse inside the bound"

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        change = list(reversed(parent))
        assert ab.verdict(parent, change, "lower", 0.25).startswith("unresolved")

    def test_unless_every_change_run_beats_every_parent_run(self):
        parent = [1.0, 2.0] * 5
        change = [0.9] * 10
        assert ab.verdict(parent, change, "lower", 0.25) == "inside the bound"
        change[4] = None  # a crashed run beats nothing
        assert ab.verdict(parent, change, "lower", 0.25).startswith("unresolved")

    def test_wins_count_against_every_pair_run(self):
        # Five crashed change runs and five wins are 5 of 10, not 5 of 5.
        change = [p * 1.05 for p in self.PARENT]
        change[5:] = [None] * 5
        assert ab.outcomes(self.PARENT, change, "higher") == (5, 5)
        assert ab.verdict(self.PARENT, change, "higher", 0.25) == "inside the bound"
        change = [p * 1.05 for p in self.PARENT]
        change[3] = None  # nine wins and a crash are still 9 of 10
        assert ab.verdict(self.PARENT, change, "higher", 0.25) == "better"

    def test_a_missing_parent_value_is_no_win_for_the_change(self):
        parent, change = list(self.PARENT), [p * 1.05 for p in self.PARENT]
        parent[2] = parent[7] = None
        assert ab.outcomes(parent, change, "higher") == (8, 0)
        assert ab.verdict(parent, change, "higher", 0.25) == "inside the bound"

    def test_a_side_without_values(self):
        assert ab.verdict(self.PARENT, [None] * 10, "higher", 0.25) == "no value on a side"
        assert ab.outcomes(self.PARENT, [None] * 10, "higher") == (0, 10)


class TestSummary:
    def test_medians_quartiles_wins_and_relative_change(self):
        pairs = pairs_of([100, 102, 98, 101, 99], [110, 111, 105, 108, 97])
        s = ab.summarize(pairs, BENCHMARK["end_to_end"])["norm_units_per_s"]
        assert s["pairs"] == 5 and s["pairs_without_value"] == 0
        assert s["parent"] == {"median": 100, "q1": 99, "q3": 101}
        assert s["change"] == {"median": 108, "q1": 105, "q3": 110}
        assert (s["change_wins"], s["parent_wins"]) == (4, 1)
        assert s["rel_change"] == pytest.approx(0.08)
        assert s["verdict"] == "inside the bound"  # 4 of 5 wins is under 9/10
        assert ab.summarize(pairs, BENCHMARK["end_to_end"])["norm_wall_s"]["change_wins"] == 0

    def test_a_crashed_run_is_kept_and_counted_as_a_lost_pair(self):
        pairs = pairs_of([100] * 4, [110] * 4)
        crashed = ab.parse_run(subprocess.CompletedProcess([], 1, "", "Traceback\nBoom\n"))
        pairs[2]["change"] = crashed
        s = ab.summarize(pairs, BENCHMARK["end_to_end"])["norm_units_per_s"]
        assert (s["pairs"], s["pairs_without_value"]) == (4, 1)
        assert (s["change_wins"], s["parent_wins"]) == (3, 1)
        assert s["change"] == {"median": 110, "q1": 110, "q3": 110}
        assert s["verdict"] == "inside the bound"  # 3 of 4 wins is under 9/10
        share = ab.failed_share(pairs)
        assert share["change"]["runs"] == 4 and share["change"]["runs_not_correct"] == 1
        assert crashed["error"] == ["Traceback", "Boom"] and crashed["exit"] == 1
        for pair in pairs:
            pair["change"] = crashed
        s = ab.summarize(pairs, BENCHMARK["end_to_end"])["norm_units_per_s"]
        assert (s["verdict"], s["change_wins"], s["parent_wins"]) == ("no value on a side", 0, 4)
        assert "parent" not in s and "change" not in s

    def test_failed_units_count_against_attempted_ones(self):
        pairs = pairs_of([100] * 3, [100] * 3)
        pairs[0]["parent"] = run(correct=False, failed=4, attempted=8)
        pairs[0]["change"] = run(correct=False, failed=4, attempted=8)
        share = ab.failed_share(pairs)
        assert share["parent"]["share"] == share["change"]["share"] == 4 / 28
        assert share["rises"] is False
        pairs[1]["change"] = run(correct=False, failed=1)
        assert ab.failed_share(pairs)["rises"] is True


class TestRecord:
    CLAIM = "train_deep:norm_units_per_s"

    def test_a_claim_is_not_met_when_the_change_fails_more_units(self):
        parent = TestVerdict.PARENT
        pairs = pairs_of(parent, [p * 1.05 for p in parent])
        rec = ab.record("x", {}, BENCHMARK, {"train_deep": pairs}, {}, [self.CLAIM], None)
        assert rec["claim"][self.CLAIM] == {"verdict": "better", "met": True}
        pairs[4]["change"] = run(units=parent[4] * 1.05, correct=False, failed=1)
        rec = ab.record("x", {}, BENCHMARK, {"train_deep": pairs}, {}, [self.CLAIM], None)
        assert rec["workloads"]["train_deep"]["failed_share"]["rises"] is True
        assert rec["claim"][self.CLAIM] == {"verdict": "better", "met": False}


class TestParseRun:
    def test_the_json_line_and_the_failed_checks(self):
        line = json.dumps({"correct": False, "attempted": 8, "failed": 4, "metrics": {
            "norm_wall_s": {"value": 0.5, "unit": "s"}}})
        proc = subprocess.CompletedProcess([], 0, "# perfbench ...\nx = 1 s\n" + line + "\n",
                                           "perfbench: check failed: g1: loss rose\n")
        got = ab.parse_run(proc)
        assert got == {"exit": 0, "correct": False, "attempted": 8, "failed": 4,
                       "problems": ["g1: loss rose"], "metrics": {"norm_wall_s": 0.5}}


class TestImportRss:
    """Each run carries the peak RSS of an import-only interpreter from the same
    copy; the record keeps its medians and gives it no verdict."""

    LINE = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
        "peak_rss_mb": {"value": 38.0, "unit": "MB"}}})

    def stub_runner(self, monkeypatch, probe_stdout, probe_exit=0):
        calls = []

        def fake_run(cmd, **kw):
            calls.append((cmd, kw))
            if cmd[2] == "perfbench/run.py":
                return subprocess.CompletedProcess(cmd, 0, self.LINE + "\n", "")
            return subprocess.CompletedProcess(cmd, probe_exit, probe_stdout, "")

        monkeypatch.setattr(ab.subprocess, "run", fake_run)
        return calls

    def test_the_probe_runs_after_the_run_from_the_copys_root(self, tmp_path, monkeypatch):
        calls = self.stub_runner(monkeypatch, "31.5\n")
        got = ab.run_once(tmp_path, "rank_sweep", 7, 10)
        assert got["import_rss_mb"] == 31.5 and got["metrics"] == {"peak_rss_mb": 38.0}
        (run_cmd, run_kw), (probe_cmd, probe_kw) = calls
        assert run_cmd[1:3] == ["-B", "perfbench/run.py"] and run_kw["cwd"] == tmp_path
        assert probe_cmd[1:] == ["-B", "-c", ab.IMPORT_RSS, "src", "perfbench"]
        assert probe_kw["cwd"] == tmp_path
        assert probe_kw["env"]["OPENBLAS_NUM_THREADS"] and probe_kw["env"]["OMP_NUM_THREADS"]

    @pytest.mark.parametrize("stdout, code", [("", 1), ("not a number\n", 0)])
    def test_a_failed_probe_has_no_value(self, tmp_path, monkeypatch, stdout, code):
        self.stub_runner(monkeypatch, stdout, code)
        assert ab.run_once(tmp_path, "rank_sweep", 7, 10)["import_rss_mb"] is None

    def test_the_record_keeps_medians_and_no_verdict(self):
        pairs = pairs_of([100] * 3, [100] * 3)
        for pair, (p, c) in zip(pairs, [(30.0, 31.0), (30.5, None), (29.0, 32.0)]):
            pair["parent"]["import_rss_mb"], pair["change"]["import_rss_mb"] = p, c
        rec = ab.record("x", {}, BENCHMARK, {"rank_sweep": pairs}, {}, [], None)
        wl = rec["workloads"]["rank_sweep"]
        assert wl["import_rss_mb"] == {"parent": 30.0, "change": 31.5}
        assert "import_rss_mb" not in wl["summary"]
        assert ("rank_sweep import_rss_mb (no verdict): parent 30.0, change 31.5"
                in ab.verdict_lines(rec))


class TestMain:
    def test_sides_alternate_and_the_record_carries_the_shared_keys(self, tmp_path,
                                                                     monkeypatch):
        calls = []

        def fake_extract(rev, dest):
            dest.mkdir(parents=True)
            return f"{rev}-sha"

        def fake_run(tree, workload, seed, seconds):
            calls.append((workload, tree.name, seed, seconds))
            return run(units=110.0 if tree.name == "change" else 100.0)

        monkeypatch.setattr(ab, "extract", fake_extract)
        monkeypatch.setattr(ab, "run_once", fake_run)
        monkeypatch.setattr(ab, "PAIRS", 3)
        monkeypatch.chdir(ROOT)  # where BENCHMARK.json is read
        out = tmp_path / "BENCH_test.json"
        assert ab.main(["P", "C", "--label", "test", "--seed-base", "70",
                        "--check", "train_deep=25,900",
                        "--claim", "train_deep:norm_units_per_s", "--out", str(out)]) == 0
        workloads = [w["name"] for w in BENCHMARK["workloads"]]
        assert [c[0] for c in calls[:-4]] == [w for w in workloads for _ in range(6)]
        paired = [c[1:] for c in calls if c[0] == "train_deep"]
        assert paired[:6] == [("parent", 70, 10), ("change", 70, 10), ("change", 71, 10),
                              ("parent", 71, 10), ("parent", 72, 10), ("change", 72, 10)]
        assert paired[6:] == [("parent", 25, 2.0), ("change", 25, 2.0), ("change", 900, 2.0),
                              ("parent", 900, 2.0)]
        rec = json.loads(out.read_text(encoding="utf-8"))
        assert list(rec["workloads"]) == workloads
        assert list(rec)[:8] == list(SHARED_KEYS)
        assert rec["revisions"] == {"parent": "P-sha", "change": "C-sha"}
        assert rec["command"] == ("python3 -B perfbench/run.py --workload WORKLOAD "
                                  "--seed SEED --seconds 10")
        summary = rec["workloads"]["train_deep"]["summary"]["norm_units_per_s"]
        assert (summary["change_wins"], summary["verdict"]) == (3, "better")
        assert rec["claim"] == {"train_deep:norm_units_per_s": {"verdict": "better",
                                                                 "met": True}}
        assert [p["seed"] for p in rec["checked_seeds"]["train_deep"]] == [25, 900]
        assert all(p["same_outcome"] for p in rec["checked_seeds"]["train_deep"])
        assert rec["workloads"]["train_deep"]["seeds"] == [70, 71, 72]


    @pytest.mark.parametrize("args", [
        ["--check", "train_deep=25,x"], ["--check", "nosuch=1"],
        ["--claim", "train_deep:speed"], ["--claim", "nosuch:peak_rss_mb"],
    ])
    def test_malformed_arguments_exit_before_any_run(self, args, monkeypatch, capsys):
        monkeypatch.setattr(ab, "extract", lambda rev, dest: pytest.fail("extracted"))
        monkeypatch.chdir(ROOT)
        with pytest.raises(SystemExit) as exc:
            ab.main(["P", "C", "--label", "x", "--seed-base", "1", *args])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_every_committed_record_carries_the_shared_keys(path):
    with open(path, encoding="utf-8") as fh:
        rec = json.load(fh)
    assert all(key in rec for key in SHARED_KEYS)
