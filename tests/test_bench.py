"""scripts/bench.py on stub checkouts whose perfbench/run.py answers at once."""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

import bench  # noqa: E402

STUB_RUN = """
import json, os
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class Op:
    def __init__(self, name):
        self.name, self.spec = name, {{}}


def eigen_round(seed):
    return [Op("cell"), Op("bare")]


spectrum_round = eigen_round


def build_call(spec):
    return None


class Rounds:
    def __init__(self, ops, calls):
        self.rounds = 0

    def warm_up(self):
        pass

    def timed(self, seconds):
        self.rounds += 1
        return [0.001, 0.002], [{round_s}]


def verify_in_process(ops, rounds):
    return 0, True


if __name__ == "__main__":
    print(json.dumps({{"correct": True, "attempted": 7, "failed": 2,
                      "metrics": {{"ops_per_s": {{"value": 100.0, "unit": "1/s"}}}}}}))
"""


def stub_checkout(root: Path, name: str, round_s: float) -> str:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB_RUN.format(round_s=round_s))
    (tree / "src" / "rydant").mkdir(parents=True)
    (tree / "src" / "rydant" / "a.py").write_text("x = 1\ny = 2\n")
    (tree / "src" / "rydant" / "b.py").write_text("z = 3\n")
    return str(tree)


def test_one_file_holds_every_row(tmp_path, monkeypatch, capsys):
    parent = stub_checkout(tmp_path, "parent", 0.02)
    change = stub_checkout(tmp_path, "change", 0.01)
    monkeypatch.chdir(change)
    monkeypatch.setattr(bench, "tier1", lambda checkout: {"passed": 3, "failed": 0, "errors": 0, "wall_s": 0.1})
    monkeypatch.setattr(bench, "PAIRS", 2)
    monkeypatch.setattr(bench, "ROUNDS", 3)
    assert bench.main(["--out", "BENCH_1.json", "--parent", parent]) == 0
    report = json.loads((Path(change) / "BENCH_1.json").read_text())
    assert sorted(report["end_to_end"]) == ["cli", "eigen-sweep", "spectrum-sweep"]
    assert report["end_to_end"]["cli"] == {"metrics": {"ops_per_s": 100.0}, "correct": True, "attempted": 7,
                                           "failed": 2, "failed_share": "2/7"}
    assert sorted(report["peak_rss_fixed_rounds_mb"]) == ["eigen-sweep", "spectrum-sweep"]
    assert all(row["rounds"] == 3 and row["value"] > 0 for row in report["peak_rss_fixed_rounds_mb"].values())
    assert report["src_lines"] == {"files": {"src/rydant/a.py": 2, "src/rydant/b.py": 1}, "total": 3}
    assert report["tier1"] == {"passed": 3, "failed": 0, "errors": 0, "wall_s": 0.1}
    assert report["interleave"]["spectrum-sweep"] == {"ratio": 0.5, "quartiles": [0.5, 0.5], "wins": 2,
                                                      "pairs": 2, "seed": 1}
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == report


def test_a_harness_without_a_result_writes_nothing(tmp_path, monkeypatch, capsys):
    change = stub_checkout(tmp_path, "change", 0.01)
    (Path(change) / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
    monkeypatch.chdir(change)
    assert bench.main(["--out", "BENCH_1.json"]) == 1
    assert "no result: eigen-sweep: the harness gave no result" in capsys.readouterr().out
    assert not (Path(change) / "BENCH_1.json").exists()


@pytest.mark.parametrize(
    "text,counts",
    [("....\n870 passed in 19.50s\n", {"passed": 870, "failed": 0, "errors": 0}),
     ("F.\n1 failed, 869 passed in 19.20s\n", {"passed": 869, "failed": 1, "errors": 0}),
     ("E.\n868 passed, 2 errors in 18.90s\n", {"passed": 868, "failed": 0, "errors": 2}),
     ("E\n1 error in 0.84s\n", {"passed": 0, "failed": 0, "errors": 1})],
)
def test_pytest_summary_lines(text, counts):
    assert bench.pytest_counts(text) == counts


def test_a_missing_summary_line_is_no_result():
    with pytest.raises(bench.BenchError, match="no pytest summary line"):
        bench.pytest_counts("ImportError: no module\n")


def test_a_pytest_that_did_not_finish_is_no_result(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "TIER1", [sys.executable, "-c", "print('2 passed in 0.1s'); raise SystemExit(2)"])
    with pytest.raises(bench.BenchError, match="pytest exited 2"):
        bench.tier1(str(tmp_path))
