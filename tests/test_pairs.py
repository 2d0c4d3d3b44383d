"""scripts/pairs.py on two stub checkouts whose perfbench/run.py prints a fixed result."""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

import pairs  # noqa: E402

METRIC = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def checkout(root: Path, name: str, correct: bool, attempted: int, failed: int) -> str:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [METRIC]}))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {"ops_per_s": {"value": 100.0, "unit": "1/s"}}}
    (tree / "perfbench" / "run.py").write_text(f"print({json.dumps(result)!r})\n")
    return str(tree)


@pytest.mark.parametrize(
    "change,code,refusal",
    [
        ((True, 7, 2), 0, None),
        ((True, 14, 4), 0, None),  # the same 2/7 share over more operations
        ((False, 7, 2), 1, "1 change run(s) report correct: false"),
        ((True, 7, 3), 1, "the change's failed share 0.4286 exceeds the parent's 0.2857"),
    ],
)
def test_refusals_exit_1_and_say_why(tmp_path, capsys, change, code, refusal):
    argv = ["--parent", checkout(tmp_path, "parent", True, 7, 2), "--change", checkout(tmp_path, "change", *change),
            "--workload", "w", "--pairs", "1", "--seconds", "1", "--seed-base", "0"]
    assert pairs.main(argv) == code
    out = capsys.readouterr().out
    assert "parent: correct 1/1, attempted 7, failed 2, failed share 0.2857" in out
    refused = [line for line in out.splitlines() if line.startswith("REFUSED: ")]
    assert refused == ([] if refusal is None else [f"REFUSED: {refusal}"])


STUB_RUN = """
import os
SRC = os.path.dirname(os.path.abspath(__file__))
NAME, LOG = {name!r}, {log!r}


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
        with open(LOG, "a") as fh:
            fh.write(NAME + "\\n")
        return {latencies!r}, [{round_s}]


def verify_in_process(ops, rounds):
    return {failed}, {correct}
"""


def worker_checkout(root: Path, name: str, round_s: float, op_s: float, failed: int = 0, correct: bool = True,
                    latencies=None) -> str:
    """A stub checkout whose rounds take round_s and whose two operations take latencies (default op_s each)."""
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB_RUN.format(
        name=name, log=str(root / "order.log"), round_s=round_s, latencies=latencies or [op_s, op_s],
        failed=failed, correct=correct))
    return str(tree)


def interleave_argv(parent: str, change: str, *extra: str) -> list[str]:
    return ["--interleave", "--parent", parent, "--change", change, "--workload", "eigen-sweep",
            "--pairs", "4", "--seed-base", "11", *extra]


class TestInterleave:
    def test_paired_rounds_alternate_and_report_ratios_and_wins(self, tmp_path, capsys):
        parent = worker_checkout(tmp_path, "parent", 0.02, 0.002)
        change = worker_checkout(tmp_path, "change", 0.01, 0.0015)
        assert pairs.main(interleave_argv(parent, change)) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "order.log").read_text().split() == ["parent", "change", "change", "parent"] * 2
        assert "eigen-sweep: 4 interleaved pair(s) of rounds, seed 11" in out
        assert "change: correct 1/1, attempted 8, failed 0, failed share 0" in out
        assert ("round_s   parent 0.02 [0.02, 0.02]  change 0.01 [0.01, 0.01]  "
                "paired ratio 0.500 [0.500, 0.500]  wins 4/4") in out
        assert ("op_ms_p50 parent 2 [2, 2]  change 1.5 [1.5, 1.5]  "
                "paired ratio 0.750 [0.750, 0.750]  wins 4/4") in out
        assert not (tmp_path / "parent" / "perfbench" / "__pycache__").exists()

    def test_each_operation_class_gets_its_paired_ratio(self, tmp_path, capsys):
        parent = worker_checkout(tmp_path, "parent", 0.02, 0.0, latencies=[0.004, 0.001])
        change = worker_checkout(tmp_path, "change", 0.01, 0.0, latencies=[0.002, 0.001])
        assert pairs.main(interleave_argv(parent, change)) == 0
        out = capsys.readouterr().out.splitlines()
        header = out.index("per operation class, ms per round:")
        assert out[header + 1:header + 3] == [
            "  cell parent 4 [4, 4]  change 2 [2, 2]  paired ratio 0.500 [0.500, 0.500]  wins 4/4",
            "  bare parent 1 [1, 1]  change 1 [1, 1]  paired ratio 1.000 [1.000, 1.000]  wins 0/4",
        ]

    @pytest.mark.parametrize(
        "failed,correct,refusal",
        [
            (0, False, "1 change run(s) report correct: false"),
            (1, True, "the change's failed share 0.125 exceeds the parent's 0"),
        ],
    )
    def test_the_checks_still_refuse(self, tmp_path, capsys, failed, correct, refusal):
        parent = worker_checkout(tmp_path, "parent", 0.02, 0.002)
        change = worker_checkout(tmp_path, "change", 0.01, 0.001, failed, correct)
        assert pairs.main(interleave_argv(parent, change)) == 1
        refused = [line for line in capsys.readouterr().out.splitlines() if line.startswith("REFUSED: ")]
        assert refused == [f"REFUSED: {refusal}"]

    def test_a_worker_that_cannot_start_gives_no_result(self, tmp_path, capsys):
        parent = worker_checkout(tmp_path, "parent", 0.02, 0.002)
        change = worker_checkout(tmp_path, "change", 0.01, 0.001)
        (Path(change) / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
        assert pairs.main(interleave_argv(parent, change)) == 1
        assert "did not start (exit 3)" in capsys.readouterr().out

    def test_a_worker_that_ends_mid_run_gives_no_result(self, tmp_path, capsys):
        parent = worker_checkout(tmp_path, "parent", 0.02, 0.002)
        change = worker_checkout(tmp_path, "change", 0.01, 0.001)
        run_py = Path(change) / "perfbench" / "run.py"
        ending = "self.rounds += 1\n        if self.rounds == 2:\n            raise SystemExit(4)"
        run_py.write_text(run_py.read_text().replace("self.rounds += 1", ending))
        assert pairs.main(interleave_argv(parent, change)) == 1
        assert "the worker ended (exit 4)" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [("--workload", "cli"), ("--seconds", "5")])
    def test_usage_errors(self, tmp_path, extra):
        parent = worker_checkout(tmp_path, "parent", 0.02, 0.002)
        change = worker_checkout(tmp_path, "change", 0.01, 0.001)
        with pytest.raises(SystemExit) as exc:
            pairs.main(interleave_argv(parent, change, *extra))
        assert exc.value.code == 2
