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
def test_refusals_exit_1_and_say_why(tmp_path, monkeypatch, capsys, change, code, refusal):
    monkeypatch.setattr(pairs, "calibrate", lambda: 1.0)
    argv = ["--parent", checkout(tmp_path, "parent", True, 7, 2), "--change", checkout(tmp_path, "change", *change),
            "--workload", "w", "--pairs", "1", "--seconds", "1", "--seed-base", "0"]
    assert pairs.main(argv) == code
    out = capsys.readouterr().out
    assert "parent: correct 1/1, attempted 7, failed 2, failed share 0.2857" in out
    refused = [line for line in out.splitlines() if line.startswith("REFUSED: ")]
    assert refused == ([] if refusal is None else [f"REFUSED: {refusal}"])
