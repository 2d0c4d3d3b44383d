"""The golden set in tier-1: every scripts/golden.py case, run in-process through
rydant.cli.main (and one as a `python -m rydant.cli` subprocess, so the two
paths cannot drift), held to its tests/golden_manifest.jsonl record by the
golden rule, golden.differences.  Where this host's numpy or BLAS differs
from the manifest's, artifacts are held to the rule's bounds, not bytes, and
a failure says so.  A by-design move of an artifact rewrites the manifest:
    python3 scripts/golden.py --manifest tests/golden_manifest.jsonl --source .
"""

import copy
import functools
import operator
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

import golden  # noqa: E402
from rydant.cli import main  # noqa: E402

HOST, MANIFEST = golden.read_manifest(str(REPO / "tests" / "golden_manifest.jsonl"))
SAME_HOST = golden.host() == HOST
HOST_NOTE = "" if SAME_HOST else (
    f" [numpy/BLAS here {golden.host()} differ from the manifest's {HOST}: artifacts held to the bounds, not bytes]")


def run_in_process(case_dir, files, commands, monkeypatch, capsys):
    """golden.run_case through rydant.cli.main: [(exit code, stdout, stderr)] per command."""
    golden.write_inputs(str(case_dir), files)
    monkeypatch.chdir(case_dir)
    results = []
    for argv in commands:
        code = main(list(argv))
        results.append((code, *(text.encode() for text in capsys.readouterr())))
    return results


def differences(name, files, commands, results, case_dir):
    """Every way a run of one case departs from its manifest record, by golden.differences."""
    got = golden.cases_of(golden.case_records(name, files, commands, results, str(case_dir)))[name]
    return [problem + HOST_NOTE for problem in golden.differences(MANIFEST[name], got, SAME_HOST)]


def perturbed(name, keys, change):
    """A copy of a case's manifest record with change applied at keys; a changed file gets a new sha256."""
    record = copy.deepcopy(MANIFEST[name])
    *path, last = keys
    node = functools.reduce(operator.getitem, path, record)
    node[last] = change(node[last])
    if keys[0] == "files":
        record["files"][keys[1]]["sha256"] = "0" * 64
    return record


STDOUT = ("eigen", ("commands", 0, "stdout"), lambda text: text.replace("11.1803399", "11.1803398"))
EIGEN_CSV = ("files", "eigen0.csv", "parsed", "columns", 2, 0)
TRANSMISSION = ("files", "rydant_trace.csv", "parsed", "columns", 1, 600)
DELTA_AT = ("files", "rydant_spectrum.json", "parsed", "delta_at_mhz")
# (case, keys, change, whether the golden rule refuses the changed record)
PERTURBATIONS = {
    "exit-code": ("eigen", ("commands", 0, "exit"), lambda code: code + 1, True),
    "stdout-character": (*STDOUT, True),
    "csv-byte": ("eigen", EIGEN_CSV, lambda x: -8.09016995, True),  # one byte: -8.09016994 -> -8.09016995
    "csv-1e-13": ("eigen", EIGEN_CSV, lambda x: x * (1 + 1e-13), True),  # no bounds outside a spectrum case
    "trace-2e-10": ("spectrum-thz", TRANSMISSION, lambda x: x + 2e-10, True),
    "json-float-1e-11": ("spectrum-thz", DELTA_AT, lambda x: x * (1 + 1e-11), True),
    "trace-5e-11": ("spectrum-thz", TRANSMISSION, lambda x: x + 5e-11, False),
    "json-float-1e-13": ("spectrum-thz", DELTA_AT, lambda x: x * (1 + 1e-13), False),
}


@pytest.mark.parametrize("name,keys,change,refused", PERTURBATIONS.values(), ids=PERTURBATIONS)
def test_the_golden_rule_refuses_what_leaves_its_bounds(name, keys, change, refused):
    assert bool(golden.differences(MANIFEST[name], perturbed(name, keys, change))) == refused


def test_on_another_host_a_printed_number_may_move_by_its_last_digit():
    assert golden.differences(MANIFEST["eigen"], perturbed(*STDOUT), same_host=False) == []


def test_a_moved_file_is_reported_with_its_largest_move_and_verdict():
    got = perturbed("spectrum-thz", TRANSMISSION, lambda x: x + 5e-11)
    [line] = golden.byte_differences("spectrum-thz", MANIFEST["spectrum-thz"], got)
    assert line.startswith("spectrum-thz: rydant_trace.csv differs, keeps the golden rule; largest moves: "
                           "column transmission 5e-11 (relative ")


def test_a_tree_against_itself_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(golden, "CASES", [case for case in golden.CASES if case[0] in ("eigen", "spectrum-thz")])
    assert golden.main(["--parent", str(REPO), "--change", str(REPO), "--work", str(tmp_path / "work")]) == 0
    out = capsys.readouterr().out
    assert "2 cases, 2 commands, " in out and out.endswith("\nbyte-identical\n")


def test_manifest_covers_every_case():
    assert [name for name, _, _ in golden.CASES] == list(MANIFEST)
    for name, files, commands in golden.CASES:
        assert [c["command"] for c in MANIFEST[name]["commands"]] == commands, name
        assert MANIFEST[name]["spectrum"] == golden.scans_spectrum(files, commands), name


@pytest.mark.parametrize("name,files,commands", golden.CASES, ids=[case[0] for case in golden.CASES])
def test_case_matches_the_manifest(tmp_path, monkeypatch, capsys, name, files, commands):
    case_dir = tmp_path / name
    results = run_in_process(case_dir, files, commands, monkeypatch, capsys)
    problems = differences(name, files, commands, results, case_dir)
    assert not problems, "\n".join(problems[:20])


def test_one_case_as_a_subprocess(tmp_path):
    name, files, commands = next(case for case in golden.CASES if case[0] == "eigen-elliptical")
    case_dir = tmp_path / name
    results = golden.run_case(str(REPO), str(case_dir), files, commands)
    problems = differences(name, files, commands, results, case_dir)
    assert not problems, "\n".join(problems)
