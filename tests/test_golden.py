"""The golden set in tier-1: every scripts/golden.py case against tests/golden_manifest.jsonl.

Each case runs in-process through rydant.cli.main in a temporary directory;
one runs as a `python -m rydant.cli` subprocess as well, so the in-process
path cannot drift from what the command writes.  Exit codes, standard
output and standard error must match the manifest exactly, and so must
every file's bytes, with one exception: a case that scans a ladder spectrum
may move its CSV and JSON artifacts within the bounds of a change of
solver, 1e-10 absolute on the normalized trace (the `transmission`
column) and 1e-12 relative on every other number.  Where this host's numpy
or BLAS differs from the one the manifest was written with, every CSV and
JSON artifact is held to those bounds instead of bytes, printed numbers to
their last printed digit, and a failure says so.

A by-design move of an artifact is recorded by rewriting the manifest:
    python3 scripts/golden.py --manifest tests/golden_manifest.jsonl --source .
"""

import contextlib
import hashlib
import io
import math
import os
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

import golden  # noqa: E402
from rydant.cli import main  # noqa: E402

HOST, MANIFEST = golden.read_manifest(str(REPO / "tests" / "golden_manifest.jsonl"))
HERE = golden.host()
SAME_HOST = HERE == HOST
HOST_NOTE = "" if SAME_HOST else (
    f" [numpy/BLAS here {HERE} differ from the manifest's {HOST}: artifacts compared at the numeric bounds, not bytes]"
)
TRACE_TOL = 1e-10  # absolute, on the normalized trace
FLOAT_TOL = 1e-12  # relative, on every other number
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_in_process(case_dir, files, commands):
    """golden.run_case through rydant.cli.main: [(exit code, stdout, stderr)] per command."""
    golden.write_inputs(str(case_dir), files)
    results = []
    cwd = os.getcwd()
    os.chdir(case_dir)
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            results.append((code, out.getvalue(), err.getvalue()))
    finally:
        os.chdir(cwd)
    return results


def printed_close(want, got):
    """Two printed numbers that differ by at most one unit in the last printed digit, or by FLOAT_TOL."""
    digits = len(re.sub(r"[^0-9]", "", re.split(r"[eE]", want)[0]).lstrip("0")) or 1
    top = max(abs(float(want)), abs(float(got)))
    unit = 10.0 ** (math.floor(math.log10(top)) - digits + 1) if top else 0.0
    return abs(float(want) - float(got)) <= max(unit, FLOAT_TOL * top)


def text_differs(want, got):
    """Exact text, or on another host the same text around numbers that agree to their printed digits."""
    if want == got or SAME_HOST:
        return want != got
    want_numbers, got_numbers = NUMBER.findall(want), NUMBER.findall(got)
    return (NUMBER.sub("#", want) != NUMBER.sub("#", got) or len(want_numbers) != len(got_numbers)
            or not all(printed_close(a, b) for a, b in zip(want_numbers, got_numbers)))


def content_differences(want, got, where, column="", exact=False):
    """Every place where a parsed artifact leaves the bounds, or with exact any difference, as text."""
    if isinstance(want, dict) and isinstance(got, dict):
        if "columns" in want and "header" in want:
            if want["header"] != got.get("header"):
                return [f"{where}: header {got.get('header')} != {want['header']}"]
            return [problem for name, a, b in zip(want["header"], want["columns"], got["columns"])
                    for problem in content_differences(a, b, f"{where} column {name}", name, exact)]
        if sorted(want) != sorted(got):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [problem for key in sorted(want)
                for problem in content_differences(want[key], got[key], f"{where}.{key}", "", exact)]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: {len(got)} entries != {len(want)}"]
        return [problem for i, (a, b) in enumerate(zip(want, got))
                for problem in content_differences(a, b, f"{where}[{i}]", column, exact)]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (want, got)):
        bound = TRACE_TOL if column == "transmission" else FLOAT_TOL * max(abs(want), abs(got))
        return [] if abs(want - got) <= (0.0 if exact else bound) else [f"{where}: {got!r} != {want!r}"]
    return [] if want == got else [f"{where}: {got!r} != {want!r}"]


def differences(name, commands, results, case_dir):
    """Every way a run of one case departs from its manifest record."""
    record = MANIFEST[name]
    problems = []
    for argv, want, (code, out, err) in zip(commands, record["commands"], results):
        label = f"rydant {' '.join(argv)}"
        if code != want["exit"]:
            problems.append(f"{label}: exit {code} != {want['exit']}")
        for stream, text in (("stdout", out), ("stderr", err)):
            if text_differs(want[stream], text):
                problems.append(f"{label}: {stream} {text!r} != {want[stream]!r}")
    found = golden.artifacts(str(case_dir))
    if sorted(found) != sorted(record["files"]):
        problems.append(f"files {sorted(found)} != {sorted(record['files'])}")
    for path in sorted(set(found) & set(record["files"])):
        want = record["files"][path]
        if hashlib.sha256(found[path]).hexdigest() == want["sha256"]:
            continue
        got = golden.parsed(path, found[path])
        if "parsed" not in want or got is None:
            problems.append(f"{path}: sha256 differs and the file cannot be compared by its numbers")
        elif record["spectrum"] or not SAME_HOST:
            problems += content_differences(want["parsed"], got, path)
        else:
            first = content_differences(want["parsed"], got, path, exact=True)[:1]
            problems.append(f"{path}: bytes differ{''.join(', first at ' + p for p in first)}")
    return [problem + HOST_NOTE for problem in problems]


def test_manifest_covers_every_case():
    assert [name for name, _, _ in golden.CASES] == list(MANIFEST)
    for name, files, commands in golden.CASES:
        assert [c["command"] for c in MANIFEST[name]["commands"]] == commands, name
        assert MANIFEST[name]["spectrum"] == golden.scans_spectrum(files, commands), name


@pytest.mark.parametrize("name,files,commands", golden.CASES, ids=[case[0] for case in golden.CASES])
def test_case_matches_the_manifest(tmp_path, name, files, commands):
    case_dir = tmp_path / name
    results = run_in_process(case_dir, files, commands)
    problems = differences(name, commands, results, case_dir)
    assert not problems, "\n".join(problems[:20])


def test_one_case_as_a_subprocess(tmp_path):
    name, files, commands = next(case for case in golden.CASES if case[0] == "eigen-elliptical")
    case_dir = tmp_path / name
    results = golden.run_case(str(REPO), str(case_dir), files, commands)
    decoded = [(code, out.decode(), err.decode()) for code, out, err in results]
    problems = differences(name, commands, decoded, case_dir)
    assert not problems, "\n".join(problems)
