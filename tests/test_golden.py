"""Golden reports: campaign stdout must match the stored bytes exactly.

Each file under ``tests/golden/`` is the stdout of one campaign at
``--seed 0``, e.g. ``gassym verify-algebra --seed 0 >
tests/golden/verify-algebra.json``; the ``.txt`` file holds the
``--format text`` rendering, and the ``verify-invariants-<id>`` files
the single-entry ``--params`` path.  A refactor that changes any byte of
a report fails here; regenerate a file only for an intended change of
the report.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gassym
from gassym.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("verify-algebra", ["verify-algebra"]),
        ("verify-invariants", ["verify-invariants", "all"]),
        ("classify", ["classify", "all"]),
        ("verify-solution", ["verify-solution"]),
        ("verify-algebra", ["verify-algebra", "--format", "text"]),
        (
            "verify-invariants-4.23.i",
            ["verify-invariants", "4.23.i", "--params", "a=3/5,b=4/5"],
        ),
        (
            "verify-invariants-4.71.i",
            ["verify-invariants", "4.71.i", "--params", "c=-15/17,d=8/17,a=-1,b=1/4"],
        ),
    ],
)
def test_report_matches_golden(capsys, name, argv):
    code = main(argv + ["--seed", "0"])
    assert code == 0
    suffix = ".txt" if "text" in argv else ".json"
    assert capsys.readouterr().out == (GOLDEN / f"{name}{suffix}").read_text()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("verify-algebra", ["verify-algebra"]),
        ("classify", ["classify", "all"]),
        ("verify-invariants", ["verify-invariants", "all"]),
    ],
)
def test_process_report_matches_golden(name, argv):
    # a real `python -m gassym.cli` process: it runs the import window and
    # the exit-time freeze of gassym.cli, which main() in-process does not
    src = str(Path(gassym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gassym.cli", *argv, "--seed", "0"], env=env, capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes()


# The trace commands of README's CLI block, with --out moved into tmp_path.
# tests/golden/trace.sha256 holds the sha256 of each CSV and of each JSON
# report, the report's "csv" path masked as "CSV".
_TRACES = {
    "iso-0-0-1": ["isochoric-reduced", "--x0", "0,0,1", "--t0", "0", "--t1", "3", "--h", "1e-3"],
    "iso-neg": ["isochoric-reduced", "--x0", "-1,0,1", "--t1", "1"],
    "noniso-fig2": ["nonisochoric-reduced", "--x0=-1.905,0.995,0.995", "--t0", "0.1", "--t1", "3"],
}


def _trace_digests(name: str, tmp_path: Path, capsys) -> dict[str, str]:
    csv = tmp_path / f"{name}.csv"
    assert main(["trace", *_TRACES[name], "--out", str(csv)]) == 0
    report = capsys.readouterr().out.replace(json.dumps(str(csv)), '"CSV"')
    return {
        f"{name}.csv": hashlib.sha256(csv.read_bytes()).hexdigest(),
        f"{name}.json": hashlib.sha256(report.encode()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(_TRACES))
def test_trace_matches_golden_digest(capsys, tmp_path, name):
    lines = (GOLDEN / "trace.sha256").read_text().split("\n")
    golden = dict(reversed(line.split("  ")) for line in lines if line)
    digests = _trace_digests(name, tmp_path, capsys)
    assert digests == {k: golden[k] for k in digests}
