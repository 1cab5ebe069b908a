"""Output identity of the CLI against a recorded golden file.

``cli_golden.json`` holds, for each call in :data:`CALLS`, the exit code
and the sha256 of stdout and of stderr.  The test replays every call in
process through :func:`steenrod.cli.main`, with the engine's caches
emptied first so that no call depends on the ones before it (the step
budget counts only rewrites that miss the normal-form cache).  A few
calls, :data:`PROCESS_CALLS`, are replayed again as ``python -m
steenrod.cli`` processes, which pins the bytes a process writes on its
way out as well.

Regenerate the file, after a deliberate change of output, with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steenrod
from steenrod import cli

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _calls() -> list[list[str]]:
    plain: list[list[str]] = []
    for expr in ("Sq2 Sq2", "Sq1 + Sq1", "Sq3 Sq2 Sq1", "Sq4 Sq4 + Sq7 Sq1", "1", "0", "Sq0", "Sq2 +"):
        plain.append(["normalize", expr])
    plain.append(["normalize", "Sq6 Sq11 Sq23 Sq47", "--step-budget", "1"])
    for d in (-1, 0, 1, 5, 9, 12):
        plain.append(["basis", "--degree", str(d)])
    for op, on in (
        ("Sq1", "t1*t2"),
        ("Sq2 Sq1 + Sq3", "t1*t2*t3"),
        ("Sq4", f"t1^{2**40}"),
        ("Sq2", "t1^3 + t2^3"),
        ("1", "t1"),
        ("Sq3", "0"),
        ("Sq5 Sq2 Sq1", "t1^2*t2*t3^5"),
    ):
        plain.append(["act", "--op", op, "--on", on])
    plain.append(["act", "--op", "Sq1", "--on", "t1*t4", "--vars", "3"])
    for on in ("t1", "t1^2", "t1*t2 + t2^2", "t1^3*t2^5 + t1^8", f"t1^{2**40}", "t1 + t1^2", "0", "1"):
        plain.append(["total-square", "--on", on])
    for var in ("t5", "5", "u", "t0", "t2", "#"):
        plain.append(["total-square", "--on", "t1*t2", "--var", var])
    for m in range(9):
        plain.append(["derive-adem", "--degree", str(m)])
    for module in ("rp8", "cp3", "wedge(susp(cp2),s3)"):
        for d in (1, 4, 8, 12):
            plain.append(["verify", "--module", module, "--max-degree", str(d)])
    plain.append(["verify", "--module", "susp(rp30)", "--max-degree", "31"])
    for module in ("nope(1)", "wedge(s5", "rp2000"):
        plain.append(["verify", "--module", module, "--max-degree", "2"])
    for d in range(11):
        plain.append(["faithful", "--degree", str(d)])
    plain.append(["distinguish-pi4"])
    return [call + tail for call in plain for tail in ([], ["--json"])]


CALLS = _calls()

#: Recorded calls replayed as processes: exits 0, 1, 2 and 3, and non-ASCII text on stdout.
PROCESS_CALLS = [
    call + tail
    for call in (
        ["basis", "--degree", "5"],
        ["derive-adem", "--degree", "2"],
        ["normalize", "Sq0"],
        ["normalize", "Sq6 Sq11 Sq23 Sq47", "--step-budget", "1"],
        ["verify", "--module", "rp2000", "--max-degree", "2"],
        ["distinguish-pi4"],
    )
    for tail in ([], ["--json"])
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay(argv: list[str]) -> dict:
    """Exit code and output digests of one in-process CLI call."""
    steenrod.clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": _digest(out.getvalue()),
        "stderr_sha256": _digest(err.getvalue()),
    }


def test_cli_output_matches_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == CALLS
    mismatches = [" ".join(entry["argv"]) for entry in golden if replay(entry["argv"]) != entry]
    assert mismatches == []


@pytest.mark.parametrize("argv", PROCESS_CALLS, ids=" ".join)
def test_a_process_writes_the_golden_output(argv):
    (entry,) = [entry for entry in json.loads(GOLDEN.read_text(encoding="utf-8")) if entry["argv"] == argv]
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUTF8": "1"}
    proc = subprocess.run([sys.executable, "-m", "steenrod.cli", *argv], env=env, capture_output=True, timeout=60)
    assert {
        "argv": argv,
        "exit": proc.returncode,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "stderr_sha256": hashlib.sha256(proc.stderr).hexdigest(),
    } == entry


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([replay(argv) for argv in CALLS], indent=1) + "\n", encoding="utf-8")
