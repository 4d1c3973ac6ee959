"""Only `power bound` loads scipy: `detect`, `search` and `db` run on numpy
alone, and the bound still works, with the same output, once scipy loads
part-way through a process."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import click_train_wav

SRC = Path(__file__).parents[1] / "src"

# Runs commands given as a JSON list of argv lists, then prints each exit
# code and whether any scipy module had been imported after each command.
RUN_COMMANDS = """
import contextlib, io, json, sys
from humsearch import cli
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    scipy = sorted(m for m in sys.modules
                   if m == "scipy" or m.startswith("scipy."))
    report.append({"argv": argv[:2], "code": code, "scipy": scipy[:3]})
print(json.dumps(report))
"""


def run_fresh(commands, preamble=""):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", preamble + RUN_COMMANDS, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def bound_argv(out):
    return ["power", "bound", "--draws", "200", "--seed", "7",
            "--offset-min", "-512", "--offset-max", "512",
            "--offset-step", "256", "--out", str(out)]


def test_only_power_bound_imports_scipy(tmp_path):
    db = tmp_path / "db.json"
    listing = tmp_path / "query.txt"
    listing.write_text("0.5\n1.0\n1.75\n2.0\n")
    wav = click_train_wav(tmp_path / "query.wav", [0.5, 1.0, 1.75, 2.0])
    first_bound = tmp_path / "first.csv"
    commands = [
        ["db", "add", "--db", str(db), "--id", "a", "--title", "A",
         "--onsets", "0,1,2.5,3"],
        ["db", "add", "--db", str(db), "--id", "b", "--title", "B",
         "--onsets", "0,2,3,5"],
        ["db", "list", "--db", str(db)],
        ["db", "validate", "--db", str(db)],
        ["detect", str(wav)],
        ["search", str(listing), "--db", str(db)],
        ["search", str(wav), "--db", str(db)],
        bound_argv(first_bound),
    ]
    report = run_fresh(commands)
    assert [entry["code"] for entry in report] == [0] * len(commands)
    assert [entry["scipy"] for entry in report[:-1]] == [[]] * (
        len(commands) - 1)
    assert report[-1]["scipy"]

    after_scipy = tmp_path / "after_scipy.csv"
    report = run_fresh([bound_argv(after_scipy)],
                       preamble="import scipy.stats\n")
    assert report[0]["code"] == 0
    assert first_bound.read_bytes() == after_scipy.read_bytes()
