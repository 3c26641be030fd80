"""Byte identity of the CLI outputs that the benchmark pins.

Every command in ``bench/digests.json`` runs in process with ``--format json``
and the sha256 of its stdout must equal the recorded digest.  One of them,
``verify --suite lemma39 --max-n 9``, also runs as ``python -m gammalab`` with
stdout a real pipe, so that its 3.2 MB payload goes through the process's own
stdout (its encoding, its buffer and the flush at exit), which the
``StringIO`` of the in-process runs replaces.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from test_cli import cli_env

from gammalab import cli

DIGESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "digests.json")

with open(DIGESTS, encoding="utf-8") as _fh:
    RECORDED = json.load(_fh)


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_stdout_matches_the_recorded_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split() + ["--format", "json"])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == RECORDED[command]


def test_lemma39_through_a_pipe_matches_the_recorded_digest():
    command = "verify --suite lemma39 --max-n 9"
    proc = subprocess.run([sys.executable, "-m", "gammalab", *command.split(), "--format", "json"],
                          capture_output=True, env=cli_env())
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == RECORDED[command]


# The lemma39 sweep one size past the benchmark's command (about 2 s); pinned
# here rather than in the benchmark's digests because no workload runs it.
LEMMA39_N10 = "f5d2223915cdc7a62c3f7dca4233276e574039e7628e358fd40db9ddb1805adc"


def test_lemma39_at_n10_matches_its_recorded_digest():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--suite", "lemma39", "--max-n", "10", "--format", "json"])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == LEMMA39_N10


# Text and csv stdout of small stats, decompose, poly and verify commands,
# recorded before these formats were rendered from the JSON text.  Recorded
# before decompose's four tree views were written by two walks: its json
# stdout on the same inputs, and all three formats on two long inputs, a
# separable permutation of length 1000 (`oracles.random_separable` with
# ``random.Random(1000)``) and 1..1024 shuffled by ``random.Random(1024)``.
FORMAT_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "format_digests.json")

with open(FORMAT_DIGESTS, encoding="utf-8") as _fh:
    FORMAT_RECORDED = json.load(_fh)


def _record_id(record: dict) -> str:
    """The argv, with a long permutation written as its first entries and length."""
    return " ".join(arg if len(arg) <= 100 else f"{arg[:20]}...({len(arg.split())} entries)"
                    for arg in record["argv"])


@pytest.mark.parametrize("record", FORMAT_RECORDED, ids=_record_id)
def test_text_and_csv_stdout_match_the_recorded_digest(record):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(record["argv"])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == record["sha256"]
