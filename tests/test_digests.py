"""Byte identity of the CLI outputs that the benchmark pins.

Every command in ``bench/digests.json`` runs in process with ``--format json``
and the sha256 of its stdout must equal the recorded digest.
"""
import contextlib
import hashlib
import io
import json
import os

import pytest

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
