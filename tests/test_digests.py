"""Byte identity: every command line and series text recorded in
perfbench/digests.json still hashes to its recorded sha256.

The file is only read here; it fixes the exact output of the CLI and of
TreeSeries.to_text(), so any change of order, format or value shows up.
"""

import hashlib
import json
from pathlib import Path

import pytest

from magmaexp import exp_series
from magmaexp.cli import main

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS["cli"]))
def test_cli_stdout_digest(command, capsys, monkeypatch):
    monkeypatch.delenv("MAGMAEXP_FACTOR_BOUND", raising=False)
    assert main(command.split()) == 0
    assert sha256(capsys.readouterr().out) == DIGESTS["cli"][command]


@pytest.mark.parametrize("truncation", [4, 11])
def test_exp_series_text_digest(truncation):
    text = exp_series(truncation).to_text()
    assert sha256(text) == DIGESTS["series"][f"exp_series({truncation})"]
