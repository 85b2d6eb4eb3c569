"""Every command of the CLI corpus, replayed in-process: exit code,
stdout and stderr byte for byte. ``tests/make_cli_corpus.py`` writes
the corpus, and with ``--diff`` lists what a change moved."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import make_cli_corpus as corpus  # noqa: E402


def test_cli_corpus_replays_byte_for_byte():
    records = corpus.load()
    assert [r["argv"] for r in records] == corpus.commands()
    moved = [r["argv"] for r in records if corpus.run(r["argv"]) != r]
    assert moved == []
