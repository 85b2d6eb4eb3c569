"""Every command of the CLI corpus, replayed in a child process at the
pinned kernels of ``make_cli_corpus.pinned_env``: exit code, stdout and
stderr byte for byte. ``tests/make_cli_corpus.py`` writes the corpus,
and with ``--diff`` lists what a change moved."""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import make_cli_corpus as corpus  # noqa: E402


def test_cli_corpus_replays_byte_for_byte():
    assert [r["argv"] for r in corpus.load()] == corpus.commands()
    child = subprocess.run([sys.executable, corpus.__file__, "--diff"],
                           env=corpus.pinned_env(), capture_output=True,
                           text=True, timeout=600)
    assert child.returncode == 0, child.stdout + child.stderr
