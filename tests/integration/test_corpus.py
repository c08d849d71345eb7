"""Replay every minimized fuzz repro in ``tests/corpus/`` — forever.

Each ``*.json`` file is one shrunk fuzz case that once exposed a real
divergence (see the ``note`` inside each file): ``repro-*.json`` files
hold a query, ``repro-dml-*.json`` files a write batch, and
``repro-crash-*.json`` files a write batch plus a crash plan; any of
them may also carry a chaos fault plan or reference-config flags.  This
collector loads each case and re-runs the check its fields call for, so
a regression of any pinned bug fails loudly with the configuration that
diverged.
"""

from pathlib import Path

import pytest

from repro.fuzz import check, corpus_files, load_repro

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
ALL_FILES = corpus_files(CORPUS_DIR)


def test_corpus_present():
    """The shipped corpus must never silently vanish from collection."""
    dml = [p for p in ALL_FILES if p.stem.startswith("repro-dml-")]
    queries = [
        p
        for p in ALL_FILES
        if not p.stem.startswith(("repro-dml-", "repro-crash-"))
    ]
    assert len(queries) >= 18
    assert len(dml) >= 2


@pytest.mark.parametrize("path", ALL_FILES, ids=lambda p: p.stem)
def test_corpus_case_stays_fixed(path):
    case = load_repro(path)
    outcome = check(case)
    # Skipped: the query no longer plans, or the batch lost its statements.
    assert not outcome.tallies["skipped"], f"pinned case is inert: {case.subject}"
    assert not outcome.mismatches, "\n".join(
        str(m) for m in outcome.mismatches
    )
    assert outcome.pairs_run > 0
