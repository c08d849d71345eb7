"""The fuzz corpus: shrunk repros as JSON, replayed forever by pytest.

A corpus file is one JSON document holding a :class:`~repro.fuzz.case.Case`
and a free-form ``note`` describing the divergence that produced it:

* ``world`` — the :class:`WorldSpec`;
* ``query`` (plus a readable ``query_text``) *or* ``dml`` (plus the
  rendered ``statements``) — the workload;
* ``fault`` — the chaos fault plan, when the case has one;
* ``plan`` and ``checkpoint_every`` — the crash plan, when it has one;
* ``reference`` — the reference-config flags, when any is set.

Absent keys mean "not set", so every older repro still loads.  File
names are content-hashed over everything but the readable fields, so
re-finding the same bug is idempotent: ``repro-crash-*`` for crash
cases, ``repro-dml-*`` for other write batches, ``repro-*`` for
queries.  ``tests/integration/test_corpus.py`` replays every file in
``tests/corpus/`` through :func:`repro.fuzz.case.check`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from repro.fuzz.case import Case
from repro.fuzz.chaos import FaultSpec
from repro.fuzz.dml import DmlBatchSpec
from repro.fuzz.querygen import QuerySpec
from repro.fuzz.worldgen import WorldSpec
from repro.governor.faults import CrashPlan

#: Document keys that only help a human read the file (not hashed).
_READABLE = ("note", "query_text", "statements")


def case_to_json(case: Case, note: str = "") -> dict:
    """One corpus document for ``case`` (see the module docstring)."""
    document: dict = {"note": note, "world": case.world.to_dict()}
    if case.query is not None:
        document["query_text"] = case.query.render()
        document["query"] = case.query.to_dict()
    else:
        document["statements"] = [op.render() for op in case.batch.ops]
        document["dml"] = case.batch.to_dict()
    if case.fault is not None:
        document["fault"] = asdict(case.fault)
    if case.crash is not None:
        document["plan"] = asdict(case.crash)
        document["checkpoint_every"] = case.checkpoint_every
    if case.no_rewrites or case.feedback:
        document["reference"] = {
            "no_rewrites": case.no_rewrites,
            "feedback": case.feedback,
        }
    return document


def case_from_json(data: dict) -> Case:
    """Rebuild the case from a corpus document."""
    reference = data.get("reference", {})
    return Case(
        world=WorldSpec.from_dict(data["world"]),
        query=QuerySpec.from_dict(data["query"]) if "query" in data else None,
        batch=DmlBatchSpec.from_dict(data["dml"]) if "dml" in data else None,
        fault=FaultSpec(**data["fault"]) if "fault" in data else None,
        crash=CrashPlan(**data["plan"]) if "plan" in data else None,
        checkpoint_every=data.get("checkpoint_every"),
        no_rewrites=reference.get("no_rewrites", False),
        feedback=reference.get("feedback", False),
    )


def save_repro(directory: str | Path, case: Case, note: str = "") -> Path:
    """Write a repro file; returns its path (stable per case content)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    document = case_to_json(case, note)
    canonical = json.dumps(
        {k: v for k, v in document.items() if k not in _READABLE},
        sort_keys=True,
    )
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    prefix = (
        "repro-crash-" if case.crash is not None
        else "repro-dml-" if case.batch is not None
        else "repro-"
    )
    path = directory / f"{prefix}{digest}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_repro(path: str | Path) -> Case:
    """Load one saved repro file back into its case."""
    return case_from_json(json.loads(Path(path).read_text()))


def corpus_files(directory: str | Path) -> list[Path]:
    """Every repro file under ``directory`` (empty when it is missing)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))


__all__ = [
    "case_from_json",
    "case_to_json",
    "corpus_files",
    "load_repro",
    "save_repro",
]
