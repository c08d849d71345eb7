"""Differential plan-equivalence fuzzing.

The optimizer's central claim — every plan the search, the baselines,
the plan cache, and the parallel executor produce for one query returns
the *same rows* — is checked here by construction: random OODB worlds
(:mod:`repro.fuzz.worldgen`), random ZQL queries
(:mod:`repro.fuzz.querygen`) and write batches (:mod:`repro.fuzz.dml`),
and one :class:`Case` model whose :func:`check` picks the comparison —
differential pairs (:mod:`repro.fuzz.oracle`), a faulted run
(:mod:`repro.fuzz.chaos`), transcript replay, or crash → recover →
compare (:mod:`repro.fuzz.crash`).  Failures are minimized by
:mod:`repro.fuzz.shrink` and pinned forever as JSON repros in
``tests/corpus/`` (:mod:`repro.fuzz.corpus`).

Run it::

    PYTHONPATH=src python -m repro.fuzz --seed 0 --iterations 200
"""

from repro.fuzz.case import Case, check
from repro.fuzz.chaos import FaultSpec
from repro.fuzz.corpus import (
    case_from_json,
    case_to_json,
    corpus_files,
    load_repro,
    save_repro,
)
from repro.fuzz.dml import DML_CONFIGS, DmlBatchSpec, random_batch
from repro.fuzz.oracle import Mismatch, Outcome, run_case
from repro.fuzz.querygen import PredicateSpec, QuerySpec, random_query
from repro.fuzz.runner import FuzzStats, fuzz
from repro.fuzz.shrink import shrink_case
from repro.fuzz.worldgen import (
    AttrSpec,
    IndexSpec,
    TypeSpec,
    WorldSpec,
    build_database,
    random_world,
)

__all__ = [
    "AttrSpec",
    "Case",
    "DML_CONFIGS",
    "DmlBatchSpec",
    "FaultSpec",
    "FuzzStats",
    "IndexSpec",
    "Mismatch",
    "Outcome",
    "PredicateSpec",
    "QuerySpec",
    "TypeSpec",
    "WorldSpec",
    "build_database",
    "case_from_json",
    "case_to_json",
    "check",
    "corpus_files",
    "fuzz",
    "load_repro",
    "random_batch",
    "random_query",
    "random_world",
    "run_case",
    "save_repro",
    "shrink_case",
]
