"""The fingerprinted phase-graph pipeline with incremental recomputation.

This package turns the one-shot pipeline (grammar → LR(0) → relations →
Digraph → LA → table) into a **session**: phase artifacts are typed,
bundled per grammar version, memoized under the grammar's content
fingerprint, and kept current across grammar edits by recomputing only
what an edit invalidated (see :mod:`repro.pipeline.session` for the
full strategy taxonomy).

Quick start::

    from repro.grammar.delta import replace_rhs
    from repro.pipeline import AnalysisSession

    session = AnalysisSession(grammar)
    session.table                      # full build, as usual
    edited = replace_rhs(session.grammar, 5, ["expr", "PLUS", "term"])
    report = session.update(edited)    # delta-scoped: only dirty work
    report.describe()                  # e.g. "splice (rhs): ... [3/41 states recomputed]"
    session.table                      # bit-identical to a fresh build

The one-shot entry points (:class:`repro.core.lalr.LalrAnalysis`,
:func:`repro.tables.build.build_lalr_table`, the CLI builders) are
unchanged and remain bit-for-bit identical; sessions are a strictly
additive layer on top of the same phase functions.
"""

from .session import (
    SESSION_PHASES,
    AnalysisSession,
    PendingRebuild,
    PhaseArtifacts,
    UpdateReport,
)

__all__ = [
    "SESSION_PHASES",
    "AnalysisSession",
    "PendingRebuild",
    "PhaseArtifacts",
    "UpdateReport",
]
