"""The persistent failure corpus: disagreements that must never return.

Every distinct oracle failure a campaign finds is written to a directory
as one JSON file keyed by its fingerprint (oracle + reduced grammar
text).  Entries carry everything needed to reproduce without the random
generator: the grammar itself (in arrow format), the oracle that
disagreed, and the ``(bucket, seed, knobs)`` recipe that first found it.

Replaying an entry parses the stored grammar and re-runs its oracle:

- a failure that *still reproduces* means the bug is alive — replay
  reports it and CI fails;
- a failure that no longer reproduces is a **regression test**: the bug
  was fixed, and the entry pins the fix forever (tier-1 replays the
  committed corpus under ``tests/fuzz_corpus``).

Writes are atomic (temp file + ``os.replace``), mirroring the table
cache's crash-safety discipline, so a campaign killed mid-write never
leaves a torn entry behind.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from ..grammar.reader import load_grammar
from ..tables.serialize import atomic_write
from .oracles import OracleFailure, run_oracles

#: Bumped when the entry schema changes incompatibly.
ENTRY_VERSION = 1


class FailureEntry:
    """One corpus entry (see module docstring for the fields' roles)."""

    __slots__ = (
        "fingerprint",
        "oracle",
        "detail",
        "kind",
        "bucket",
        "seed",
        "knobs",
        "grammar_text",
        "minimized_text",
    )

    def __init__(
        self,
        fingerprint: str,
        oracle: str,
        detail: str,
        grammar_text: str,
        kind: str = "disagreement",
        bucket: str = "",
        seed: int = 0,
        knobs: "Optional[Dict[str, object]]" = None,
        minimized_text: str = "",
    ):
        self.fingerprint = fingerprint
        self.oracle = oracle
        self.detail = detail
        self.kind = kind
        self.bucket = bucket
        self.seed = seed
        self.knobs = dict(knobs or {})
        self.grammar_text = grammar_text
        self.minimized_text = minimized_text

    # -- (de)serialisation ---------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": ENTRY_VERSION,
            "fingerprint": self.fingerprint,
            "oracle": self.oracle,
            "detail": self.detail,
            "kind": self.kind,
            "bucket": self.bucket,
            "seed": self.seed,
            "knobs": self.knobs,
            "grammar": self.grammar_text,
            "minimized_grammar": self.minimized_text,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FailureEntry":
        return cls(
            fingerprint=payload["fingerprint"],
            oracle=payload["oracle"],
            detail=payload.get("detail", ""),
            kind=payload.get("kind", "disagreement"),
            bucket=payload.get("bucket", ""),
            seed=payload.get("seed", 0),
            knobs=payload.get("knobs", {}),
            grammar_text=payload["grammar"],
            minimized_text=payload.get("minimized_grammar", ""),
        )

    def grammar(self, minimized: bool = False):
        """Parse the stored grammar text (the minimized one if asked and
        available)."""
        text = self.minimized_text if minimized and self.minimized_text else self.grammar_text
        return load_grammar(text, name=f"corpus-{self.fingerprint[:12]}")

    def replay(self, **context_knobs) -> List[OracleFailure]:
        """Re-run this entry's oracle on the stored grammar.

        Empty result: the recorded disagreement no longer reproduces
        (the entry now acts as a pinned regression test).
        """
        context_knobs.setdefault("seed", self.seed)
        return run_oracles(self.grammar(), names=[self.oracle], **context_knobs)


class FailureCorpus:
    """A directory of :class:`FailureEntry` JSON files.

    Entries are named ``<fingerprint[:32]>.json``; the corpus never holds
    two entries for the same fingerprint, so re-running a campaign over a
    known-bad seed range is idempotent.
    """

    def __init__(self, directory: str):
        self.directory = directory

    # -- paths -----------------------------------------------------------

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f"{fingerprint[:32]}.json")

    def fingerprints(self) -> List[str]:
        """Fingerprint prefixes of every entry on disk, sorted."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        return sorted(
            name[: -len(".json")] for name in names if name.endswith(".json")
        )

    def __len__(self) -> int:
        return len(self.fingerprints())

    # -- read / write ---------------------------------------------------

    def add(self, entry: FailureEntry) -> bool:
        """Persist *entry*; False when its fingerprint is already present."""
        path = self.path_for(entry.fingerprint)
        if os.path.exists(path):
            return False
        self._write(path, entry)
        return True

    def add_failure(self, campaign_failure) -> bool:
        """Persist a :class:`~repro.fuzz.campaign.CampaignFailure`."""
        failure = campaign_failure.failure
        return self.add(
            FailureEntry(
                fingerprint=campaign_failure.fingerprint,
                oracle=failure.oracle,
                detail=failure.detail,
                kind=failure.kind,
                bucket=campaign_failure.bucket,
                seed=campaign_failure.seed,
                knobs=campaign_failure.knobs,
                grammar_text=campaign_failure.grammar_text,
            )
        )

    def update(self, entry: FailureEntry) -> None:
        """Rewrite an existing entry (e.g. after minimization)."""
        self._write(self.path_for(entry.fingerprint), entry)

    def get(self, fingerprint_prefix: str) -> FailureEntry:
        """The unique entry whose fingerprint starts with the prefix.

        Raises KeyError when no entry matches or the prefix is ambiguous.
        """
        matches = [
            f for f in self.fingerprints() if f.startswith(fingerprint_prefix)
        ]
        if not matches:
            raise KeyError(f"no corpus entry matches {fingerprint_prefix!r}")
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous prefix {fingerprint_prefix!r}: {', '.join(matches)}"
            )
        return self.load(matches[0])

    def load(self, fingerprint: str) -> FailureEntry:
        with open(self.path_for(fingerprint), "r", encoding="utf-8") as handle:
            return FailureEntry.from_dict(json.load(handle))

    def entries(self) -> List[FailureEntry]:
        """All entries, in fingerprint order."""
        return [self.load(f) for f in self.fingerprints()]

    # -- replay ----------------------------------------------------------

    def replay_all(self, **context_knobs) -> "Dict[str, List[OracleFailure]]":
        """Replay every entry; maps fingerprint -> surviving failures.

        An empty list per fingerprint means that entry's bug is fixed and
        stays fixed — the regression-test half of the corpus contract.
        """
        return {
            entry.fingerprint: entry.replay(**context_knobs)
            for entry in self.entries()
        }

    # -- internals -------------------------------------------------------

    def _write(self, path: str, entry: FailureEntry) -> None:
        os.makedirs(self.directory, exist_ok=True)
        atomic_write(
            path,
            lambda handle: json.dump(entry.to_dict(), handle, indent=2, sort_keys=True),
        )
