"""Finding baselines: accept the past, block the future.

A baseline file records findings that were reviewed and deliberately
accepted (each with a justification); the linter subtracts them from a
run so pre-existing accepted findings don't block CI while any *new*
finding still fails.  Matching is by ``(rule, path, message)`` --
line-independent, so unrelated edits to a file don't invalidate its
entries -- with multiset semantics: one entry suppresses one finding.

Format v2 additionally stamps each participating rule's **version**
(``rule_versions``): when a rule's logic changes, its version bumps, the
stamp no longer matches, and the linter refuses to trust the old
entries (exit 2) until they are re-triaged with ``--update-baseline``.
v1 files (no stamps) still load; their stamps are empty and never
conflict.

Workflow: ``p4p-repro lint --update-baseline`` rewrites the file from
the current findings, *preserving the justification* of every entry
whose fingerprint still matches and carrying entries of unselected
rules through untouched; edit in a ``justification`` for each new entry
(the self-tests enforce budget limits per rule); commit it.  Entries
that no longer match any finding are **stale** and fail the run -- the
file must shrink as debt is paid, not fossilise.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.core import Finding

FORMAT_VERSION = 2

#: Versions this loader still understands.
_READABLE_VERSIONS = (1, FORMAT_VERSION)


@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    path: str
    message: str
    justification: str = ""

    def fingerprint(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.message)


@dataclass
class Baseline:
    entries: List[BaselineEntry] = field(default_factory=list)
    #: rule id -> rule version the entries were triaged against.
    rule_versions: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        version = document.get("version")
        if version not in _READABLE_VERSIONS:
            raise ValueError(f"unsupported baseline version {version!r}")
        entries = [
            BaselineEntry(
                rule=item["rule"],
                path=item["path"],
                message=item["message"],
                justification=item.get("justification", ""),
            )
            for item in document.get("findings", [])
        ]
        rule_versions = dict(document.get("rule_versions", {}))
        return cls(entries=entries, rule_versions=rule_versions)

    @classmethod
    def from_findings(
        cls,
        findings: Sequence[Finding],
        rule_versions: Dict[str, str] | None = None,
    ) -> "Baseline":
        return cls(
            entries=[
                BaselineEntry(
                    rule=finding.rule,
                    path=finding.path,
                    message=finding.message,
                )
                for finding in findings
            ],
            rule_versions=dict(rule_versions or {}),
        )

    def save(self, path: Path) -> None:
        document = {
            "version": FORMAT_VERSION,
            "rule_versions": dict(sorted(self.rule_versions.items())),
            "findings": [
                {
                    "rule": entry.rule,
                    "path": entry.path,
                    "message": entry.message,
                    "justification": entry.justification,
                }
                for entry in sorted(self.entries, key=BaselineEntry.fingerprint)
            ],
        }
        Path(path).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def restricted_to(self, rule_ids: Set[str]) -> "Baseline":
        """The baseline as seen by a run of only ``rule_ids``.

        A ``--select LCK001`` run must neither consume nor report-stale
        the entries of rules it did not execute.
        """
        return Baseline(
            entries=[e for e in self.entries if e.rule in rule_ids],
            rule_versions={
                rule: stamp
                for rule, stamp in self.rule_versions.items()
                if rule in rule_ids
            },
        )

    def stale_versions(
        self, current: Dict[str, str]
    ) -> List[Tuple[str, str, str]]:
        """``(rule, stamped, current)`` for every version mismatch.

        Only rules that both carry a stamp and ran now are compared; a
        v1 baseline (no stamps) never mismatches.
        """
        out: List[Tuple[str, str, str]] = []
        for rule, stamped in sorted(self.rule_versions.items()):
            now = current.get(rule)
            if now is not None and now != stamped:
                out.append((rule, stamped, now))
        return out

    def updated(
        self,
        findings: Sequence[Finding],
        rule_versions: Dict[str, str],
        selected: Set[str],
    ) -> "Baseline":
        """The ``--update-baseline`` rewrite.

        Entries of rules outside ``selected`` pass through untouched
        (their stamps too); entries of selected rules are rebuilt from
        ``findings``, each inheriting the justification of a matching
        old entry (multiset: N old entries donate to at most N new
        ones); selected rules get fresh version stamps.
        """
        kept = [e for e in self.entries if e.rule not in selected]
        donors: Dict[Tuple[str, str, str], List[str]] = {}
        for entry in self.entries:
            if entry.rule in selected and entry.justification:
                donors.setdefault(entry.fingerprint(), []).append(
                    entry.justification
                )
        rebuilt: List[BaselineEntry] = []
        for finding in findings:
            pool = donors.get(finding.fingerprint())
            justification = pool.pop(0) if pool else ""
            rebuilt.append(
                BaselineEntry(
                    rule=finding.rule,
                    path=finding.path,
                    message=finding.message,
                    justification=justification,
                )
            )
        versions = {
            rule: stamp
            for rule, stamp in self.rule_versions.items()
            if rule not in selected
        }
        for rule in selected:
            if rule in rule_versions:
                versions[rule] = rule_versions[rule]
        return Baseline(entries=kept + rebuilt, rule_versions=versions)

    def apply(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
        """Split findings into (new, suppressed); also return stale entries.

        Multiset semantics: N identical entries suppress at most N
        identical findings.  Stale (unmatched) entries are a hard error
        at the CLI layer: a baseline is a debt ledger, not a wildcard.
        """
        budget = Counter(entry.fingerprint() for entry in self.entries)
        new: List[Finding] = []
        suppressed: List[Finding] = []
        for finding in findings:
            key = finding.fingerprint()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                suppressed.append(finding)
            else:
                new.append(finding)
        unused: List[BaselineEntry] = []
        remaining = dict(budget)
        for entry in self.entries:
            key = entry.fingerprint()
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                unused.append(entry)
        return new, suppressed, unused


EMPTY_BASELINE = Baseline()
