"""Retrieval and answer metrics: top-k answer containment, Exact Match, and
report emission as JSON plus a flat CSV.

Containment checks passage text only (never the title) and matches on word
boundaries after normalization, so "a" never hits inside "cat".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .data import Corpus, QAExample
from .errors import DomainError
from .files import write_atomic
from .index import RetrievalResult
from .text import contains_answer, normalize_answer

__all__ = [
    "normalize_answer",
    "exact_match",
    "topk_accuracy",
    "EvalReport",
    "emit_report",
]

REPORT_VERSION = 1
DEFAULT_KS = (1, 5, 20, 100)


def exact_match(prediction: str, golds: Sequence[str]) -> bool:
    norm = normalize_answer(prediction)
    return any(norm == normalize_answer(g) for g in golds)


def topk_accuracy(
    results: Sequence[RetrievalResult],
    examples: Sequence[QAExample],
    corpus: Corpus,
    ks: Sequence[int] = DEFAULT_KS,
) -> dict[int, float]:
    """Fraction of examples whose top-k passages contain a gold answer."""
    if len(results) != len(examples):
        raise DomainError(
            f"{len(results)} results for {len(examples)} examples"
        )
    if not examples:
        raise DomainError("cannot evaluate zero examples")
    depth = min(len(r.doc_ids) for r in results)
    for k in ks:
        if k < 1:
            raise DomainError(f"k must be >= 1, got {k}")
        if k > depth:
            raise DomainError(f"k={k} exceeds retrieved depth {depth}")
    hits = {k: 0 for k in ks}
    for result, example in zip(results, examples):
        # deepest hit rank decides every k at once
        hit_rank = None
        for rank, doc_id in enumerate(result.doc_ids, start=1):
            if contains_answer(corpus.by_id[doc_id].text, example.answers):
                hit_rank = rank
                break
        if hit_rank is not None:
            for k in ks:
                if hit_rank <= k:
                    hits[k] += 1
    return {k: hits[k] / len(examples) for k in ks}


@dataclass(frozen=True)
class EvalReport:
    accuracies: Mapping[int, float]  # k -> fraction
    em: float | None
    n_examples: int
    config: Mapping[str, object] = field(default_factory=dict)
    per_example: tuple[dict, ...] = ()
    report_version: int = REPORT_VERSION

    def __post_init__(self):
        for k, v in self.accuracies.items():
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"accuracy at k={k} outside [0, 1]: {v}")
        if self.em is not None and not (0.0 <= self.em <= 1.0):
            raise DomainError(f"em outside [0, 1]: {self.em}")
        ordered = sorted(self.accuracies)
        for lo, hi in zip(ordered, ordered[1:]):
            if self.accuracies[lo] > self.accuracies[hi]:
                raise DomainError(
                    f"accuracy must be non-decreasing in k: "
                    f"acc[{lo}]={self.accuracies[lo]} > acc[{hi}]={self.accuracies[hi]}"
                )

    def to_dict(self) -> dict:
        return {
            "report_version": self.report_version,
            "n_examples": self.n_examples,
            "em": self.em,
            "top_k_accuracy": {str(k): self.accuracies[k] for k in sorted(self.accuracies)},
            "config": dict(self.config),
            "per_example": list(self.per_example),
        }


def emit_report(report: EvalReport, path_json, path_csv) -> None:
    """Write the JSON report and a flat metric,k,value CSV; output bytes are
    a pure function of the report."""
    write_atomic(path_json, json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    lines = ["metric,k,value"]
    for k in sorted(report.accuracies):
        lines.append(f"top_k_accuracy,{k},{report.accuracies[k]!r}")
    em_value = "" if report.em is None else repr(report.em)
    lines.append(f"exact_match,,{em_value}")
    write_atomic(path_csv, "\n".join(lines) + "\n")
