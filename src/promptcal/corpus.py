"""Synthetic findings/impression corpus: generator, JSONL round trip, digests.

Records follow the shape of short radiology reports: a findings body of
boilerplate-framed clauses and an impression that compresses each clause. The
generator is fully seeded so identical (size, seed) calls produce identical
corpora.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import secrets
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import ContractError

BUNDLED_TRAIN_SEED = 7
BUNDLED_TEST_SEED = 104
BUNDLED_TRAIN_SIZE = 200
BUNDLED_TEST_SIZE = 50


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    findings: str
    impression: str

    def __post_init__(self):
        if not self.findings.strip():
            raise ContractError(f"record {self.id!r} has empty findings")


FINDINGS = (
    "pneumothorax", "effusion", "edema", "consolidation", "atelectasis",
    "opacity", "cardiomegaly", "fracture", "emphysema", "fibrosis",
    "nodule", "mass", "infiltrate", "congestion", "thickening",
    "scarring", "calcification", "hernia", "pneumonia", "hemorrhage",
    "granuloma", "cyst", "lesion", "density", "haziness",
    "blunting", "elevation", "widening", "distension", "collapse",
)

SEVERITIES = ("mild", "moderate", "severe", "trace", "small", "large", "minimal", "subtle")

LOCATIONS = (
    "left lower lobe", "right lower lobe", "left upper lobe", "right upper lobe",
    "right middle lobe", "left lung base", "right lung base", "left hemithorax",
    "right hemithorax", "left apex", "right apex", "cardiac silhouette",
)

DEVICES = (
    "endotracheal tube", "nasogastric tube", "picc line", "chest tube",
    "pacemaker", "sternotomy wires", "central venous catheter",
    "tracheostomy tube", "feeding tube", "drainage catheter",
)


def _negation_clause(rng: random.Random, f: str) -> tuple[str, str]:
    finding = rng.choice((
        f"there is no {f}.",
        f"no {f} is identified.",
        f"no evidence of {f} on the current exam.",
    ))
    return finding, f"no {f}."


def _presence_clause(rng: random.Random, f: str) -> tuple[str, str]:
    sev = rng.choice(SEVERITIES)
    loc = rng.choice(LOCATIONS)
    finding = rng.choice((
        f"{sev} {f} is seen in the {loc}.",
        f"there is {sev} {f} within the {loc}.",
        f"{sev} {f} in the {loc} is noted.",
    ))
    return finding, f"{sev} {f}."


def _stability_clause(rng: random.Random, f: str) -> tuple[str, str]:
    finding = rng.choice((
        f"the {f} is stable compared to the prior exam.",
        f"stable appearance of the {f}.",
        f"the {f} is unchanged from prior.",
    ))
    return finding, f"stable {f}."


def _device_clause(rng: random.Random, dev: str) -> tuple[str, str]:
    finding = rng.choice((
        f"the {dev} remains in standard position.",
        f"{dev} is unchanged in standard position.",
        f"the {dev} is in standard position.",
    ))
    return finding, f"{dev} in standard position."


def _change_clause(rng: random.Random, f: str) -> tuple[str, str]:
    if rng.random() < 0.5:
        return f"interval improvement of the {f}.", f"{f} improved."
    return f"interval worsening of the {f}.", f"{f} worsened."


# Ordered by the priority their impressions take in the summary; within one
# record the clause order in the findings body is shuffled, but the impression
# always lists clauses in this canonical (type, subject) order so the mapping
# is recoverable from content alone.
_CLAUSE_TYPES = (
    (0, _negation_clause),
    (1, _presence_clause),
    (2, _stability_clause),
    (3, _change_clause),
    (4, _device_clause),
)

# Reports share boilerplate framing the way real dictation templates do; the
# boilerplate carries no impression content.
_OPENERS = (
    "frontal and lateral views of the chest were obtained.",
    "comparison is made to the prior radiograph.",
    "the lungs are adequately inflated on the current study.",
)

_CLOSERS = (
    "the visualized osseous structures are intact.",
    "no acute osseous abnormality is seen.",
    "surgical clips are again noted in the upper abdomen.",
)


def generate_corpus(size: int, seed: int) -> list[CorpusRecord]:
    """Deterministically generate `size` findings/impression records."""
    if size < 0:
        raise ContractError(f"corpus size must be non-negative, got {size}")
    rng = random.Random(seed)
    records = []
    for i in range(size):
        n_clauses = rng.randint(2, 3)
        type_ids = rng.sample(range(len(_CLAUSE_TYPES)), n_clauses)
        subjects = rng.sample(FINDINGS, n_clauses)
        clauses = []
        for slot, type_id in enumerate(type_ids):
            priority, builder = _CLAUSE_TYPES[type_id]
            subject = rng.choice(DEVICES) if builder is _device_clause else subjects[slot]
            finding, impression = builder(rng, subject)
            clauses.append((priority, subject, finding, impression))
        body = [c[2] for c in clauses]
        rng.shuffle(body)
        findings = " ".join([rng.choice(_OPENERS)] + body + [rng.choice(_CLOSERS)])
        impression = " ".join(c[3] for c in sorted(clauses, key=lambda c: (c[0], c[1])))
        records.append(CorpusRecord(id=f"syn-{seed}-{i:04d}", findings=findings, impression=impression))
    return records


def bundled_train_corpus() -> list[CorpusRecord]:
    return generate_corpus(BUNDLED_TRAIN_SIZE, BUNDLED_TRAIN_SEED)


def bundled_test_corpus() -> list[CorpusRecord]:
    return generate_corpus(BUNDLED_TEST_SIZE, BUNDLED_TEST_SEED)


def save_corpus(records: Sequence[CorpusRecord], path: str | Path) -> None:
    lines = [
        json.dumps({"id": r.id, "findings": r.findings, "impression": r.impression})
        for r in records
    ]
    atomic_write(path, "".join(line + "\n" for line in lines).encode("utf-8"))


def load_corpus(path: str | Path) -> list[CorpusRecord]:
    """One record per non-blank line: a JSON object whose id, findings and impression are strings.

    The impression may be left out (inference-only records); training paths
    refuse such records with require_impressions.
    """
    records = []
    for line_no, line in enumerate(read_utf8(path).splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}:{line_no}: malformed corpus record"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ContractError(f"{where}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ContractError(f"{where}: not a JSON object")
        fields = {"impression": "", **obj}
        for key in ("id", "findings", "impression"):
            if key not in fields:
                raise ContractError(f"{where}: no {key!r}")
            if not isinstance(fields[key], str):
                raise ContractError(f"{where}: {key!r} is not a string")
        records.append(CorpusRecord(id=fields["id"], findings=fields["findings"],
                                    impression=fields["impression"]))
    return records


def corpus_digest(records: Sequence[CorpusRecord]) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r.id.encode("utf-8") + b"\x00")
        h.update(r.findings.encode("utf-8") + b"\x00")
        h.update(r.impression.encode("utf-8") + b"\x00")
    return h.hexdigest()


def require_impressions(records: Sequence[CorpusRecord]) -> None:
    """Training/evaluation corpora must carry a gold impression per record."""
    for r in records:
        if not r.impression.strip():
            raise ContractError(f"record {r.id!r} has no impression")


def read_utf8(path: str | Path) -> str:
    """The whole of a UTF-8 text file; bytes that are not UTF-8 are a ContractError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path} is not UTF-8 text: {exc}") from None


def atomic_write(path: str | Path, data: bytes) -> None:
    """Write path whole or not at all: a uniquely named temp file beside it, then a rename.

    Readers never see a partial file, and concurrent writers of one path do
    not share a temp file; a failed write removes its temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
