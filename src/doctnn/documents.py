"""Token-layout document model, the labeled-corpus file format, and the JSON
encoding that every doctnn file (corpus, config, model, eval report) shares.

A document is a flat list of text tokens with normalized bounding boxes
(page fractions, top-left origin). Ground-truth labels, when present, name
the document class plus the structures and substructures that were actually
placed on the page.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from numbers import Real
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from .topology import Topology

_COORD_SLACK = 1e-9
_DECIMAL_SEPARATORS = frozenset(".,")


class CorpusError(ValueError):
    """Raised for malformed corpus files or invariant violations."""


def write_json(payload: object, path: str | Path) -> None:
    """Write a doctnn file: sorted keys, 2-space indent, trailing newline, UTF-8.

    NaN and infinities raise ValueError before anything is written, so no
    file that strict JSON readers reject is ever produced.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def read_json(path: str | Path, error: type[Exception]) -> dict:
    """Parse a doctnn file, raising ``error`` unless it holds a JSON object."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"parse error in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"parse error in {path}: expected a JSON object")
    return payload


def require(payload: object, key: str, error: type[Exception], where: str) -> object:
    """``payload[key]``, raising ``error`` that names the key when it is absent."""
    if not isinstance(payload, Mapping) or key not in payload:
        raise error(f"{where} missing {key!r}")
    return payload[key]


_JSON_TYPES = {
    list: ("a list", (list, tuple)),
    Mapping: ("an object", Mapping),
    str: ("a string", str),
    int: ("an integer", int),
    float: ("a number", (int, float)),
}


# the types json.loads gives a JSON number; bool is not one of them
_JSON_NUMBERS = frozenset((int, float))


def expect_type(value: object, kind: type, error: type[Exception], what: str):
    """``value``, raising ``error`` unless it has the JSON type ``kind``.

    ``kind`` is list, Mapping (an object), str, int or float (any number).
    Nothing is converted: a bool is neither an integer nor a number, and a
    float is not an integer, so ``True`` or ``2.9`` never stands in for 1 or 2.
    """
    name, accepted = _JSON_TYPES[kind]
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise error(f"{what} must be {name}, got {value!r}")
    return value


def finite_number(value: object) -> bool:
    """Whether ``value`` is a number, not a bool, that a float holds finitely."""
    if not isinstance(value, Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def expect_names(value: object, error: type[Exception], what: str) -> tuple[str, ...]:
    """A JSON list of names as a tuple, raising ``error`` for any other JSON type."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(n, str) for n in value):
        raise error(f"{what} must be a list of names, got {value!r}")
    return tuple(value)


def check_version(payload: Mapping, expected: int, error: type[Exception], what: str) -> None:
    """Refuse a file whose ``format_version`` is not the integer ``expected``."""
    version = payload.get("format_version")
    # True == 1 == 1.0 in Python, so the type is checked as well as the value
    if type(version) is not int or version != expected:
        raise error(f"unsupported {what} format_version {version!r}")


class TokenKind(str, Enum):
    ALPHABETIC = "alphabetic"
    NUMERIC = "numeric"
    ALPHANUMERIC = "alphanumeric"
    SYMBOL = "symbol"


@lru_cache(maxsize=8192)
def token_kind(text: str) -> TokenKind:
    """Classify a token's content. Pure and total over non-empty strings."""
    if not text:
        raise ValueError("token text must be non-empty")
    has_digit = any(c.isdigit() for c in text)
    has_alpha = any(c.isalpha() for c in text)
    if has_digit and all(c.isdigit() or c in _DECIMAL_SEPARATORS for c in text):
        return TokenKind.NUMERIC
    if has_alpha and all(c.isalpha() for c in text):
        return TokenKind.ALPHABETIC
    if has_alpha and has_digit:
        return TokenKind.ALPHANUMERIC
    return TokenKind.SYMBOL


@dataclass(frozen=True, slots=True)
class Token:
    """One text token with its bounding box in page fractions.

    ``kind`` is derived from ``text`` once, at construction; it takes no part
    in equality, hashing or ``repr``.
    """

    text: str
    x: float
    y: float
    width: float
    height: float
    kind: TokenKind = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("field 'text': must be non-empty")
        for name in ("x", "y"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"field '{name}': {v} outside [0, 1]")
        for name in ("width", "height"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"field '{name}': {v} outside (0, 1]")
        if self.x + self.width > 1.0 + _COORD_SLACK:
            raise ValueError(f"field 'x': x+width = {self.x + self.width} exceeds 1")
        if self.y + self.height > 1.0 + _COORD_SLACK:
            raise ValueError(f"field 'y': y+height = {self.y + self.height} exceeds 1")
        object.__setattr__(self, "kind", token_kind(self.text))

    @property
    def right(self) -> float:
        return self.x + self.width

    @property
    def bottom(self) -> float:
        return self.y + self.height


@dataclass(frozen=True)
class GroundTruth:
    """Three-level labels: class name plus the structure/substructure sets present."""

    document_class: str
    structures: frozenset[str] = field(default_factory=frozenset)
    substructures: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class DocumentInstance:
    id: str
    tokens: tuple[Token, ...] = ()
    labels: GroundTruth | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")


def _validate_labels(labels: GroundTruth, doc_id: str, topology: "Topology") -> None:
    if labels.document_class not in topology.documents:
        raise CorpusError(
            f"document '{doc_id}' field 'class': unknown name '{labels.document_class}'"
        )
    for name in sorted(labels.structures):
        if name not in topology.structures:
            raise CorpusError(f"document '{doc_id}' field 'structures': unknown name '{name}'")
    for name in sorted(labels.substructures):
        if name not in topology.substructures:
            raise CorpusError(f"document '{doc_id}' field 'substructures': unknown name '{name}'")


def _parse_token(raw: object, doc_id: str, index: int) -> Token:
    if not isinstance(raw, dict):
        raise CorpusError(f"document '{doc_id}' token {index}: expected an object")
    missing = {"text", "x", "y", "w", "h"} - raw.keys()
    if missing:
        raise CorpusError(
            f"document '{doc_id}' token {index}: missing field(s) {sorted(missing)}"
        )
    text = raw["text"]
    box = (raw["x"], raw["y"], raw["w"], raw["h"])
    where = f"document '{doc_id}' token {index}"
    # one cheap test per token; expect_type then names the field that fails it
    if type(text) is not str or not _JSON_NUMBERS.issuperset(map(type, box)):
        expect_type(text, str, CorpusError, f"{where} field 'text'")
        for key, value in zip(("x", "y", "w", "h"), box):
            expect_type(value, float, CorpusError, f"{where} field '{key}'")
    try:
        return Token(text, *box)
    except ValueError as exc:
        raise CorpusError(f"{where}: {exc}") from exc


def _parse_document(raw: object, topology: "Topology") -> DocumentInstance:
    if not isinstance(raw, dict) or "id" not in raw:
        raise CorpusError("document entry missing 'id'")
    doc_id = expect_type(raw["id"], str, CorpusError, "document entry 'id'")
    if not doc_id:
        raise CorpusError("document entry has empty 'id'")
    where = f"document '{doc_id}'"
    raw_tokens = expect_type(raw.get("tokens", []), list, CorpusError, f"{where} 'tokens'")
    tokens = tuple(_parse_token(t, doc_id, i) for i, t in enumerate(raw_tokens))
    labels = None
    if raw.get("labels") is not None:
        lab = raw["labels"]
        if not isinstance(lab, dict) or "class" not in lab:
            raise CorpusError(f"document '{doc_id}' field 'labels': missing 'class'")
        labels = GroundTruth(
            document_class=expect_type(lab["class"], str, CorpusError, f"{where} field 'class'"),
            structures=frozenset(expect_names(
                lab.get("structures", []), CorpusError, f"{where} 'structures'")),
            substructures=frozenset(expect_names(
                lab.get("substructures", []), CorpusError, f"{where} 'substructures'")),
        )
        _validate_labels(labels, doc_id, topology)
    return DocumentInstance(id=doc_id, tokens=tokens, labels=labels)


def load_corpus(path: str | Path, topology: "Topology") -> list[DocumentInstance]:
    """Load and validate a corpus file against the active topology."""
    payload = read_json(path, CorpusError)
    if "documents" not in payload:
        raise CorpusError(f"parse error in {path}: top-level 'documents' key missing")
    raw_docs = expect_type(payload["documents"], list, CorpusError, f"{path} 'documents'")
    docs = [_parse_document(raw, topology) for raw in raw_docs]
    seen: set[str] = set()
    for doc in docs:
        if doc.id in seen:
            raise CorpusError(f"document '{doc.id}': duplicate id")
        seen.add(doc.id)
    return docs


def corpus_to_dict(docs: Iterable[DocumentInstance]) -> dict:
    entries = []
    for doc in docs:
        entry: dict = {
            "id": doc.id,
            "tokens": [
                {"text": t.text, "x": t.x, "y": t.y, "w": t.width, "h": t.height}
                for t in doc.tokens
            ],
        }
        if doc.labels is not None:
            entry["labels"] = {
                "class": doc.labels.document_class,
                "structures": sorted(doc.labels.structures),
                "substructures": sorted(doc.labels.substructures),
            }
        entries.append(entry)
    return {"documents": entries}


def save_corpus(docs: Iterable[DocumentInstance], path: str | Path) -> None:
    """Write the corpus file format; loading it back yields an equal corpus."""
    write_json(corpus_to_dict(docs), path)
