"""Token-layout document model, the labeled-corpus file format, and the JSON
encoding that every doctnn file (corpus, config, model, eval report) shares.

``write_json`` writes config, model and report files. Corpus files, by far the
largest, have their own writer, ``save_corpus``, which produces the same bytes
as ``write_json`` would: ``json.dumps`` runs in pure Python whenever it is
asked to indent, so the corpus writer fills one text template per token
instead.

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
    except UnicodeDecodeError as exc:
        raise error(f"parse error in {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    # json's decoder recurses once per nesting level, so a deep file exhausts the stack
    except (json.JSONDecodeError, RecursionError) as exc:
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


def expect_number(value: object, kind: type, error: type[Exception], what: str,
                  least: float | None = None):
    """``value``, raising ``error`` unless it is a number of the JSON type ``kind``.

    ``kind`` is int (a Python int, not a bool) or float (an int or a float,
    not a bool, that is finite). With ``least`` given, a smaller value is
    refused. Every number the library takes from outside is checked here, so
    a numpy integer or a numeric string is refused like a bool, never converted.
    """
    expect_type(value, kind, error, what)
    if kind is float and not finite_number(value):
        raise error(f"{what} must be a finite number, got {value!r}")
    if least is not None and value < least:
        raise error(f"{what} must be >= {least:g}, got {value!r}")
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

    ``kind`` (derived from ``text``) and ``right`` (``x + width``, the right
    edge) are computed once, at construction; they take no part in equality,
    hashing or ``repr``.
    """

    text: str
    x: float
    y: float
    width: float
    height: float
    kind: TokenKind = field(init=False, compare=False, repr=False)
    right: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("field 'text': must be non-empty")
        x, y, width, height = self.x, self.y, self.width, self.height
        # every comparison with NaN is false, so NaN is refused
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"field 'x': {x} outside [0, 1]")
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"field 'y': {y} outside [0, 1]")
        if not 0.0 < width <= 1.0:
            raise ValueError(f"field 'width': {width} outside (0, 1]")
        if not 0.0 < height <= 1.0:
            raise ValueError(f"field 'height': {height} outside (0, 1]")
        right = x + width
        if right > 1.0 + _COORD_SLACK:
            raise ValueError(f"field 'x': x+width = {right} exceeds 1")
        if y + height > 1.0 + _COORD_SLACK:
            raise ValueError(f"field 'y': y+height = {y + height} exceeds 1")
        object.__setattr__(self, "kind", token_kind(self.text))
        object.__setattr__(self, "right", right)

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


def _validate_labels(labels: GroundTruth, doc_id: str, topology: "Topology",
                     error: type[Exception]) -> None:
    for key, names, known in (("class", [labels.document_class], topology.documents),
                              ("structures", sorted(labels.structures), topology.structures),
                              ("substructures", sorted(labels.substructures),
                               topology.substructures)):
        for name in names:
            if name not in known:
                raise error(f"document '{doc_id}' field '{key}': unknown name '{name}'")


def require_labels(docs: Iterable[DocumentInstance], topology: "Topology",
                   error: type[Exception] = ValueError) -> None:
    """Refuse a document without labels, or labelled with a name ``topology`` lacks.

    Every path that takes labelled documents runs this one check: the corpus
    loader on its labelled documents, both trainers and both evaluations.
    ``error`` is raised with a message that names the document and the label.
    """
    for doc in docs:
        if doc.labels is None:
            raise error(f"document '{doc.id}' has no labels")
        _validate_labels(doc.labels, doc.id, topology, error)


_TOKEN_FIELDS = frozenset(("text", "x", "y", "w", "h"))


def _parse_token(raw: object, doc_id: str, index: int) -> Token:
    # the cheap tests run for every token; the messages are built only on failure
    if not isinstance(raw, dict):
        raise CorpusError(f"document '{doc_id}' token {index}: expected an object")
    if not _TOKEN_FIELDS <= raw.keys():
        missing = sorted(_TOKEN_FIELDS - raw.keys())
        raise CorpusError(f"document '{doc_id}' token {index}: missing field(s) {missing}")
    text = raw["text"]
    box = (raw["x"], raw["y"], raw["w"], raw["h"])
    if type(text) is not str or not _JSON_NUMBERS.issuperset(map(type, box)):
        # expect_type names the field that fails
        where = f"document '{doc_id}' token {index}"
        expect_type(text, str, CorpusError, f"{where} field 'text'")
        for key, value in zip(("x", "y", "w", "h"), box):
            expect_type(value, float, CorpusError, f"{where} field '{key}'")
    try:
        return Token(text, *box)
    except ValueError as exc:
        raise CorpusError(f"document '{doc_id}' token {index}: {exc}") from exc


def _parse_document(raw: object) -> DocumentInstance:
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
    return DocumentInstance(id=doc_id, tokens=tokens, labels=labels)


def load_corpus(path: str | Path, topology: "Topology") -> list[DocumentInstance]:
    """Load and validate a corpus file against the active topology."""
    payload = read_json(path, CorpusError)
    if "documents" not in payload:
        raise CorpusError(f"parse error in {path}: top-level 'documents' key missing")
    raw_docs = expect_type(payload["documents"], list, CorpusError, f"{path} 'documents'")
    docs = [_parse_document(raw) for raw in raw_docs]
    require_labels((doc for doc in docs if doc.labels is not None), topology, CorpusError)
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


_json_string = json.encoder.encode_basestring_ascii


def _json_value(value: object, depth: int) -> str:
    """``value`` as ``write_json`` writes it for a key or list item ``depth`` levels deep.

    A str and a finite float take the shortcut; ``json.dumps`` writes anything
    else, so ``0`` stays ``0``, ``False`` stays ``false``, and NaN or an
    infinity raises json's ValueError.
    """
    if type(value) is float and value - value == 0.0:  # NaN and infinities give NaN
        return repr(value)
    if type(value) is str:
        return _json_string(value)
    text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    return text.replace("\n", "\n" + "  " * depth)


def _json_list(items: list[str], depth: int) -> str:
    """Encoded ``items`` as a JSON list that is the value of a key ``depth`` levels deep."""
    if not items:
        return "[]"
    indent = "\n" + "  " * depth
    item_indent = indent + "  "
    return "[" + item_indent + ("," + item_indent).join(items) + indent + "]"


# the layout write_json gives corpus_to_dict(docs): keys sorted, two spaces per level
_TOKEN = """{
          "h": %s,
          "text": %s,
          "w": %s,
          "x": %s,
          "y": %s
        }"""
_LABELS = """
      "labels": {
        "class": %s,
        "structures": %s,
        "substructures": %s
      },"""
_DOCUMENT = """{
      "id": %s,%s
      "tokens": %s
    }"""


def save_corpus(docs: Iterable[DocumentInstance], path: str | Path) -> None:
    """Write the corpus file format; loading it back yields an equal corpus.

    The file holds the same bytes as ``write_json(corpus_to_dict(docs), path)``.
    NaN and infinities raise ValueError before anything is written.
    """
    entries = []
    for doc in docs:
        tokens = [
            _TOKEN % (
                _json_value(t.height, 5),
                _json_value(t.text, 5),
                _json_value(t.width, 5),
                _json_value(t.x, 5),
                _json_value(t.y, 5),
            )
            for t in doc.tokens
        ]
        labels = ""
        if doc.labels is not None:
            labels = _LABELS % (
                _json_value(doc.labels.document_class, 4),
                _json_list([_json_value(n, 5) for n in sorted(doc.labels.structures)], 4),
                _json_list([_json_value(n, 5) for n in sorted(doc.labels.substructures)], 4),
            )
        entries.append(_DOCUMENT % (_json_value(doc.id, 3), labels, _json_list(tokens, 3)))
    text = '{\n  "documents": %s\n}\n' % _json_list(entries, 1)
    Path(path).write_text(text, encoding="utf-8")
