"""Token-layout document model, the labeled-corpus file format, and the JSON
encoding that every doctnn file (corpus, config, model, eval report) shares.

``write_json`` writes config, model and report files. Corpus files, by far the
largest, have their own writer, ``save_corpus``, which produces the same bytes
as ``write_json`` would: ``json.dumps`` runs in pure Python whenever it is
asked to indent, so the corpus writer fills one text template per token
instead, and writes the file one document at a time. Both writers write to a
sibling file that replaces the target only once it is complete, so a doctnn
file is replaced whole or not at all.

A document is a flat list of text tokens with normalized bounding boxes
(page fractions, top-left origin). Ground-truth labels, when present, name
the document class plus the structures and substructures that were actually
placed on the page.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass, field, fields
from enum import Enum
from functools import lru_cache
from numbers import Real
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, TextIO

if TYPE_CHECKING:
    from .topology import Topology

_COORD_SLACK = 1e-9


class CorpusError(ValueError):
    """Raised for malformed corpus files or invariant violations."""


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file whose content replaces ``path`` when the block completes.

    The content goes to the sibling ``<path>.part``, which ``os.replace`` moves
    onto ``path`` only after the last byte. Any exception, an interrupt
    included, deletes the sibling and leaves ``path`` as it was.
    """
    part = Path(f"{os.fspath(path)}.part")
    try:
        with open(part, "w", encoding="utf-8") as out:
            yield out
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_json(payload: object, path: str | Path) -> None:
    """Write a doctnn file: sorted keys, 2-space indent, trailing newline, UTF-8.

    NaN and infinities raise ValueError before anything is written, so no
    file that strict JSON readers reject is ever produced. The text replaces
    ``path`` whole: a failed or interrupted write leaves the old file there.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _replacing(path) as out:
        out.write(text)


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
    if not isinstance(text, str):
        raise TypeError(f"token text must be a string, got {text!r}")
    if not text:
        raise ValueError("token text must be non-empty")
    if text.isalpha():
        return TokenKind.ALPHABETIC
    # digits with any decimal separators, and at least one digit
    if text.replace(".", "").replace(",", "").isdigit():
        return TokenKind.NUMERIC
    if any(c.isdigit() for c in text) and any(c.isalpha() for c in text):
        return TokenKind.ALPHANUMERIC
    return TokenKind.SYMBOL


@dataclass(frozen=True, slots=True, init=False)
class Token:
    """One text token with its bounding box in page fractions.

    ``kind`` (derived from ``text``) and ``right`` (``x + width``, the right
    edge) are computed once, at construction; they take no part in equality,
    hashing or ``repr``. Each coordinate must be a number as a corpus file
    holds it: an int or a float, never a bool.
    """

    text: str
    x: float
    y: float
    width: float
    height: float
    kind: TokenKind = field(init=False, compare=False, repr=False)
    right: float = field(init=False, compare=False, repr=False)

    # written by hand, not generated: every token of a corpus is built here,
    # and the slot setters below store each field at half the cost of the
    # generated __init__ and __post_init__, which go through object.__setattr__
    def __init__(self, text: str, x: float, y: float, width: float, height: float) -> None:
        if not text:
            raise ValueError("field 'text': must be non-empty")
        if not (type(x) is float and type(y) is float
                and type(width) is float and type(height) is float):
            for name, value in (("x", x), ("y", y), ("width", width), ("height", height)):
                expect_type(value, float, ValueError, f"field {name!r}")
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
        _set_text(self, text)
        _set_x(self, x)
        _set_y(self, y)
        _set_width(self, width)
        _set_height(self, height)
        _set_kind(self, token_kind(text))
        _set_right(self, right)

    @property
    def bottom(self) -> float:
        return self.y + self.height


# the slot descriptors' own setters, which a frozen dataclass's __setattr__ does not guard
(_set_text, _set_x, _set_y, _set_width, _set_height, _set_kind, _set_right) = (
    Token.__dict__[f.name].__set__ for f in fields(Token))


# slots=True builds a new class, but the __setattr__ and __delattr__ that
# frozen=True generates still test against the class it replaced, so a name
# that is not a field reaches super() and fails with a TypeError. These refuse
# every name, with the generated methods' own messages.
def _refuse_assign(self: Token, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self: Token, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


Token.__setattr__ = _refuse_assign
Token.__delattr__ = _refuse_delete


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
    """``raw`` as a Token, raising CorpusError that names the token and its fault."""
    where = f"document '{doc_id}' token {index}"
    if not isinstance(raw, dict):
        raise CorpusError(f"{where}: expected an object")
    if not _TOKEN_FIELDS <= raw.keys():
        raise CorpusError(f"{where}: missing field(s) {sorted(_TOKEN_FIELDS - raw.keys())}")
    expect_type(raw["text"], str, CorpusError, f"{where} field 'text'")
    for key in ("x", "y", "w", "h"):
        expect_type(raw[key], float, CorpusError, f"{where} field '{key}'")
    try:
        return Token(raw["text"], raw["x"], raw["y"], raw["w"], raw["h"])
    except ValueError as exc:
        raise CorpusError(f"{where}: {exc}") from exc


def _parse_document(raw: object) -> DocumentInstance:
    if not isinstance(raw, dict) or "id" not in raw:
        raise CorpusError("document entry missing 'id'")
    doc_id = expect_type(raw["id"], str, CorpusError, "document entry 'id'")
    if not doc_id:
        raise CorpusError("document entry has empty 'id'")
    where = f"document '{doc_id}'"
    raw_tokens = expect_type(raw.get("tokens", []), list, CorpusError, f"{where} 'tokens'")
    try:
        # every token _parse_token refuses raises here too (a missing field, a
        # value that is not a dict, a non-str text or a bad coordinate), so
        # only a document with a bad token pays for _parse_token's message
        tokens = tuple([Token(t["text"], t["x"], t["y"], t["w"], t["h"]) for t in raw_tokens])
    except (KeyError, TypeError, ValueError):
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

    The file holds the same bytes as ``write_json(corpus_to_dict(docs), path)``,
    written one document at a time, so memory does not grow with the corpus.
    The text replaces ``path`` whole: NaN or an infinity in any document
    raises ValueError, and it or any other failure leaves ``path`` as it was.
    """
    with _replacing(path) as out:
        out.write('{\n  "documents": [')
        empty = True
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
            # _json_list's layout for the documents list, one item at a time
            out.write("\n    " if empty else ",\n    ")
            out.write(_DOCUMENT % (_json_value(doc.id, 3), labels, _json_list(tokens, 3)))
            empty = False
        out.write("]\n}\n" if empty else "\n  ]\n}\n")
