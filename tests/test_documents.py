import hashlib
import json
import re
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass, field, fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from doctnn import (
    CorpusError,
    DocumentInstance,
    EvalReport,
    ExtractorSpec,
    GenSpec,
    GroundTruth,
    MlpModel,
    MlpTrainingStats,
    ModelFormatError,
    NetworkConfig,
    Noise,
    TnnModel,
    TnnTrainingSummary,
    Token,
    TokenKind,
    TopologyError,
    TrainingStats,
    default_config,
    default_topology,
    generate,
    generate_ambiguous,
    load_config,
    load_corpus,
    load_mlp,
    load_model,
    report_to_dict,
    save_config,
    save_corpus,
    save_mlp,
    save_model,
    token_kind,
)
from doctnn.documents import corpus_to_dict, write_json
from doctnn.evaluation import ClassRow, CostComparison, StructureRow
from doctnn.generator import DESK_TEST_COUNTS, DESK_TEST_SEED
from doctnn.mlp import mlp_from_dict, mlp_to_dict
from doctnn.network import ActivationTrace, model_from_dict, model_to_dict
from doctnn.recognizer import PassRecord, RecognitionResult, StructureHit
from doctnn.topology import config_from_dict, config_to_dict
from conftest import dense_config

TOPOLOGY = default_topology()


@pytest.mark.parametrize(
    "text,kind",
    [
        ("1250", TokenKind.NUMERIC),
        ("3,50", TokenKind.NUMERIC),
        ("7.00", TokenKind.NUMERIC),
        ("Total", TokenKind.ALPHABETIC),
        ("A4-200", TokenKind.ALPHANUMERIC),
        ("Mr.", TokenKind.SYMBOL),
        ("12/05/2021", TokenKind.SYMBOL),
        (".", TokenKind.SYMBOL),
    ],
)
def test_token_kind(text, kind):
    assert token_kind(text) is kind
    assert Token(text, 0.1, 0.1, 0.05, 0.02).kind is kind


def test_token_kind_rejects_empty():
    with pytest.raises(ValueError):
        token_kind("")


@pytest.mark.parametrize("text", [5, 2.5, True, ("1",)])
def test_token_kind_refuses_text_that_is_not_a_string(text):
    with pytest.raises(TypeError, match="^token text must be a string, got "):
        token_kind(text)


def reference_token_kind(text):
    """Token classification by four scans over the characters.

    ``token_kind`` must give the same kind for every non-empty text.
    """
    has_digit = any(c.isdigit() for c in text)
    has_alpha = any(c.isalpha() for c in text)
    if has_digit and all(c.isdigit() or c in ".," for c in text):
        return TokenKind.NUMERIC
    if has_alpha and all(c.isalpha() for c in text):
        return TokenKind.ALPHABETIC
    if has_alpha and has_digit:
        return TokenKind.ALPHANUMERIC
    return TokenKind.SYMBOL


# amounts, ASCII and other digits (Arabic-Indic, superscript) with separators;
# those mixed with letters with and without marks; and any text at all
TOKEN_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789.,\u0663\u00b2"), min_size=1, max_size=8),
    st.text(st.sampled_from("0123456789.,-/ aZé\u0663\u00b2\u0301"), min_size=1, max_size=12),
    st.text(min_size=1, max_size=12),
)


@given(TOKEN_TEXT)
def test_token_kind_matches_the_reference_scans(text):
    assert token_kind(text) is reference_token_kind(text)


@given(st.text(min_size=1, max_size=12))
def test_token_kind_total_and_stable(text):
    first = token_kind(text)
    assert first in set(TokenKind)
    assert token_kind(text) is first


@given(st.text(min_size=1, max_size=12), st.floats(0.0, 0.9), st.floats(0.0, 0.9),
       st.floats(0.01, 0.1), st.floats(0.01, 0.1))
def test_token_kind_is_a_field_outside_equality_hash_and_repr(text, x, y, width, height):
    token = Token(text, x, y, width, height)
    assert token.kind is token_kind(text)
    values = (text, x, y, width, height)
    assert token == Token(*values) and hash(token) == hash(values)
    assert token != Token(text + "!", x, y, width, height)
    assert repr(token) == (
        f"Token(text={text!r}, x={x!r}, y={y!r}, width={width!r}, height={height!r})"
    )
    with pytest.raises(TypeError):
        Token(*values, TokenKind.SYMBOL)
    with pytest.raises(FrozenInstanceError):
        token.kind = TokenKind.SYMBOL
    # the right edge is a field computed the same way, once
    assert token.right == x + width
    assert [f.name for f in fields(Token) if f.init] == ["text", "x", "y", "width", "height"]
    assert [f.name for f in fields(Token) if f.compare or f.repr or f.hash] == [
        "text", "x", "y", "width", "height"]
    with pytest.raises(TypeError):
        Token(*values, right=x + width)
    with pytest.raises(FrozenInstanceError):
        token.right = 0.5


TOKEN_ERRORS = [
    (dict(text="a", x=1.2, y=0.1, width=0.1, height=0.1), "field 'x': 1.2 outside [0, 1]"),
    (dict(text="a", x=0.1, y=-0.1, width=0.1, height=0.1), "field 'y': -0.1 outside [0, 1]"),
    (dict(text="a", x=0.1, y=0.1, width=0.0, height=0.1), "field 'width': 0.0 outside (0, 1]"),
    (dict(text="a", x=0.95, y=0.1, width=0.2, height=0.1),
     "field 'x': x+width = 1.15 exceeds 1"),
    (dict(text="", x=0.1, y=0.1, width=0.1, height=0.1), "field 'text': must be non-empty"),
    (dict(text="a", x=0.1, y=0.1, width=0.1, height=1.5), "field 'height': 1.5 outside (0, 1]"),
    (dict(text="a", x=0.1, y=0.9, width=0.1, height=0.2),
     "field 'y': y+height = 1.1 exceeds 1"),
    (dict(text="a", x=0.1, y=float("nan"), width=0.1, height=0.1),
     "field 'y': nan outside [0, 1]"),
    (dict(text="a", x=False, y=0.1, width=0.1, height=0.1),
     "field 'x' must be a number, got False"),
    (dict(text="a", x=0.1, y=0.1, width=True, height=0.1),
     "field 'width' must be a number, got True"),
    (dict(text="a", x=0.1, y="0.1", width=0.1, height=0.1),
     "field 'y' must be a number, got '0.1'"),
]


# the ids name each case by its position, as the suite has always reported them
@pytest.mark.parametrize("kwargs, message", TOKEN_ERRORS,
                         ids=[f"kwargs{i}" for i in range(len(TOKEN_ERRORS))])
def test_token_invariants(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Token(**kwargs)


@dataclass(frozen=True, slots=True)
class ReferenceToken:
    """Token as the generated __init__ and a __post_init__ built it: the reference
    for Token's hand-written constructor on int and float coordinates."""

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
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"field 'x': {x} outside [0, 1]")
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"field 'y': {y} outside [0, 1]")
        if not 0.0 < width <= 1.0:
            raise ValueError(f"field 'width': {width} outside (0, 1]")
        if not 0.0 < height <= 1.0:
            raise ValueError(f"field 'height': {height} outside (0, 1]")
        right = x + width
        if right > 1.0 + 1e-9:
            raise ValueError(f"field 'x': x+width = {right} exceeds 1")
        if y + height > 1.0 + 1e-9:
            raise ValueError(f"field 'y': y+height = {y + height} exceeds 1")
        object.__setattr__(self, "kind", token_kind(self.text))
        object.__setattr__(self, "right", right)


def built(cls, text, box):
    """The token ``cls`` builds as a tuple of every field, or the ValueError's message."""
    try:
        token = cls(text, *box)
    except ValueError as exc:
        return str(exc)
    values = tuple(getattr(token, f.name) for f in fields(cls))
    return values, repr(token).removeprefix(cls.__name__), hash(token)


# in range often, and out of range, NaN and infinite too
COORDINATE = st.floats(0.0, 1.0) | st.floats() | st.integers(-1, 2)


@given(st.text(max_size=6), st.tuples(COORDINATE, COORDINATE, COORDINATE, COORDINATE))
def test_token_builds_what_the_reference_builds(text, box):
    assert built(Token, text, box) == built(ReferenceToken, text, box)


@pytest.mark.parametrize("name", ["x", "kind", "right", "other", "__class__"])
def test_token_refuses_assigning_or_deleting_any_attribute(name):
    token = Token("Total", 0.5, 0.5, 0.08, 0.02)
    with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
        setattr(token, name, 0.25)
    with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
        delattr(token, name)
    assert token == Token("Total", 0.5, 0.5, 0.08, 0.02) and token.right == 0.5 + 0.08


def test_replace_validates_and_recomputes_right():
    token = Token("Total", 0.5, 0.5, 0.08, 0.02)
    moved = replace(token, x=0.25, text="7.00")
    assert moved == Token("7.00", 0.25, 0.5, 0.08, 0.02)
    assert (moved.right, moved.kind) == (0.25 + 0.08, TokenKind.NUMERIC)
    with pytest.raises(ValueError, match=r"^field 'x': x\+width = 1\.03 exceeds 1$"):
        replace(token, x=0.95)
    with pytest.raises(ValueError, match="^field 'x' must be a number, got False$"):
        replace(token, x=False)
    # Python 3.13 made this refusal a TypeError
    with pytest.raises((TypeError, ValueError), match="init=False"):
        replace(token, right=0.9)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.text(min_size=1, max_size=6),
       st.tuples(*[st.floats(0.0, 0.5) | st.sampled_from([0, 1, False, True])] * 4))
def test_a_token_that_builds_loads_back_after_save(tmp_path, text, box):
    # save_corpus would write a bool coordinate as false, which load_corpus refuses
    try:
        token = Token(text, *box)
    except ValueError:
        return
    docs = [DocumentInstance("d", (token,))]
    save_corpus(docs, tmp_path / "corpus.json")
    assert load_corpus(tmp_path / "corpus.json", TOPOLOGY) == docs


def test_load_single_document_without_tokens(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"documents": [{"id": "empty", "tokens": []}]}))
    docs = load_corpus(path, TOPOLOGY)
    assert len(docs) == 1
    assert docs[0].id == "empty"
    assert docs[0].tokens == ()
    assert docs[0].labels is None


def test_load_rejects_bad_coordinate(tmp_path):
    path = tmp_path / "corpus.json"
    payload = {
        "documents": [
            {"id": "bad", "tokens": [{"text": "a", "x": 1.2, "y": 0.1, "w": 0.1, "h": 0.1}]}
        ]
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(CorpusError, match="'bad'.*x"):
        load_corpus(path, TOPOLOGY)


GOOD_TOKEN = {"text": "a", "x": 0.1, "y": 0.1, "w": 0.1, "h": 0.1}
BAD_TOKENS = [
    ("a", ": expected an object"),
    ({"text": "a", "x": 0.1, "y": 0.1, "w": 0.1}, ": missing field(s) ['h']"),
    *((dict(GOOD_TOKEN, text=text), f" field 'text' must be a string, got {text!r}")
      for text in (5, 2.5, True, False, None, [], ["a"], {"a": 1})),
    (dict(GOOD_TOKEN, text=""), ": field 'text': must be non-empty"),
    *((dict(GOOD_TOKEN, w=w), f" field 'w' must be a number, got {w!r}")
      for w in (True, False, None, "0.1", [0.1])),
    (dict(GOOD_TOKEN, x=1.2), ": field 'x': 1.2 outside [0, 1]"),
    (dict(GOOD_TOKEN, h=0), ": field 'height': 0 outside (0, 1]"),
]


@pytest.mark.parametrize("token, fault", BAD_TOKENS)
def test_load_names_the_bad_token_and_its_fault(tmp_path, token, fault):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"documents": [{"id": "d", "tokens": [GOOD_TOKEN, token]}]}))
    with pytest.raises(CorpusError) as refused:
        load_corpus(path, TOPOLOGY)
    assert str(refused.value) == "document 'd' token 1" + fault


def test_load_rejects_unknown_class(tmp_path):
    path = tmp_path / "corpus.json"
    payload = {
        "documents": [
            {"id": "d1", "tokens": [], "labels": {"class": "receipt", "structures": []}}
        ]
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(CorpusError, match="receipt"):
        load_corpus(path, TOPOLOGY)


def test_load_rejects_unknown_structure(tmp_path):
    path = tmp_path / "corpus.json"
    payload = {
        "documents": [
            {
                "id": "d1",
                "tokens": [],
                "labels": {"class": "invoice", "structures": ["margin_note"]},
            }
        ]
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(CorpusError, match="margin_note"):
        load_corpus(path, TOPOLOGY)


def test_load_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "corpus.json"
    payload = {"documents": [{"id": "d", "tokens": []}, {"id": "d", "tokens": []}]}
    path.write_text(json.dumps(payload))
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus(path, TOPOLOGY)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text("{not json")
    with pytest.raises(CorpusError, match="parse error"):
        load_corpus(path, TOPOLOGY)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(CorpusError, match="cannot read"):
        load_corpus(tmp_path / "absent.json", TOPOLOGY)


def files_in(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_save_corpus_refuses_non_finite_values(tmp_path):
    # a refused save leaves the directory as it was: no file at the path, or
    # the corpus already there byte for byte, and no other file beside it
    path = tmp_path / "corpus.json"
    good = DocumentInstance(id="a", tokens=(Token("Total", 0.5, 0.5, 0.08, 0.02),))
    for earlier in (None, [good]):
        if earlier is not None:
            save_corpus(earlier, path)
        before = files_in(tmp_path)
        for field in ("x", "y", "width", "height"):
            for value in (float("nan"), float("inf"), float("-inf")):
                token = Token("Total", 0.5, 0.5, 0.08, 0.02)
                object.__setattr__(token, field, value)  # past Token's own validation
                bad = DocumentInstance(id="d", tokens=(token,))
                # in the only document, or in the second once the first is written
                for docs in ([bad], [good, bad]):
                    with pytest.raises(ValueError, match="not JSON compliant"):
                        save_corpus(docs, path)
                    assert files_in(tmp_path) == before


def test_an_interrupted_save_corpus_leaves_the_old_file(tmp_path):
    # an interrupt is no Exception, and it too deletes the half-written sibling
    path = tmp_path / "corpus.json"
    docs = generate_ambiguous(7, 2)
    save_corpus(docs, path)
    before = files_in(tmp_path)

    def interrupted():
        yield docs[0]
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        save_corpus(interrupted(), path)
    assert files_in(tmp_path) == before


def test_save_corpus_peak_memory_is_a_small_part_of_the_file(desk_corpora, tmp_path):
    # documents are written one at a time, so the text of the whole file is
    # never held: the traced peak stays far below the file's size
    path = tmp_path / "corpus.json"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        save_corpus(desk_corpora[1], path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4
    assert list(files_in(tmp_path)) == ["corpus.json"]


@pytest.mark.parametrize("load, error", [
    (lambda path: load_corpus(path, TOPOLOGY), CorpusError),
    (load_config, TopologyError),
    (load_model, ModelFormatError),
    (load_mlp, ModelFormatError),
], ids=["corpus", "config", "tnn", "mlp"])
@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # not UTF-8
    b"[" * 200_000 + b"]" * 200_000,  # deeper than json's decoder can recurse
], ids=["not-utf8", "deep"])
def test_loaders_refuse_unparsable_files_with_their_own_error(tmp_path, load, error, content):
    path = tmp_path / "file.json"
    path.write_bytes(content)
    with pytest.raises(error, match=re.escape(f"parse error in {path}: ")):
        load(path)


def test_save_config_refuses_non_finite_values(tmp_path):
    # building the config refuses the NaN param, so write_json never sees it
    config = default_config()
    extractors = dict(config.extractors)
    extractors["horizontal_alignment"] = ExtractorSpec(
        kind="horizontal_alignment", params={"align_tol": float("nan")}
    )
    path = tmp_path / "config.json"
    with pytest.raises(TopologyError, match="'horizontal_alignment': param 'align_tol'"):
        save_config(NetworkConfig(config.topology, extractors, config.hyperparams), path)
    assert not path.exists()


def test_config_keeps_its_own_extractor_specs_and_params(tmp_path):
    # the config and each spec copy what they are given, so a later change
    # to the caller's dicts or lists moves neither the saved file nor the
    # extractors that run
    config = default_config()
    keywords = ["total", "due"]
    params = {"keywords": keywords}
    extractors = dict(config.extractors)
    extractors["keywords_total"] = ExtractorSpec("keywords_total", params)
    built = NetworkConfig(config.topology, extractors)
    expected = config_to_dict(built)
    extractors["amount_area"] = ExtractorSpec("date_indicator")
    params["bogus"] = 1
    keywords.append("sum")
    assert config_to_dict(built) == expected
    assert expected["extractors"]["amount_area"]["kind"] == "amount_area"
    assert expected["extractors"]["keywords_total"]["params"] == {"keywords": ["total", "due"]}
    path = tmp_path / "config.json"
    save_config(built, path)
    assert load_config(path) == built
    assert replace(built, hyperparams=built.hyperparams) == built


@pytest.mark.parametrize(
    "element, param, value",
    [
        ("horizontal_alignment", "align_tol", float("nan")),
        ("horizontal_alignment", "align_tol", -1),
        ("amount_area", "align_tol", "abc"),
        ("amount_area", "product_rel_tol", float("inf")),
        ("designation_zone", "middle_band", [0.3]),
        ("text_block", "min_rows", float("inf")),
        ("keywords_total", "keywords", 5),
        ("horizontal_alignment", "align_toll", 5),
        ("horizontal_alignment", "align_tol", True),
        ("code_area", "left_band_x", "0.25"),
        ("text_block", "min_rows", 2.5),
        ("isolated_block", "max_tokens", 4.0),
        pytest.param("vertical_alignment", "align_tol", 10**400,
                     id="vertical_alignment-align_tol-beyond-float-range"),
    ],
)
def test_load_config_names_element_and_bad_param(tmp_path, element, param, value):
    payload = config_to_dict(default_config())
    payload["extractors"][element]["params"][param] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))  # writes NaN and Infinity as bare literals
    with pytest.raises(TopologyError, match=f"element '{element}': param '{param}'"):
        load_config(path)


def test_round_trip_identity(tmp_path):
    docs = [
        DocumentInstance(
            id="inv-1",
            tokens=(Token("Total", 0.5, 0.5, 0.08, 0.02), Token("7.00", 0.7, 0.5, 0.05, 0.02)),
            labels=GroundTruth(
                document_class="invoice",
                structures=frozenset({"table", "total"}),
                substructures=frozenset({"totals_line"}),
            ),
        ),
        DocumentInstance(id="empty"),
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_corpus(docs, first)
    loaded = load_corpus(first, TOPOLOGY)
    assert loaded == docs
    save_corpus(loaded, second)
    assert load_corpus(second, TOPOLOGY) == docs
    assert first.read_bytes() == second.read_bytes()


# sha256 of the save_corpus file for the pinned desk corpora (seeds 51 and 52):
# a change to Token or to the encoding that moves a byte of the file shows here
DESK_CORPUS_SHA256 = (
    "7eb98163e516bb716e17974cc0d370ed1adbc43d9f56d563870eababaaf810ea",
    "b1c1f5382b17ea0f309a9573f04a81241d66c6ec61cde378e08ed8684a382da3",
)


def test_save_corpus_bytes_are_pinned(desk_corpora, tmp_path):
    digests = []
    for corpus in desk_corpora:
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert tuple(digests) == DESK_CORPUS_SHA256


# the same for corpora that take the branches desk noise rarely does: the
# ambiguous fixtures, and the desk test corpus at high noise, where 80 invoices
# and letters go unsigned and 113 documents lose their address (8 and 12 at desk
# noise); a change to the generator that moves a byte of either shows here
AMBIGUOUS_CORPUS_SHA256 = "2e88603869e72e034f85208f973f2ff710e7a854f6940ddb5593c2b8f6a88fd8"
HIGH_NOISE_CORPUS_SHA256 = "97678d140d2bd37d85d6f3545aeb46669bd4d50ebba04df3e8f922cc2bfd788a"


def saved_sha256(docs, directory) -> str:
    path = directory / "corpus.json"
    save_corpus(docs, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_ambiguous_corpus_bytes_are_pinned(tmp_path):
    assert saved_sha256(generate_ambiguous(7, 24), tmp_path) == AMBIGUOUS_CORPUS_SHA256


def test_high_noise_corpus_bytes_are_pinned(tmp_path):
    spec = GenSpec(seed=DESK_TEST_SEED, counts=DESK_TEST_COUNTS,
                   noise=Noise(jitter=0.02, drop_rate=0.5, distort_rate=0.5))
    assert saved_sha256(generate(spec), tmp_path) == HIGH_NOISE_CORPUS_SHA256


def assert_saved_as_write_json(docs, directory):
    """``save_corpus`` writes the bytes ``write_json`` gives the corpus's dict."""
    reference, saved = directory / "reference.json", directory / "saved.json"
    write_json(corpus_to_dict(docs), reference)
    save_corpus(docs, saved)
    assert saved.read_bytes() == reference.read_bytes()


def test_save_corpus_writes_what_write_json_writes(desk_corpora, tmp_path):
    token = Token("Total", 0.5, 0.5, 0.08, 0.02)
    listed = Token("Total", 0.5, 0.5, 0.08, 0.02)
    object.__setattr__(listed, "text", ["To", "tal"])  # past Token's own validation
    for docs in (
        *desk_corpora,
        generate_ambiguous(7, 24),
        [],
        [DocumentInstance("bare")],
        [DocumentInstance("unnamed", (token,), GroundTruth("invoice"))],
        # values that are not strings or floats come out as json.dumps writes them
        [DocumentInstance("odd", (listed,), GroundTruth({"b": [1, 2.5], "a": None}))],
    ):
        assert_saved_as_write_json(docs, tmp_path)


NAMES = st.text(min_size=1, max_size=8)  # unicode, quotes, backslashes, control characters
# json writes an int coordinate as it is: 0 as 0, not 0.0 (Token refuses a bool one)
POSITION = st.floats(0.0, 0.5) | st.just(0)
EXTENT = st.floats(0.001, 0.5)
BOX = st.tuples(POSITION, POSITION, EXTENT, EXTENT) | st.just((0, 0, 1, 1))
TOKENS = st.builds(lambda text, box: Token(text, *box), NAMES, BOX)
LABELS = st.none() | st.builds(GroundTruth, NAMES, st.frozensets(NAMES, max_size=3),
                               st.frozensets(NAMES, max_size=3))
DOCUMENTS = st.builds(DocumentInstance, NAMES, st.lists(TOKENS, max_size=4).map(tuple), LABELS)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(DOCUMENTS, max_size=3))
def test_save_corpus_writes_what_write_json_writes_for_any_text(tmp_path, docs):
    # each example overwrites the same two files
    assert_saved_as_write_json(docs, tmp_path)


# --- fuzzing the file loaders -------------------------------------------------------

# every param of every default extractor kind, written out so each is fuzzed
EXPLICIT_PARAMS = {
    "amount_area": {"right_region_x": 0.5, "align_tol": 0.01, "product_rel_tol": 1e-6},
    "designation_zone": {"middle_band": [0.28, 0.52], "align_tol": 0.01},
    "code_area": {"left_band_x": 0.25, "align_tol": 0.01},
    "vertical_alignment": {"align_tol": 0.01},
    "horizontal_alignment": {"align_tol": 0.01},
    "keywords_total": {"align_tol": 0.01, "keywords": ["vat", "total"],
                       "keywords_extended": ["tax", "net pay"]},
    "keywords_address": {"align_tol": 0.01, "keywords": ["mr", "postal code"]},
    "text_block": {"align_tol": 0.01, "min_rows": 3},
    "date_indicator": {},
    "isolated_block": {"bottom_band_y": 0.8, "max_tokens": 4, "min_gap": 0.05},
}
WRONG_VALUES = ([], {}, 5, 2.5, "x", None, True, 1e308)


def json_paths(node, prefix=()):
    """The key path of every value inside a JSON object or list."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from json_paths(child, prefix + (key,))


def config_payload():
    payload = config_to_dict(default_config())
    for name, params in EXPLICIT_PARAMS.items():
        payload["extractors"][name]["params"] = params
    return payload


def tnn_payload():
    model = TnnModel.create(dense_config((3, 2, 2, 2)), seed=1)
    # 12 update passes over the 6, 4 and 4 linked weights of the three networks;
    # stopping before the epoch cap, each ends below epsilon 0.01
    stats = tuple(TrainingStats(epochs=4, samples=3, update_passes=12, weight_updates=updates,
                                final_mse=0.005) for updates in (72, 48, 48))
    model.training = TnnTrainingSummary(stats=stats, class_counts={"d0": 2, "d1": 1})
    return model_to_dict(model)


def mlp_payload():
    model = MlpModel.create(dense_config((3, 2, 2, 2)), seed=1)
    model.training = MlpTrainingStats(epochs=4, samples=3, backward_passes=12, final_mse=0.005,
                                      class_counts={"d0": 2, "d1": 1})
    return mlp_to_dict(model)


def corpus_payload():
    labels = GroundTruth("invoice", frozenset({"total", "table"}), frozenset({"totals_line"}))
    docs = [
        DocumentInstance("a", (Token("Total", 0.5, 0.5, 0.08, 0.02),
                               Token("7.00", 0.7, 0.5, 0.05, 0.02)), labels),
        DocumentInstance("b", (Token("Dear", 0.1, 0.1, 0.05, 0.02),)),
    ]
    return corpus_to_dict(docs)


def load_corpus_payload(payload, path):
    path.write_text(json.dumps(payload))
    return load_corpus(path, TOPOLOGY)


def json_kind(value):
    """The JSON type of a parsed value; JSON has one number type, so 5 and 5.0 share it."""
    if isinstance(value, bool) or value is None:
        return type(value)
    return float if isinstance(value, (int, float)) else type(value)


def same_json(a, b):
    """Equal JSON with equal JSON types: True is not 1, "[]" is not []."""
    if json_kind(a) is not json_kind(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    return a == b


# a file may leave these out: {} loads as the default hyperparams, null as no labels
FILLED_IN = (("hyperparams", {}), ("labels", None))


@pytest.mark.parametrize(
    "payload, load, save",
    [
        (config_payload(), lambda payload, _: config_from_dict(payload), config_to_dict),
        (tnn_payload(), lambda payload, _: model_from_dict(payload), model_to_dict),
        (mlp_payload(), lambda payload, _: mlp_from_dict(payload), mlp_to_dict),
        (corpus_payload(), load_corpus_payload, corpus_to_dict),
    ],
    ids=["config", "tnn", "mlp", "corpus"],
)
def test_loaders_refuse_wrong_json_types_with_their_own_error(payload, load, save, tmp_path):
    # the unmutated payload loads and saves back unchanged
    assert same_json(save(load(payload, tmp_path / "file.json")), payload)
    text = json.dumps(payload)
    for path in json_paths(payload):
        for value in WRONG_VALUES:
            mutant = json.loads(text)
            *parents, last = path
            node = mutant
            for key in parents:
                node = node[key]
            node[last] = value
            try:
                loaded = load(mutant, tmp_path / "file.json")
            except (CorpusError, ModelFormatError, TopologyError):
                continue
            except Exception as exc:  # a traceback, not a one-line error
                pytest.fail(f"{path} set to {value!r}: {type(exc).__name__}: {exc}")
            # what loads was taken as written: a value that was converted
            # (True to 1, 2.9 to 2, [] to "[]") saves back different
            if (last, value) not in FILLED_IN:
                saved = json.loads(json.dumps(save(loaded)))
                assert same_json(saved, mutant), f"{path} set to {value!r} loads as {saved}"


@pytest.mark.parametrize(
    "payload, load, save",
    [(tnn_payload(), model_from_dict, model_to_dict), (mlp_payload(), mlp_from_dict, mlp_to_dict)],
    ids=["tnn", "mlp"],
)
def test_model_loaders_refuse_every_missing_key(payload, load, save):
    # the writers write every key, so a key that is gone is refused, naming it,
    # or the file loads as written; only the embedded config's optional
    # sections, which a config file may leave out, take their defaults, and
    # these files hold the defaults
    text = json.dumps(payload)
    filled_in = []
    for path in json_paths(payload):
        *parents, key = path
        if isinstance(key, int):
            continue
        mutant = json.loads(text)
        node = mutant
        for step in parents:
            node = node[step]
        del node[key]
        try:
            saved = json.loads(json.dumps(save(load(mutant))))
        except TopologyError as exc:
            # the embedded config is read as a config file is
            assert path[0] == "config", path
            assert key in str(exc), f"{path}: {exc}"
            continue
        except ModelFormatError as exc:
            # a class count that is gone shows as the counts' total
            assert key in str(exc) or parents[-1] in str(exc), f"{path}: {exc}"
            continue
        if path[0] == "config" and {"hyperparams", "params"} & set(path):
            assert same_json(saved, payload), f"{path} deleted loads as {saved}"
        elif not same_json(saved, mutant):
            filled_in.append(path)
    assert filled_in == []


@pytest.mark.parametrize(
    "payload, load, record, changes, message",
    [
        (tnn_payload, load_model, ("stats", 1), {"update_passes": 13},
         "training stats 1 'update_passes' is 13, but 4 epochs of 3 samples make 12"),
        (tnn_payload, load_model, ("stats", 0), {"epochs": 0, "update_passes": 0},
         "training stats 0 'epochs' must be >= 1, got 0"),
        (mlp_payload, load_mlp, (), {"backward_passes": 13},
         "model training 'backward_passes' is 13, but 4 epochs of 3 samples make 12"),
        (mlp_payload, load_mlp, (), {"epochs": 0, "backward_passes": 10**9},
         "model training 'epochs' must be >= 1, got 0"),
        (tnn_payload, load_model, (), {"class_counts": {"d0": 0, "d1": 0}, "stats": [
            {"epochs": 3, "samples": 0, "update_passes": 0, "weight_updates": 0,
             "final_mse": 0.01}] * 3},
         "training stats 0 'samples' must be >= 1, got 0"),
        (mlp_payload, load_mlp, (),
         {"samples": 0, "backward_passes": 0, "class_counts": {"d0": 0, "d1": 0}},
         "model training 'samples' must be >= 1, got 0"),
        (tnn_payload, load_model, ("stats", 0), {"weight_updates": 7},
         "training stats 0 'weight_updates' is 7, but 12 update passes over 6 linked "
         "weights make 72"),
        (mlp_payload, load_mlp, (), {"class_counts": {"d0": 1, "d1": 0}},
         "model training 'class_counts' total 1 documents, but model training has 3 samples"),
    ],
    ids=["tnn-passes", "tnn-epochs", "mlp-passes", "mlp-epochs", "tnn-no-samples",
         "mlp-no-samples", "tnn-weight-updates", "mlp-class-counts"],
)
def test_loaders_refuse_a_pass_count_the_record_contradicts(payload, load, record, changes,
                                                             message, tmp_path):
    # training makes one pass per sample per epoch, runs at least one epoch on at
    # least one sample, applies every linked weight on each update pass and trains
    # once on each document its class counts name
    payload = payload()
    node = payload["training"]
    for key in record:
        node = node[key]
    node.update(changes)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        load(path)


DROP = object()


@pytest.mark.parametrize(
    "payload, load, path, value, message",
    [
        # amount_area feeds no address block in the default topology
        (lambda: model_to_dict(TnnModel.create(default_config(), seed=1)), model_from_dict,
         ("layer_networks", 0, "weights", 0, 2), 0.5,
         "non-zero weight on a pair the topology does not link"),
        (tnn_payload, model_from_dict, ("layer_networks", 2, "weights", 1), DROP,
         "layer network 2 'weights' has shape (1, 2), expected (2, 2)"),
        (tnn_payload, model_from_dict, ("layer_networks", 1, "thresholds", 0), DROP,
         "layer network 1 'thresholds' has shape (1,), expected (2,)"),
        (tnn_payload, model_from_dict, ("layer_networks", 0), DROP,
         "expected 3 layer networks, found 2"),
        (tnn_payload, model_from_dict, ("layer_networks",), [],
         "expected 3 layer networks, found 0"),
        (tnn_payload, model_from_dict, ("layer_networks",), DROP,
         "model file missing 'layer_networks'"),
        (mlp_payload, mlp_from_dict, ("layers", 2), DROP, "expected 3 dense layers, found 2"),
        (mlp_payload, mlp_from_dict, ("layers", 0, "weights", 0), DROP,
         "dense layer 0 'weights' has shape (2, 2), expected (3, 2)"),
        (mlp_payload, mlp_from_dict, ("layers", 1, "biases"), [0.0, 0.0, 0.0],
         "dense layer 1 'biases' has shape (3,), expected (2,)"),
        (mlp_payload, mlp_from_dict, ("layers",), DROP, "model file missing 'layers'"),
    ],
    ids=["tnn-unlinked-weight", "tnn-weight-shape", "tnn-threshold-shape", "tnn-layer-count",
         "tnn-no-layers", "tnn-layers-missing", "mlp-layer-count", "mlp-weight-shape",
         "mlp-bias-shape", "mlp-layers-missing"],
)
def test_loaders_refuse_layers_the_config_contradicts(payload, load, path, value, message):
    # each layer must have the names, shape and links of the model that
    # ``create`` builds from the file's config
    payload = payload()
    *parents, last = path
    node = payload
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        load(payload)


# the desk pair as the trainers wrote it at format version 1 (README's gen-corpus
# command, both networks --seed 1)
MODEL_FILES_V1 = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, load, save", [("desk_tnn_v1.json", load_model, save_model),
                                              ("desk_mlp_v1.json", load_mlp, save_mlp)])
def test_version_1_model_files_load_and_save_byte_for_byte(name, load, save, tmp_path):
    # every other round trip saves and loads in one session, which a reader and
    # writer changed together would pass; these files were written once
    written = MODEL_FILES_V1 / name
    save(load(written), tmp_path / name)
    assert (tmp_path / name).read_bytes() == written.read_bytes()


# --- the layout of each written record -----------------------------------------------

def test_written_record_keys_are_pinned():
    # the writers take each record's fields from its dataclass, so a field
    # added to a record enters the files; this makes that a visible change
    report = EvalReport(
        tnn_classes=(ClassRow("invoice", 2, 3, 1),),
        tnn_structures=(StructureRow("total", 3, 2),),
        tnn_confusion={},
        mlp_classes=(ClassRow("invoice", 2, 3, 3),),
        cost=CostComparison(tnn_update_passes=6, tnn_weight_updates=12, tnn_train_documents=2,
                            mlp_backward_passes=9, mlp_train_documents=2, tnn_epochs=(1, 1, 1),
                            mlp_epochs=3),
    )
    trace = ActivationTrace({"e": 0.5}, {"s": 0.5}, {"t": 0.5}, {"d": 0.5})
    result = RecognitionResult(
        status="recognized", winning_class="d", confidence=0.5, margin=0.5,
        structures=(StructureHit("t", 0.5, True),),
        passes=(PassRecord(levels={"e": 1}, trace=trace, blamed=()),),
    )
    class_row = {"name", "trained", "tested", "recognized", "rate"}
    structure_row = {"name", "tested", "recognized", "rate"}
    written = report_to_dict(report)
    for rows, keys in (
        ([*written["tnn"]["classes"], written["tnn"]["aggregate"],
          *written["mlp"]["classes"], written["mlp"]["aggregate"]], class_row),
        ([*written["tnn"]["structures"], written["tnn"]["structure_aggregate"]], structure_row),
    ):
        for row in rows:
            assert row.keys() == keys
    assert written["cost"].keys() == {
        "tnn_update_passes", "tnn_weight_updates", "tnn_train_documents", "tnn_epochs",
        "mlp_backward_passes", "mlp_train_documents", "mlp_epochs", "ratio",
    }
    written = result.to_dict()
    assert written["structures"][0].keys() == {"name", "activation", "linked_to_winner"}
    assert written["passes"][0].keys() == {"levels", "blamed", "activations"}
    assert written["passes"][0]["activations"].keys() == {
        "elements", "substructures", "structures", "documents",
    }
    training = tnn_payload()["training"]
    assert training.keys() == {"class_counts", "stats"}
    for stats in training["stats"]:
        assert stats.keys() == {"epochs", "samples", "update_passes", "weight_updates",
                                "final_mse"}
    assert mlp_payload()["training"].keys() == {
        "epochs", "samples", "backward_passes", "final_mse", "class_counts",
    }
    assert config_payload()["hyperparams"].keys() == {"mu", "epsilon", "max_epochs"}
