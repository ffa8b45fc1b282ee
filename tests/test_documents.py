import hashlib
import json
import re
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from doctnn import (
    CorpusError,
    DocumentInstance,
    EvalReport,
    ExtractorSpec,
    GroundTruth,
    MlpModel,
    MlpTrainingStats,
    ModelFormatError,
    NetworkConfig,
    TnnModel,
    TnnTrainingSummary,
    Token,
    TokenKind,
    TopologyError,
    TrainingStats,
    default_config,
    default_topology,
    generate_ambiguous,
    load_config,
    load_corpus,
    load_mlp,
    load_model,
    report_to_dict,
    save_config,
    save_corpus,
    token_kind,
)
from doctnn.documents import corpus_to_dict, write_json
from doctnn.evaluation import ClassRow, CostComparison, StructureRow
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
]


# the ids name each case by its position, as the suite has always reported them
@pytest.mark.parametrize("kwargs, message", TOKEN_ERRORS,
                         ids=[f"kwargs{i}" for i in range(len(TOKEN_ERRORS))])
def test_token_invariants(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Token(**kwargs)


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


def test_save_corpus_refuses_non_finite_values(tmp_path):
    path = tmp_path / "corpus.json"
    for field in ("x", "y", "width", "height"):
        for value in (float("nan"), float("inf"), float("-inf")):
            token = Token("Total", 0.5, 0.5, 0.08, 0.02)
            object.__setattr__(token, field, value)  # past Token's own validation
            with pytest.raises(ValueError, match="not JSON compliant"):
                save_corpus([DocumentInstance(id="d", tokens=(token,))], path)
            assert not path.exists()


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
# json writes an int or bool coordinate as it is: 0 as 0, False as false
POSITION = st.floats(0.0, 0.5) | st.sampled_from([0, False])
EXTENT = st.floats(0.001, 0.5)
BOX = st.tuples(POSITION, POSITION, EXTENT, EXTENT) | st.sampled_from([(0, 0, 1, 1),
                                                                       (False, 0, True, 1)])
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
    stats = TrainingStats(epochs=4, samples=3, update_passes=12, weight_updates=48,
                          final_mse=0.01)
    model.training = TnnTrainingSummary(stats=(stats,) * 3, class_counts={"d0": 2, "d1": 1})
    return model_to_dict(model)


def mlp_payload():
    model = MlpModel.create(dense_config((3, 2, 2, 2)), seed=1)
    model.training = MlpTrainingStats(epochs=4, samples=3, backward_passes=12, final_mse=0.01,
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
    ],
    ids=["tnn-passes", "tnn-epochs", "mlp-passes", "mlp-epochs"],
)
def test_loaders_refuse_a_pass_count_the_record_contradicts(payload, load, record, changes,
                                                             message, tmp_path):
    # training makes one pass per sample per epoch and runs at least one epoch
    payload = payload()
    node = payload["training"]
    for key in record:
        node = node[key]
    node.update(changes)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        load(path)


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
