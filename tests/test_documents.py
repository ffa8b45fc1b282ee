import json

import pytest
from hypothesis import given, strategies as st

from doctnn import (
    CorpusError,
    DocumentInstance,
    ExtractorSpec,
    GroundTruth,
    NetworkConfig,
    Token,
    TokenKind,
    TopologyError,
    default_config,
    default_topology,
    load_config,
    load_corpus,
    save_config,
    save_corpus,
    token_kind,
)
from doctnn.topology import config_to_dict

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


def test_token_kind_rejects_empty():
    with pytest.raises(ValueError):
        token_kind("")


@given(st.text(min_size=1, max_size=12))
def test_token_kind_total_and_stable(text):
    first = token_kind(text)
    assert first in set(TokenKind)
    assert token_kind(text) is first


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(text="a", x=1.2, y=0.1, width=0.1, height=0.1),
        dict(text="a", x=0.1, y=-0.1, width=0.1, height=0.1),
        dict(text="a", x=0.1, y=0.1, width=0.0, height=0.1),
        dict(text="a", x=0.95, y=0.1, width=0.2, height=0.1),
        dict(text="", x=0.1, y=0.1, width=0.1, height=0.1),
    ],
)
def test_token_invariants(kwargs):
    with pytest.raises(ValueError):
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
    token = Token("Total", 0.5, 0.5, 0.08, 0.02)
    object.__setattr__(token, "x", float("nan"))  # past Token's own validation
    path = tmp_path / "corpus.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_corpus([DocumentInstance(id="d", tokens=(token,))], path)
    assert not path.exists()


def test_save_config_refuses_non_finite_values(tmp_path):
    config = default_config()
    extractors = dict(config.extractors)
    extractors["horizontal_alignment"] = ExtractorSpec(
        kind="horizontal_alignment", params={"align_tol": float("nan")}
    )
    path = tmp_path / "config.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
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
