import json
from decimal import Decimal

import pytest

from doctnn import (
    GenSpec,
    Noise,
    build_extractors,
    default_config,
    default_topology,
    generate,
    generate_ambiguous,
    load_corpus,
    save_corpus,
)
from doctnn.documents import TokenKind, corpus_to_dict

CONFIG = default_config()
TOPOLOGY = default_topology()
EXTRACTORS = build_extractors(CONFIG.extractors)

DESK_COUNTS = {"invoice": 10, "form": 8, "letter": 8}


def test_same_seed_is_bit_identical():
    spec = GenSpec(seed=4, counts=DESK_COUNTS, noise=Noise(jitter=0.01, drop_rate=0.3, distort_rate=0.3))
    first = json.dumps(corpus_to_dict(generate(spec)), sort_keys=True)
    second = json.dumps(corpus_to_dict(generate(spec)), sort_keys=True)
    assert first == second


def test_different_seeds_differ():
    counts = {"invoice": 3, "form": 0, "letter": 0}
    a = generate(GenSpec(seed=1, counts=counts))
    b = generate(GenSpec(seed=2, counts=counts))
    assert corpus_to_dict(a) != corpus_to_dict(b)


def test_zero_noise_invoice_products_hold_exactly():
    docs = generate(GenSpec(seed=8, counts={"invoice": 6, "form": 0, "letter": 0}))
    for document in docs:
        assert document.labels.structures == {
            "header", "address", "invoice_body", "table", "total", "signature",
        }
        numeric = [t for t in document.tokens if t.kind is TokenKind.NUMERIC]
        columns = {}
        for token in numeric:
            columns.setdefault(round(token.x, 2), []).append(token)
        rows = {}
        for x in (0.56, 0.68, 0.82):
            for token in columns.get(x, []):
                rows.setdefault(round(token.y, 3), {})[x] = token.text
        checked = 0
        for cells in rows.values():
            if set(cells) == {0.56, 0.68, 0.82}:
                q = Decimal(cells[0.56])
                p = Decimal(cells[0.68])
                a = Decimal(cells[0.82])
                if q * p == a:
                    checked += 1
        assert checked >= 4  # every item row, totals rows never form a triple


def test_forcing_drop_rate_removes_signatures():
    spec = GenSpec(seed=3, counts=DESK_COUNTS, noise=Noise(drop_rate=1.0))
    docs = generate(spec)
    assert all("signature" not in d.labels.structures for d in docs)
    assert all("signature_block" not in d.labels.substructures for d in docs)


def test_generated_tokens_satisfy_invariants(tmp_path):
    spec = GenSpec(seed=6, counts=DESK_COUNTS, noise=Noise(jitter=0.02, drop_rate=0.2, distort_rate=0.2))
    docs = generate(spec)
    path = tmp_path / "corpus.json"
    save_corpus(docs, path)
    assert load_corpus(path, TOPOLOGY) == docs


def test_label_soundness_at_zero_noise():
    docs = generate(GenSpec(seed=10, counts=DESK_COUNTS))
    for document in docs:
        supported = 0
        for structure in document.labels.structures:
            elements = TOPOLOGY.upstream_elements(structure)
            best = max(
                EXTRACTORS[name].evaluate(document, EXTRACTORS[name].max_level)
                for name in elements
            )
            if best > 0.5:
                supported += 1
        assert supported >= 0.8 * len(document.labels.structures)


def test_labels_follow_what_was_placed():
    docs = generate(GenSpec(seed=13, counts={"invoice": 0, "form": 0, "letter": 20}))
    with_table = [d for d in docs if "table" in d.labels.structures]
    without = [d for d in docs if "table" not in d.labels.structures]
    assert with_table and without
    for document in with_table:
        assert "numeric_column_group" in document.labels.substructures
    for document in without:
        assert "numeric_column_group" not in document.labels.substructures


def test_counts_and_classes():
    docs = generate(GenSpec(seed=1, counts={"invoice": 2, "form": 3, "letter": 4}))
    by_class = {}
    for document in docs:
        by_class.setdefault(document.labels.document_class, []).append(document)
    assert {k: len(v) for k, v in by_class.items()} == {"invoice": 2, "form": 3, "letter": 4}
    assert len({d.id for d in docs}) == 9


def test_rejects_negative_counts():
    with pytest.raises(ValueError):
        GenSpec(seed=0, counts={"invoice": -1})
    with pytest.raises(ValueError):
        Noise(drop_rate=1.2)
    for jitter in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="jitter"):
            Noise(jitter=jitter)
    # a misspelt class and counts that only convert are refused, naming the key
    for counts, key in (
        ({"invoices": 5}, "invoices"),
        ({"invoice": 2.5}, "invoice"),
        ({"form": True}, "form"),
        ({"letter": "3"}, "letter"),
    ):
        with pytest.raises(ValueError, match=f"'{key}'"):
            GenSpec(seed=1, counts=counts)
    for seed in (True, "3", 2.5, -1):
        with pytest.raises(ValueError, match="seed"):
            GenSpec(seed=seed)
    for name, value in (
        ("drop_rate", True),
        ("distort_rate", "0.1"),
        ("jitter", "a"),
        ("jitter", False),
    ):
        with pytest.raises(ValueError, match=name):
            Noise(**{name: value})


def test_ambiguous_refuses_what_genspec_refuses():
    # a negative count gave an empty corpus, a fraction a bare TypeError, True seed 1
    for seed, count, message in (
        (7, -1, "count must be >= 0, got -1"),
        (7, 2.5, "count must be an integer, got 2.5"),
        (7, True, "count must be an integer, got True"),
        (7, "2", "count must be an integer, got '2'"),
        (True, 2, "seed must be an integer, got True"),
        (-1, 2, "seed must be >= 0, got -1"),
        (2.0, 2, "seed must be an integer, got 2.0"),
    ):
        with pytest.raises(ValueError) as caught:
            generate_ambiguous(seed, count)
        assert str(caught.value) == message
    assert generate_ambiguous(0, 0) == []


def test_ambiguous_corpus_is_deterministic_and_labeled():
    first = generate_ambiguous(7, 10)
    second = generate_ambiguous(7, 10)
    assert corpus_to_dict(first) == corpus_to_dict(second)
    assert len(first) == 10
    for document in first:
        assert document.labels.document_class in ("letter", "form")
        save = corpus_to_dict([document])  # invariants hold through serialization
        assert save["documents"][0]["labels"]["class"] == document.labels.document_class


def test_ambiguous_decoys_fail_the_product_gate():
    for document in generate_ambiguous(2, 4):
        assert EXTRACTORS["amount_area"].evaluate(document, 1) > 0.3
        assert EXTRACTORS["amount_area"].evaluate(document, 3) == 0.0
