from dataclasses import fields

import numpy as np
import pytest

from doctnn import (
    DocumentInstance,
    ExtractorSpec,
    Hyperparams,
    MlpModel,
    NetworkConfig,
    RecognizerParams,
    TnnModel,
    Topology,
    blame_elements,
    blame_scores,
    build_report,
    default_config,
    extract_structures,
    forward_tnn,
    generate_ambiguous,
    recognize,
    train_mlp,
    train_tnn,
)
from doctnn import features
from doctnn.network import ActivationTrace


def toy_model(links, layers, weights=None):
    topology = Topology(
        elements=layers[0],
        substructures=layers[1],
        structures=layers[2],
        documents=layers[3],
        links=frozenset(links),
    )
    config = NetworkConfig(
        topology=topology,
        extractors={n: ExtractorSpec(kind="isolated_block") for n in layers[0]},
    )
    model = TnnModel.create(config, seed=0)
    if weights is not None:
        for net, values in zip(model.nets, weights):
            net.weights[:] = np.asarray(values) * net.mask
    return model


def two_element_model():
    layers = (("e0", "e1"), ("s0",), ("t0",), ("d0", "d1"))
    links = [("e0", "s0"), ("e1", "s0"), ("s0", "t0"), ("t0", "d0"), ("t0", "d1")]
    weights = [[[0.8], [0.8]], [[-0.5]], [[0.7, 0.3]]]
    return toy_model(links, layers, weights)


def trace_for(model, elements):
    return forward_tnn(model, elements)


# --- blame -------------------------------------------------------------------

def test_saturated_element_is_never_blamed_first():
    model = two_element_model()
    trace = trace_for(model, {"e0": 1.0, "e1": 0.6})
    scores = blame_scores(trace, model, ("d0", "d1"))
    assert scores["e0"] == 0.0
    assert scores["e1"] > 0.0
    assert blame_elements(trace, model, ("d0", "d1"))[0] == "e1"


def test_element_without_path_to_contenders_scores_zero():
    layers = (("e0", "e2"), ("s0", "s1"), ("t0", "t1"), ("d0", "d1", "d2"))
    links = [
        ("e0", "s0"), ("e2", "s1"),
        ("s0", "t0"), ("s1", "t1"),
        ("t0", "d0"), ("t0", "d1"), ("t1", "d2"),
    ]
    model = toy_model(links, layers)
    trace = trace_for(model, {"e0": 0.5, "e2": 0.5})
    scores = blame_scores(trace, model, ("d0", "d1"))
    assert scores["e2"] == 0.0
    assert "e2" not in blame_elements(trace, model, ("d0", "d1"))


def brute_force_paths(model, element, targets):
    topo = model.topology
    weight_of = {}
    for net in model.nets:
        for i, src in enumerate(net.input_names):
            for j, dst in enumerate(net.output_names):
                if net.mask[i, j]:
                    weight_of[(src, dst)] = abs(net.weights[i, j])
    outgoing = {}
    for (src, dst), w in weight_of.items():
        outgoing.setdefault(src, []).append((dst, w))

    def walk(node, product):
        if node in targets:
            return product
        return sum(walk(nxt, product * w) for nxt, w in outgoing.get(node, []))

    return walk(element, 1.0)


def test_blame_matches_brute_force_path_products():
    model = two_element_model()
    trace = trace_for(model, {"e0": 0.7, "e1": 0.4})
    scores = blame_scores(trace, model, ("d0", "d1"))
    for name in ("e0", "e1"):
        uncertainty = 1.0 - abs(2.0 * trace.elements[name] - 1.0)
        expected = uncertainty * brute_force_paths(model, name, {"d0", "d1"})
        assert scores[name] == pytest.approx(expected, abs=1e-12)


def test_blame_skips_elements_without_unexploited_levels():
    model = two_element_model()
    trace = trace_for(model, {"e0": 0.5, "e1": 0.5})
    blamed = blame_elements(
        trace, model, ("d0", "d1"),
        levels={"e0": 1, "e1": 2},
        max_levels={"e0": 1, "e1": 3},
    )
    assert blamed == ["e1"]


# --- structure extraction ---------------------------------------------------------

def fixed_trace(structures):
    return ActivationTrace(elements={}, substructures={}, structures=structures, documents={})


def test_extract_structures_below_threshold_is_empty():
    model = two_element_model()
    trace = fixed_trace({"t0": 0.2})
    assert extract_structures(trace, model, "d0", tau_struct=0.5) == ()


def test_extract_structures_flags_positive_link_to_winner():
    model = two_element_model()
    model.nets[2].weights[:] = [[0.9, -0.4]]
    trace = fixed_trace({"t0": 0.9})
    hits = extract_structures(trace, model, "d0", tau_struct=0.5)
    assert [(h.name, h.linked_to_winner) for h in hits] == [("t0", True)]
    hits = extract_structures(trace, model, "d1", tau_struct=0.5)
    assert [(h.name, h.linked_to_winner) for h in hits] == [("t0", False)]


def test_extract_structures_without_winner_has_no_flags():
    model = two_element_model()
    trace = fixed_trace({"t0": 0.9})
    hits = extract_structures(trace, model, None, tau_struct=0.5)
    assert len(hits) == 1
    assert hits[0].linked_to_winner is None


# --- the recognition loop -----------------------------------------------------------

def test_clean_invoice_recognized_in_one_pass(desk_tnn, desk_corpora):
    _, test = desk_corpora
    invoice = next(
        d for d in test
        if d.labels.document_class == "invoice" and "total" in d.labels.structures
        and "address" in d.labels.structures
    )
    result = recognize(desk_tnn, invoice)
    assert result.status == "recognized"
    assert result.winning_class == "invoice"
    assert len(result.passes) == 1
    names = {h.name for h in result.structures}
    assert {"table", "total"} <= names


def test_empty_document_is_rejected(desk_tnn):
    result = recognize(desk_tnn, DocumentInstance(id="void"))
    assert result.status == "rejected"
    assert result.winning_class is None
    assert 0.0 < result.confidence < 1.0
    assert isinstance(result.structures, tuple)


def test_ambiguous_fixture_needs_extra_passes(desk_tnn):
    fixture = generate_ambiguous(7, 4)
    resolved = 0
    for document in fixture:
        result = recognize(desk_tnn, document)
        if result.status == "recognized":
            assert len(result.passes) > 1
            assert result.winning_class == document.labels.document_class
            resolved += 1
    assert resolved > 0


def test_pass_budget_and_level_monotonicity(desk_tnn):
    params = RecognizerParams(max_passes=3)
    for document in generate_ambiguous(3, 4):
        result = recognize(desk_tnn, document, params)
        assert len(result.passes) <= 3
        previous = {name: 1 for name in result.passes[0].levels}
        for record in result.passes:
            for name, level in record.levels.items():
                assert 1 <= level <= 3
                assert level >= previous[name]
            previous = record.levels


def test_refinement_touches_only_blamed_elements(desk_tnn):
    for document in generate_ambiguous(9, 4):
        result = recognize(desk_tnn, document)
        for before, after in zip(result.passes, result.passes[1:]):
            changed = {
                name
                for name, value in after.trace.elements.items()
                if value != before.trace.elements[name]
            }
            assert changed <= set(before.blamed)


def test_first_pass_acceptance_equals_plain_forward(desk_tnn, desk_corpora):
    _, test = desk_corpora
    params = RecognizerParams()
    document = next(d for d in test if d.labels.document_class == "form")
    result = recognize(desk_tnn, document, params)
    assert len(result.passes) == 1
    from doctnn import extract_all

    extractors = desk_tnn.build_extractors()
    trace = forward_tnn(desk_tnn, extract_all(extractors, document))
    assert trace.documents == result.passes[0].trace.documents
    plain = extract_structures(trace, desk_tnn, result.winning_class, params.tau_struct)
    assert plain == result.structures


def token_fields(token):
    # tokens are slotted, so they have no vars(); every field, kind included
    return {f.name: getattr(token, f.name) for f in fields(token)}


def test_recognize_leaves_document_and_tokens_unchanged(desk_tnn, desk_corpora):
    _, test = desk_corpora
    # the ambiguous fixtures take three passes, so every level is read
    for document in test[:5] + generate_ambiguous(7, 2):
        before = dict(vars(document))
        tokens_before = [token_fields(t) for t in document.tokens]
        recognize(desk_tnn, document)
        assert vars(document) == before
        assert [token_fields(t) for t in document.tokens] == tokens_before


def test_recognition_is_deterministic(desk_tnn, desk_corpora):
    _, test = desk_corpora
    document = test[0]
    assert recognize(desk_tnn, document) == recognize(desk_tnn, document)


def test_reported_structures_respect_threshold(desk_tnn, desk_corpora):
    _, test = desk_corpora
    params = RecognizerParams(tau_struct=0.7)
    for document in test[:20]:
        result = recognize(desk_tnn, document, params)
        assert all(h.activation >= 0.7 for h in result.structures)


def test_max_passes_one_disables_refinement(desk_tnn):
    params = RecognizerParams(max_passes=1)
    for document in generate_ambiguous(5, 4):
        result = recognize(desk_tnn, document, params)
        assert len(result.passes) == 1


def test_result_serialization_shape(desk_tnn, desk_corpora):
    _, test = desk_corpora
    payload = recognize(desk_tnn, test[0]).to_dict()
    assert payload["status"] in ("recognized", "rejected")
    assert set(payload["passes"][0]["activations"]) == {
        "elements", "substructures", "structures", "documents",
    }


# --- extractors owned by the config ---------------------------------------------------

def test_config_builds_each_extractor_once(desk_tnn, desk_corpora, monkeypatch):
    built = []
    real = features.build_extractor
    monkeypatch.setattr(features, "build_extractor",
                        lambda name, spec: built.append(name) or real(name, spec))
    config = default_config()
    short = NetworkConfig(config.topology, config.extractors, Hyperparams(max_epochs=3))
    assert built == list(config.topology.elements) * 2
    built.clear()
    train, test = desk_corpora
    train_tnn(TnnModel.create(config, seed=1), train[:12])
    mlp = MlpModel.create(short, seed=1)
    train_mlp(mlp, train[:12])
    for document in test[:5] + generate_ambiguous(7, 2):
        recognize(desk_tnn, document)
    build_report(desk_tnn, test[:5], mlp_model=mlp)
    assert built == []


def test_recognize_defaults_to_the_prebuilt_path(desk_tnn, desk_corpora):
    _, test = desk_corpora
    extractors = desk_tnn.build_extractors()
    assert extractors is desk_tnn.config.element_extractors
    for document in test[:20] + generate_ambiguous(7, 4):
        assert recognize(desk_tnn, document) == recognize(
            desk_tnn, document, RecognizerParams(), extractors)


def test_recognize_refuses_extractors_missing_an_element(desk_tnn, desk_corpora):
    _, test = desk_corpora
    extractors = dict(desk_tnn.build_extractors())
    del extractors["date_indicator"]
    with pytest.raises(ValueError, match="date_indicator"):
        recognize(desk_tnn, test[0], extractors=extractors)
