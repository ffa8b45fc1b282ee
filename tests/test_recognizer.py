import hashlib
import json
import sys
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
from doctnn import features, recognizer
from doctnn.recognizer import DEFAULT_PARAMS
from doctnn.features import DocumentView, ElementExtractor, Tally
from doctnn.network import ActivationTrace, model_from_dict, model_to_dict


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


def scores_for(model, trace):
    return blame_scores(trace, model, ("d0", "d1"), recognizer._abs_path_weights(model))


def first_pass_blame(model, trace):
    """Blame as on a first pass: every element at level 1 and refinable to level 3."""
    elements = model.topology.elements
    return blame_elements(trace, model, ("d0", "d1"), dict.fromkeys(elements, 1),
                          dict.fromkeys(elements, 3), recognizer._abs_path_weights(model))


# --- blame -------------------------------------------------------------------

def test_saturated_element_is_never_blamed_first():
    model = two_element_model()
    trace = trace_for(model, {"e0": 1.0, "e1": 0.6})
    scores = scores_for(model, trace)
    assert scores["e0"] == 0.0
    assert scores["e1"] > 0.0
    assert first_pass_blame(model, trace)[0] == "e1"


def test_element_without_path_to_contenders_scores_zero():
    layers = (("e0", "e2"), ("s0", "s1"), ("t0", "t1"), ("d0", "d1", "d2"))
    links = [
        ("e0", "s0"), ("e2", "s1"),
        ("s0", "t0"), ("s1", "t1"),
        ("t0", "d0"), ("t0", "d1"), ("t1", "d2"),
    ]
    model = toy_model(links, layers)
    trace = trace_for(model, {"e0": 0.5, "e2": 0.5})
    scores = scores_for(model, trace)
    assert scores["e2"] == 0.0
    assert "e2" not in first_pass_blame(model, trace)


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
    scores = scores_for(model, trace)
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
        paths=recognizer._abs_path_weights(model),
    )
    assert blamed == ["e1"]


def test_overflowing_path_sum_is_infinite_and_blamed_first():
    layers = (("e0", "e1"), ("s0",), ("t0", "t1"), ("d0", "d1"))
    links = [("e0", "s0"), ("e1", "s0"), ("s0", "t0"), ("s0", "t1"),
             ("t0", "d0"), ("t1", "d1")]
    # e0's sum to t0 overflows, and t0 has no link to d1: inf * 0 would be NaN
    weights = [[[1e308], [0.5]], [[10.0, 0.5]], [[2.0, 0.0], [0.0, 0.5]]]
    model = toy_model(links, layers, weights)
    paths = recognizer._abs_path_weights(model)
    assert paths[0].tolist() == [np.inf, 0.5 * 0.5 * 1e308]
    assert first_pass_blame(model, trace_for(model, {"e0": 0.5, "e1": 0.5}))[0] == "e0"


def test_equal_blame_scores_come_out_in_element_order():
    # b and a score exactly alike (uncertainty 0.5, the same paths), below x;
    # the topology lists b before a, against their alphabetical order
    layers = (("b", "x", "a"), ("s0",), ("t0",), ("d0", "d1"))
    links = [("b", "s0"), ("x", "s0"), ("a", "s0"), ("s0", "t0"), ("t0", "d0"), ("t0", "d1")]
    model = toy_model(links, layers, [[[0.5], [0.5], [0.5]], [[0.5]], [[0.5, 0.5]]])
    trace = trace_for(model, {"b": 0.25, "x": 0.5, "a": 0.75})
    scores = scores_for(model, trace)
    assert scores["b"] == scores["a"] < scores["x"]
    assert first_pass_blame(model, trace) == ["x", "b", "a"]


def masked_path_weights(model):
    """The path weights with every |W| masked by the links, which the unmasked sum must equal."""
    product = np.abs(model.nets[0].weights * model.nets[0].mask)
    product = product @ np.abs(model.nets[1].weights * model.nets[1].mask)
    product = np.minimum(product, np.finfo(np.float64).max)
    return product @ np.abs(model.nets[2].weights * model.nets[2].mask)


def test_path_weights_equal_the_masked_product_bit_for_bit(desk_tnn):
    paths = recognizer._abs_path_weights(desk_tnn)
    assert paths.tobytes() == masked_path_weights(desk_tnn).tobytes()


def test_model_file_with_huge_weight_recognizes_without_warning(desk_tnn):
    # the suite makes a RuntimeWarning an error, so an overflow in blame fails here
    payload = model_to_dict(desk_tnn)
    i, j = (int(k) for k in np.argwhere(desk_tnn.nets[0].mask)[0])
    payload["layer_networks"][0]["weights"][i][j] = 1e308
    model = model_from_dict(payload)
    element = model.topology.elements[i]
    blames = 0
    for document in generate_ambiguous(7, 24):
        for record in recognize(model, document).passes:
            if record.blamed:
                assert record.blamed[0] == element
                blames += 1
    assert blames == 48


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


def test_extract_structures_reports_a_structure_at_exactly_tau_struct():
    model = two_element_model()
    tau = 0.5
    hits = extract_structures(fixed_trace({"t0": tau}), model, "d0", tau_struct=tau)
    assert [(h.name, h.activation) for h in hits] == [("t0", tau)]
    below = float(np.nextafter(tau, 0.0))
    assert extract_structures(fixed_trace({"t0": below}), model, "d0", tau_struct=tau) == ()


def test_extract_structures_does_not_flag_a_linked_zero_weight():
    model = two_element_model()
    assert model.nets[2].mask.all()
    model.nets[2].weights[:] = [[0.0, 0.4]]
    hits = extract_structures(fixed_trace({"t0": 0.9}), model, "d0", tau_struct=0.5)
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


def counted_forwards(monkeypatch):
    """The element vector of each ``recognizer.forward_tnn`` call from now on."""
    calls = []
    real = recognizer.forward_tnn

    def forward(model, elements):
        calls.append(dict(elements))
        return real(model, elements)

    monkeypatch.setattr(recognizer, "forward_tnn", forward)
    return calls


def test_a_pass_that_confirmed_every_value_keeps_the_propagation(desk_tnn, desk_corpora,
                                                                 monkeypatch):
    calls = counted_forwards(monkeypatch)
    # letter-0225's pass 2 raises three elements that confirm their level-1
    # values; its pass 3 raises two that change
    letter = next(d for d in desk_corpora[1] if d.id == "letter-0225")
    first, second, third = recognize(desk_tnn, letter).passes
    assert second.levels != first.levels and second.trace == first.trace
    assert third.trace.elements != second.trace.elements
    assert third.trace == forward_tnn(desk_tnn, third.trace.elements)
    assert calls == [first.trace.elements, third.trace.elements]
    # on the fixtures, a pass propagates exactly when a value changed
    calls.clear()
    repeats = 0
    for document in generate_ambiguous(7, 24):
        passes = recognize(desk_tnn, document).passes
        propagated = [passes[0].trace.elements]
        for before, after in zip(passes, passes[1:]):
            if after.trace.elements == before.trace.elements:
                assert after.trace == before.trace
                repeats += 1
            else:
                assert after.trace == forward_tnn(desk_tnn, after.trace.elements)
                propagated.append(after.trace.elements)
        assert calls[-len(propagated):] == propagated
    assert repeats > 0 and len(calls) == 72 - repeats


def test_recognize_takes_the_accept_rule_from_the_module(desk_tnn, desk_corpora, monkeypatch):
    # an experiment swaps the accept rule as criterion 10 swaps blame_elements
    rule = recognizer.accepts

    def ruling(accepted):
        def swapped(*args):
            confidence, margin, _ = rule(*args)
            return confidence, margin, accepted
        return swapped

    fixtures = generate_ambiguous(7, 24)
    monkeypatch.setattr(recognizer, "accepts", ruling(False))
    for document in fixtures:
        result = recognize(desk_tnn, document)
        assert result.status == "rejected"
        assert len(result.passes) == DEFAULT_PARAMS.max_passes
    monkeypatch.setattr(recognizer, "accepts", ruling(True))
    for document in (*fixtures, *desk_corpora[1]):
        result = recognize(desk_tnn, document)
        assert result.status == "recognized"
        assert len(result.passes) == 1


@pytest.mark.parametrize("votes, accepted", [
    ({"d0": 0.75, "d1": 0.5}, True),     # both thresholds met exactly
    ({"d0": 0.75, "d1": 0.625}, False),  # confident, but the runner-up is too close
    ({"d0": 0.625, "d1": 0.25}, False),  # a clear margin, but not confident
])
def test_accepts_needs_confidence_and_margin(votes, accepted):
    trace = ActivationTrace(elements={}, substructures={}, structures={}, documents=votes)
    params = RecognizerParams(tau_accept=0.75, tau_margin=0.25)
    assert recognizer.accepts(trace, "d0", "d1", params, True) == (
        votes["d0"], votes["d0"] - votes["d1"], accepted)
    assert recognizer.accepts(trace, "d0", "d1", params, False)[2] is False
    # a lone class has no runner-up: its margin is its confidence
    assert recognizer.accepts(trace, "d0", "d0", params, True)[1] == votes["d0"]


def test_margin_is_the_top_two_difference(desk_tnn, desk_corpora):
    _, test = desk_corpora
    result = recognize(desk_tnn, test[0])
    first, second = sorted(result.passes[-1].trace.documents.values(), reverse=True)[:2]
    assert result.confidence == first
    assert result.margin == first - second > 0.0


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
        # the last pass blames nothing: no pass is left to raise a level for
        assert result.status == "rejected" and result.passes[0].blamed == ()


def test_result_serialization_shape(desk_tnn, desk_corpora):
    _, test = desk_corpora
    payload = recognize(desk_tnn, test[0]).to_dict()
    assert payload["status"] in ("recognized", "rejected")
    assert set(payload["passes"][0]["activations"]) == {
        "elements", "substructures", "structures", "documents",
    }


# recognize's whole output on the desk test set and the ambiguous fixtures:
# every pass's levels, blamed elements and activations, each float written as
# its exact repr; a change to forward, blame or structure reporting that moves
# a single bit of any result shows here
RECOGNIZE_OUTPUT_SHA256 = "94ac7ecdcf108df72ac872fdead0c33d2fedc6161b68d8894c439c81555bd88f"


def test_recognize_output_bytes_are_pinned(desk_tnn, desk_corpora):
    _, test = desk_corpora
    results = [recognize(desk_tnn, d).to_dict() for d in test + generate_ambiguous(7, 24)]
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RECOGNIZE_OUTPUT_SHA256


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


# --- each level computed once per recognize call ---------------------------------------

def evaluation_log(model, documents):
    """Each result's dict, and the (document id, element, level, value, visits)
    of every evaluation, in call order."""
    log = []
    original = ElementExtractor.evaluate

    def evaluate(extractor, doc, level, tally=None):
        meter = tally if tally is not None else Tally()
        before = meter.visits
        value = original(extractor, doc, level, meter)
        log.append((doc.id, extractor.name, level, value, meter.visits - before))
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ElementExtractor, "evaluate", evaluate)
        results = [recognize(model, document).to_dict() for document in documents]
    return results, log


# the intermediates that two levels of an element share: (element, function name)
SHARED_INTERMEDIATES = (
    ("amount_area", "amount_region"),
    ("amount_area", "numeric_grid"),
    ("code_area", "band"),
    ("code_area", "candidate_column"),
    ("designation_zone", "band"),
    ("keywords_address", "keywords_found"),
    ("text_block", "best_run"),
)


# every gated level is the same inner function of features._gate
GATE_CODE = features._gate(None, None).__code__


def level_work(level_fn):
    """The function that does a level's own work: a gated level's predicate."""
    if level_fn.__code__ is not GATE_CODE:
        return level_fn
    cells = dict(zip(GATE_CODE.co_freevars, level_fn.__closure__))
    return cells["holds"].cell_contents


def shared_intermediates(extractors):
    """The code object of each shared intermediate, found in the closures of
    its levels' own work."""
    found = {}
    for name, fn_name in SHARED_INTERMEDIATES:
        for level in extractors[name].levels:
            for cell in level_work(level).__closure__ or ():
                fn = cell.cell_contents
                if getattr(fn, "__name__", None) == fn_name:
                    found[fn.__code__] = (name, fn_name)
    assert sorted(found.values()) == list(SHARED_INTERMEDIATES)
    return found


def watched_runs(watched, call):
    """``call()``'s result, and the name of each run of a watched code object
    during it, in order."""
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            runs.append(watched[frame.f_code])

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, runs


def test_recognize_runs_each_level_once_per_call(desk_tnn, desk_corpora):
    fixture = generate_ambiguous(7, 24)
    extractors = desk_tnn.config.element_extractors
    level_of = {level_work(fn).__code__: (name, level)
                for name, extractor in extractors.items()
                for level, fn in enumerate(extractor.levels, start=1)}
    # each kind backs one element, so a level's code object names one function
    assert len(level_of) == sum(e.max_level for e in extractors.values())
    intermediates = shared_intermediates(extractors)
    level_of.update(intermediates)
    for document in fixture:
        result, runs = watched_runs(level_of, lambda: recognize(desk_tnn, document))
        assert len(result.passes) == 3
        assert runs and len(set(runs)) == len(runs)
    # blame never raises some elements past level 1 on the fixtures, so raise
    # every element through all its levels, twice, on one view per document
    _, test = desk_corpora
    seen = set()
    for document in test + fixture:
        view = DocumentView(document)

        def raise_all():
            for _ in range(2):
                for extractor in extractors.values():
                    for level in range(1, extractor.max_level + 1):
                        extractor.evaluate(view, level)

        _, runs = watched_runs(level_of, raise_all)
        assert len(set(runs)) == len(runs)
        seen.update(runs)
    # every level and shared intermediate ran, so no run-once check is vacuous
    assert seen == set(level_of.values())
    # every evaluation is still asked for and charged as before
    _, log = evaluation_log(desk_tnn, fixture)
    assert len(log) == 720
    assert sum(visits for *_, visits in log) == 50_148


# the token visits each (element, level) charged over recognize on the desk
# test set and on the ambiguous fixtures, as the memo charged them before any
# level or intermediate was served from it; a reading that moves into or out
# of the memo must leave every total here
VISIT_TOTALS = {
    "desk": {
        ("amount_area", 1): 17640, ("amount_area", 2): 1799, ("amount_area", 3): 346,
        ("code_area", 1): 13405, ("code_area", 2): 1283, ("code_area", 3): 314,
        ("date_indicator", 1): 14083, ("designation_zone", 1): 14083,
        ("horizontal_alignment", 1): 14083, ("isolated_block", 1): 14083,
        ("keywords_address", 1): 28166,
        ("keywords_total", 1): 13618, ("keywords_total", 2): 1395,
        ("text_block", 1): 13943, ("text_block", 2): 280,
        ("vertical_alignment", 1): 13937, ("vertical_alignment", 2): 292,
    },
    "fixtures": {
        ("amount_area", 1): 1409, ("amount_area", 2): 2962, ("amount_area", 3): 4515,
        ("code_area", 1): 1353, ("code_area", 2): 2681, ("code_area", 3): 2612,
        ("date_indicator", 1): 3219, ("designation_zone", 1): 3219,
        ("horizontal_alignment", 1): 3219, ("isolated_block", 1): 3219,
        ("keywords_address", 1): 6438,
        ("keywords_total", 1): 1073, ("keywords_total", 2): 6438,
        ("text_block", 1): 3219,
        ("vertical_alignment", 1): 1866, ("vertical_alignment", 2): 2706,
    },
}


@pytest.mark.parametrize("documents", sorted(VISIT_TOTALS))
def test_visit_totals_per_level_are_pinned(desk_tnn, desk_corpora, documents):
    docs = desk_corpora[1] if documents == "desk" else generate_ambiguous(7, 24)
    _, log = evaluation_log(desk_tnn, docs)
    totals = {}
    for _, name, level, _, visits in log:
        totals[name, level] = totals.get((name, level), 0) + visits
    assert totals == VISIT_TOTALS[documents]


def test_blame_with_precomputed_paths_matches(desk_tnn, desk_corpora):
    _, test = desk_corpora
    paths = recognizer._abs_path_weights(desk_tnn)
    extractors = desk_tnn.config.element_extractors
    max_levels = {name: e.max_level for name, e in extractors.items()}
    blames = 0
    for document in test + generate_ambiguous(7, 24):
        for record in recognize(desk_tnn, document).passes:
            assert len(record.blamed) <= recognizer.BLAME_BUDGET
            if record.blamed:
                contenders = recognizer._top_two(record.trace.documents,
                                                 desk_tnn.topology.documents)
                assert list(record.blamed) == blame_elements(
                    record.trace, desk_tnn, contenders, record.levels, max_levels, paths)
                blames += 1
    assert blames > 24


def test_memo_matches_straight_through_levels(desk_tnn, desk_corpora):
    _, test = desk_corpora
    documents = test + generate_ambiguous(7, 24)
    memo = evaluation_log(desk_tnn, documents)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DocumentView, "value",
                      lambda view, level_fn, tally: level_fn(view, tally))
        straight = evaluation_log(desk_tnn, documents)
    assert memo == straight
