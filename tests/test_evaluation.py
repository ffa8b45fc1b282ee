import dataclasses

import pytest

from doctnn import (
    EvalReport,
    ExtractorSpec,
    MlpTrainingStats,
    NetworkConfig,
    RecognizerParams,
    build_report,
    compare_training_cost,
    default_config,
    evaluate_mlp,
    evaluate_tnn,
    extract_all,
    generate_ambiguous,
    recognize,
    render_report,
    report_to_dict,
)
from doctnn import evaluation
from doctnn.evaluation import ClassRow, StructureRow
from doctnn.features import ALIGN_TOL
from doctnn.network import TnnTrainingSummary, TrainingStats


def test_perfect_classifier_on_resubstitution(clean_tnn, clean_corpus):
    rows, structs, confusion = evaluate_tnn(clean_tnn, clean_corpus)
    for row in rows:
        assert row.recognized == row.tested
        assert row.rate == 1.0
    for row in structs:
        assert row.recognized == row.tested
    for truth, preds in confusion.items():
        assert preds[truth] == sum(preds.values())


def test_always_rejecting_classifier_keeps_denominators(clean_tnn, clean_corpus):
    params = RecognizerParams(tau_accept=1.01)
    rows, structs, confusion = evaluate_tnn(clean_tnn, clean_corpus, params)
    for row in rows:
        assert row.recognized == 0
        assert row.tested > 0
        assert row.rate == 0.0
    assert all(preds["rejected"] == sum(preds.values()) for preds in confusion.values())
    # structures are still extracted for rejected documents
    assert any(row.recognized > 0 for row in structs)


def test_rates_are_exact_ratios():
    row = ClassRow(name="invoice", trained=4, tested=8, recognized=7)
    assert row.rate == 7 / 8
    assert ClassRow(name="x", trained=0, tested=0, recognized=0).rate is None


def test_aggregate_equals_column_sums(desk_tnn, desk_corpora):
    _, test = desk_corpora
    report = build_report(desk_tnn, test)
    agg = report.tnn_aggregate
    assert agg.tested == sum(r.tested for r in report.tnn_classes) == len(test)
    assert agg.recognized == sum(r.recognized for r in report.tnn_classes)
    sagg = report.structure_aggregate
    assert sagg.tested == sum(r.tested for r in report.tnn_structures)
    for truth, preds in report.tnn_confusion.items():
        tested = next(r.tested for r in report.tnn_classes if r.name == truth)
        assert sum(preds.values()) == tested


def test_recognized_never_exceeds_tested(desk_tnn, desk_corpora):
    _, test = desk_corpora
    rows, structs, _ = evaluate_tnn(desk_tnn, test)
    for row in (*rows, *structs):
        assert 0 <= row.recognized <= row.tested


def test_unlabeled_document_is_an_error(desk_tnn):
    from doctnn import DocumentInstance, MlpModel

    with pytest.raises(ValueError, match="'mystery'"):
        evaluate_tnn(desk_tnn, [DocumentInstance(id="mystery")])
    with pytest.raises(ValueError, match="'mystery'"):
        evaluate_mlp(MlpModel.create(default_config(), seed=0), [DocumentInstance(id="mystery")])


def test_evaluation_is_deterministic(desk_tnn, desk_corpora):
    _, test = desk_corpora
    first = evaluate_tnn(desk_tnn, test[:30])
    second = evaluate_tnn(desk_tnn, test[:30])
    assert first == second


def test_compare_training_cost_identical_stats():
    stats = TrainingStats(epochs=10, samples=10, update_passes=100, weight_updates=400, final_mse=0.001)
    summary = TnnTrainingSummary(stats=(stats, stats, stats), class_counts={"invoice": 10})
    mlp = MlpTrainingStats(epochs=30, samples=10, backward_passes=300, final_mse=0.001)
    assert compare_training_cost(summary, mlp).ratio == 1.0


def test_compare_training_cost_ratio_arithmetic():
    stats = TrainingStats(epochs=10, samples=10, update_passes=1000, weight_updates=0, final_mse=0.0)
    zero = TrainingStats(epochs=0, samples=0, update_passes=0, weight_updates=0, final_mse=0.0)
    summary = TnnTrainingSummary(stats=(stats, zero, zero), class_counts={})
    mlp = MlpTrainingStats(epochs=1, samples=1, backward_passes=10_000, final_mse=0.0)
    assert compare_training_cost(summary, mlp).ratio == 10.0


def test_render_report_handles_empty_denominators():
    report = EvalReport(
        tnn_classes=(ClassRow("invoice", 0, 0, 0),),
        tnn_structures=(StructureRow("table", 0, 0),),
        tnn_confusion={"invoice": {"invoice": 0, "rejected": 0}},
    )
    text = render_report(report)
    assert "n/a" in text


def test_render_report_mentions_all_sections(desk_tnn, desk_mlp, desk_corpora):
    _, test = desk_corpora
    report = build_report(desk_tnn, test[:30], mlp_model=desk_mlp, mlp_test_docs=test[:30])
    text = render_report(report)
    for needle in ("Document recognition", "Structure extraction", "Confusion",
                   "dense baseline", "Training cost"):
        assert needle in text


def test_shared_baseline_is_fed_level_one_values(desk_tnn, desk_mlp, desk_corpora,
                                                 monkeypatch):
    _, test = desk_corpora
    fixtures = generate_ambiguous(7, 24)
    # every fixture is refined twice, so a later pass's values are not level 1's
    assert all(len(recognize(desk_tnn, d).passes) == 3 for d in fixtures)
    fed = []
    real = evaluation.forward_mlp
    monkeypatch.setattr(evaluation, "forward_mlp",
                        lambda model, values: fed.append(values) or real(model, values))
    extractors = desk_mlp.config.element_extractors
    for docs in (test, fixtures):
        fed.clear()
        build_report(desk_tnn, docs, mlp_model=desk_mlp)
        assert fed == [extract_all(extractors, d) for d in docs]


def explicit_tol_baseline(mlp):
    """``mlp`` with one extractor spec that names its default ``align_tol``."""
    config = default_config()
    extractors = dict(config.extractors)
    extractors["horizontal_alignment"] = ExtractorSpec(
        kind="horizontal_alignment", params={"align_tol": ALIGN_TOL})
    other = NetworkConfig(topology=config.topology, extractors=extractors,
                          hyperparams=config.hyperparams)
    return dataclasses.replace(mlp, config=other)


@pytest.mark.parametrize("case", ["shared", "other_spec", "mlp_test_docs"])
def test_baseline_extracts_only_what_it_cannot_share(desk_tnn, desk_mlp, desk_corpora,
                                                     monkeypatch, case):
    _, test = desk_corpora
    docs = test[:100]
    mlp = explicit_tol_baseline(desk_mlp) if case == "other_spec" else desk_mlp
    mlp_docs = docs[::-1] if case == "mlp_test_docs" else None
    extracted = []
    real = evaluation.extract_all
    monkeypatch.setattr(evaluation, "extract_all",
                        lambda extractors, doc: extracted.append(doc) or real(extractors, doc))
    report = build_report(desk_tnn, docs, mlp_model=mlp, mlp_test_docs=mlp_docs)
    assert len(extracted) == (0 if case == "shared" else len(docs))
    # the report of separately called evaluations, in EvalReport's field order
    expected = EvalReport(*evaluate_tnn(desk_tnn, docs), *evaluate_mlp(mlp, mlp_docs or docs),
                          compare_training_cost(desk_tnn.training, mlp.training))
    assert report_to_dict(report) == report_to_dict(expected)
