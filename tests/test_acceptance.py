"""Acceptance suite: every headline claim of the artifact, one test per criterion.

The desk-scale run (train 40/36/26, test 120/90/40, jitter 0.005, drop 0.05,
distort 0.05) is shared through session fixtures with pinned seeds, so each
criterion is reproducible bit for bit. One PASS line is printed per criterion.
"""
import numpy as np

from doctnn import (
    GenSpec,
    Hyperparams,
    LayerNetwork,
    MlpModel,
    Noise,
    RecognizerParams,
    TnnModel,
    build_extractors,
    default_config,
    forward_tnn,
    generate,
    generate_ambiguous,
    load_corpus,
    recognize,
    save_corpus,
    save_model,
    train_nn1,
    train_tnn,
)
from doctnn import recognizer
from doctnn.evaluation import compare_training_cost, evaluate_mlp, evaluate_tnn
from doctnn.generator import DESK_MODEL_SEED, DESK_TEST_COUNTS, DESK_TEST_SEED
from conftest import (
    dense_config,
    max_gradient_error,
    measure,
)

AMBIGUOUS_SEED = 7
AMBIGUOUS_COUNT = 24


def report(line):
    print(f"PASS {line}")


def aggregate(rows):
    tested = sum(r.tested for r in rows)
    recognized = sum(r.recognized for r in rows)
    return recognized, tested, recognized / tested


def test_criterion_1_delta_rule_equation_fidelity():
    # one update at S_k = 0.5, desired 1, mu = 0.5, S_j = 1, W = 0.1
    rng = np.random.default_rng(0)
    net = LayerNetwork.create(("j",), ("k",), [("j", "k")], rng)
    net.weights[:] = [[0.1]]
    net.thresholds[:] = [0.1]  # pre-activation 0.1*1 - 0.1 = 0, so S_k = 0.5
    train_nn1(net, [[1.0]], [[1.0]], Hyperparams(mu=0.5, epsilon=0.0, max_epochs=1))
    assert net.weights[0, 0] == 0.1625
    report("criterion 1: delta-rule update yields W(t+1) = 0.1625 exactly")


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(100):
        model = MlpModel.create(dense_config((4, 3, 3, 2)), seed=trial)
        x = rng.uniform(0.0, 1.0, 4)
        t = rng.uniform(0.0, 1.0, 2)
        worst = max(worst, max_gradient_error(model, x, t))
    assert worst < 1e-4
    report(f"criterion 2: backprop matches finite differences, worst rel err {worst:.2e}")


def test_criterion_3_cascade_equivalence():
    config = default_config()
    rng = np.random.default_rng(99)
    mismatches = 0
    for trial in range(1000):
        model = TnnModel.create(config, seed=trial)
        elements = dict(zip(config.topology.elements, rng.uniform(0, 1, 10)))
        trace = forward_tnn(model, elements)
        x = np.array([elements[n] for n in config.topology.elements])
        for net, layer in zip(
            model.nets, ("substructures", "structures", "documents")
        ):
            x = net.forward(x)
            if list(getattr(trace, layer).values()) != x.tolist():
                mismatches += 1
    assert mismatches == 0
    report("criterion 3: forward pass equals three-layer composition on 1000 models")


def test_criterion_4_desk_scale_document_recognition(desk_tnn, desk_corpora):
    _, test = desk_corpora
    rows, _, _, _ = evaluate_tnn(desk_tnn, test)
    recognized, tested, rate = aggregate(rows)
    assert tested == 250
    assert rate >= 0.90
    report(f"criterion 4: document recognition {recognized}/{tested} = {rate:.1%} (>= 90%)")


def test_criterion_5_structure_extraction_and_rejects(desk_tnn, desk_corpora):
    _, test = desk_corpora
    _, structs, _, results = evaluate_tnn(desk_tnn, test)
    recognized, tested, rate = aggregate(structs)
    assert rate >= 0.85
    rejected_with_structures = 0
    for document, result in zip(test, results, strict=True):
        if result.status != "rejected":
            continue
        correct = {hit.name for hit in result.structures} & document.labels.structures
        if correct:
            rejected_with_structures += 1
    assert rejected_with_structures >= 1
    report(
        f"criterion 5: structure recognition {recognized}/{tested} = {rate:.1%} (>= 85%), "
        f"{rejected_with_structures} rejected doc(s) still yield correct structures"
    )


def test_criterion_6_baseline_ordering(desk_tnn, desk_mlp, desk_corpora):
    _, test = desk_corpora
    tnn_rows, _, _, _ = evaluate_tnn(desk_tnn, test)
    mlp_rows, _ = evaluate_mlp(desk_mlp, test)
    _, _, tnn_rate = aggregate(tnn_rows)
    _, _, mlp_rate = aggregate(mlp_rows)
    assert desk_tnn.training.trained_documents == desk_mlp.training.samples == 102
    assert tnn_rate >= mlp_rate
    report(f"criterion 6: same training set, {tnn_rate:.1%} (transparent) >= {mlp_rate:.1%} (baseline)")


def test_criterion_7_training_cost_ordering(desk_tnn, desk_mlp):
    cost = compare_training_cost(desk_tnn.training, desk_mlp.training)
    assert cost.ratio is not None and cost.ratio > 1.0
    report(
        f"criterion 7: baseline needed {cost.mlp_backward_passes} backward passes vs "
        f"{cost.tnn_update_passes} update passes, ratio {cost.ratio:.1f} (> 1, not asserted exact)"
    )


def test_criterion_8_refinement_efficacy(desk_tnn):
    fixture = generate_ambiguous(AMBIGUOUS_SEED, AMBIGUOUS_COUNT)
    assert len(fixture) >= 20
    extractors = desk_tnn.build_extractors()

    def rate(max_passes):
        good = 0
        for document in fixture:
            result = recognize(
                desk_tnn, document, RecognizerParams(max_passes=max_passes), extractors
            )
            good += (
                result.status == "recognized"
                and result.winning_class == document.labels.document_class
            )
        return good

    multi = rate(3)
    single = rate(1)
    assert multi > single
    report(
        f"criterion 8: ambiguous fixtures resolved {multi}/{len(fixture)} with refinement "
        f"vs {single}/{len(fixture)} without"
    )


def test_criterion_9_property_suites(tmp_path, desk_corpora):
    config = default_config()
    extractors = build_extractors(config.extractors)
    train, _ = desk_corpora

    # activation range: every layer stays strictly inside (0, 1)
    rng = np.random.default_rng(17)
    for trial in range(50):
        model = TnnModel.create(config, seed=trial + 500)
        trace = forward_tnn(model, dict(zip(config.topology.elements, rng.uniform(0, 1, 10))))
        for layer in ("substructures", "structures", "documents"):
            assert all(0.0 < v < 1.0 for v in getattr(trace, layer).values())

    # link-mask invariance before and after training
    net = LayerNetwork.create(("a", "b"), ("x",), [("a", "x")], np.random.default_rng(2))
    train_nn1(net, [(0.2, 0.9), (0.9, 0.2)], [(1.0,), (0.0,)], Hyperparams(max_epochs=100))
    assert net.weights[1, 0] == 0.0
    assert np.array_equal(net.forward((0.5, 0.0)), net.forward((0.5, 0.9)))

    # refinement monotonicity of the gated extractors
    for document in train[:40]:
        for name in ("amount_area", "designation_zone", "code_area", "text_block"):
            extractor = extractors[name]
            values = [
                extractor.evaluate(document, level)
                for level in range(1, extractor.max_level + 1)
            ]
            assert all(b <= a for a, b in zip(values, values[1:]))

    # cost ordering in token visits
    for document in train[:40]:
        for extractor in extractors.values():
            visits = [
                measure(extractor, document, level)[1]
                for level in range(1, extractor.max_level + 1)
            ]
            assert all(b >= a for a, b in zip(visits, visits[1:]))

    # retraining determinism, byte for byte
    blobs = []
    for run in range(2):
        model = TnnModel.create(config, seed=DESK_MODEL_SEED)
        train_tnn(model, train[:30])
        path = tmp_path / f"retrain-{run}.json"
        save_model(model, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]

    # corpus round-trip identity
    path = tmp_path / "corpus.json"
    save_corpus(train[:25], path)
    assert load_corpus(path, config.topology) == train[:25]

    report(
        "criterion 9: property suites green (activation range, mask invariance, "
        "gating monotonicity, cost ordering, retrain determinism, corpus round-trip)"
    )


def test_criterion_10_blame_beats_other_choices_of_what_to_raise(desk_tnn, desk_corpora,
                                                                  monkeypatch):
    # only the choice of elements to raise after an ambiguous pass changes:
    # each chooser takes blame_elements' place, as the benchmark tracer swaps bindings
    def eligible(model, levels, max_levels):
        return [name for name in model.topology.elements if levels[name] < max_levels[name]]

    def random_raise(seed):
        rng = np.random.default_rng(seed)

        def choose(trace, model, top2, levels, max_levels, paths):
            names = eligible(model, levels, max_levels)
            picked = rng.choice(len(names), size=min(recognizer.BLAME_BUDGET, len(names)),
                                replace=False)
            return [names[i] for i in sorted(picked)]
        return choose

    def all_eligible(trace, model, top2, levels, max_levels, paths):
        return eligible(model, levels, max_levels)

    # each run builds its chooser afresh, so every random run starts from its seed
    path_blame = recognizer.blame_elements
    choosers = {"path blame": lambda: path_blame,
                **{f"random {seed}": lambda seed=seed: random_raise(seed) for seed in range(5)},
                "all eligible": lambda: all_eligible}

    def outcomes(docs, chooser):
        monkeypatch.setattr(recognizer, "blame_elements", chooser())
        right = wrong = rejected = 0
        for document in docs:
            result = recognize(desk_tnn, document)
            if result.status != "recognized":
                rejected += 1
            elif result.winning_class == document.labels.document_class:
                right += 1
            else:
                wrong += 1
        return right, wrong, rejected

    _, desk = desk_corpora
    sets = {
        "fixtures": generate_ambiguous(AMBIGUOUS_SEED, AMBIGUOUS_COUNT),
        "noisy desk set": generate(GenSpec(seed=DESK_TEST_SEED, counts=DESK_TEST_COUNTS,
                                           noise=Noise(0.015, 0.3, 0.3))),
        "desk set": desk,
    }
    table = {
        name: {label: outcomes(docs, chooser) for label, chooser in choosers.items()}
        for name, docs in sets.items()
    }
    lines = {
        name: "; ".join(f"{label} {'/'.join(map(str, row))}" for label, row in rows.items())
        for name, rows in table.items()
    }
    # at desk noise the choices are within noise of each other: printed, not asserted
    print(f"criterion 10 (right/wrong/rejected), desk set, not asserted: {lines['desk set']}")
    fixtures, noisy = table["fixtures"], table["noisy desk set"]
    others = [label for label in choosers if label != "path blame"]
    assert all(fixtures["path blame"][0] > fixtures[label][0] for label in others)
    assert all(noisy["path blame"][1] < noisy[label][1] for label in others)
    report(f"criterion 10: path blame recognizes the most fixtures (right/wrong/rejected: "
           f"{lines['fixtures']}) and accepts the fewest wrong noisy desk documents "
           f"({lines['noisy desk set']})")
