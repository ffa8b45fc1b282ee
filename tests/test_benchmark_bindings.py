"""The library still calls every binding the benchmark tracer wraps.

The tracer in ``benchmarks/tracing.py`` replaces module-level bindings (such
as ``doctnn.mlp.gradients``) with wrappers that record one span per call. A
binding that still exists but that the library no longer calls gives no span,
and every per-layer metric built on it reads 0. This test runs a tiny version
of the benchmark's flow under the tracer and checks that each wrapped binding,
and every extractor's level 1, recorded at least one span. It also checks
that training records one sigmoid span per TNN update pass and three per MLP
backward pass, so the sigmoid call count keeps its meaning.
"""
import csv
import gzip
import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

from doctnn import GenSpec, MlpModel, TnnModel, default_config
from doctnn import documents, evaluation, generator, mlp, network, recognizer

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_library_calls_every_binding_the_benchmark_tracer_wraps(tmp_path):
    tracing = load_tracing()
    config = default_config()
    config = replace(config, hyperparams=replace(config.hyperparams, max_epochs=2))
    tracer = tracing.Tracer()
    # every call goes through the module attribute, which the tracer replaces
    with tracer.installed():
        docs = generator.generate(GenSpec(seed=3, counts={"invoice": 2, "form": 1, "letter": 1}))
        ambiguous = generator.generate_ambiguous(7, 2)
        corpus_path = tmp_path / "corpus.json"
        documents.save_corpus(docs + ambiguous, corpus_path)
        corpus = documents.load_corpus(corpus_path, config.topology)
        tnn = TnnModel.create(config, seed=1)
        summary = network.train_tnn(tnn, corpus)
        dense = MlpModel.create(config, seed=1)
        dense_stats = mlp.train_mlp(dense, corpus)
        network.save_model(tnn, tmp_path / "tnn.model")
        tnn = network.load_model(tmp_path / "tnn.model")
        mlp.save_mlp(dense, tmp_path / "mlp.model")
        dense = mlp.load_mlp(tmp_path / "mlp.model")
        evaluation.build_report(tnn, corpus, mlp_model=dense)
        recognizer.recognize(tnn, ambiguous[0])
    spans = tmp_path / "spans.csv.gz"
    tracer.write_spans(spans)
    with gzip.open(spans, "rt", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    names = {row["name"] for row in rows}
    # train_nn1's spans are named after the layer its network outputs
    expected = {name for _, _, name in tracing.PATCHES} - {"network.train_nn1"}
    expected |= {f"network.train_nn1.{layer}" for layer in ("sub", "struct", "doc")}
    expected |= {f"features.{name}.L1" for name in config.topology.elements}
    assert sorted(expected - names) == []
    # refinement raised some element above level 1
    assert any(name.startswith("features.") and not name.endswith(".L1")
               and name != "features.extract_all" for name in names)
    # network.sigmoid.calls counts one span per TNN update pass and three
    # per MLP backward pass, besides the forwards of serving and evaluation
    name_of = {row["span"]: row["name"] for row in rows}
    under = Counter(name_of[row["parent"]] for row in rows
                    if row["name"] == "network.sigmoid" and row["parent"] in name_of)
    for layer, stats in zip(("sub", "struct", "doc"), summary.stats):
        assert under[f"network.train_nn1.{layer}"] == stats.update_passes
    gradients = sum(row["name"] == "mlp.gradients" for row in rows)
    assert gradients == dense_stats.backward_passes
    assert under["mlp.gradients"] == 3 * gradients
