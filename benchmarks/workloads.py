"""Workloads of the doctnn benchmark.

One caller drives the library in a closed loop: it sends the next document
only after the previous one has finished. Every workload runs the same four
phases, so that every end-to-end metric is measured on every workload:

setup  generate the pinned desk training corpus, the evaluation block and the
       first served block, and round-trip each through ``save_corpus`` /
       ``load_corpus`` (repeated; ``setup_s`` is the median).
train  ``train_tnn`` + ``save_model`` (repeated; median), then ``train_mlp`` +
       ``save_mlp``.
serve  ``recognize`` over a stream of distinct documents.
eval   ``load_model`` + ``load_mlp`` + ``build_report`` on the evaluation block
       (repeated; median).

Both models always train on the pinned desk training corpus, so training work
is the same at every seed. The workload seed picks the documents: the
evaluation block is the desk test spec at the seed, and the served stream is
made of consecutive generator seeds. The workloads differ in what they serve
and in which phase fills ``--seconds``: the two recognize workloads serve for
``--seconds`` of recognize time (and at least ``MIN_SERVED`` documents), then
evaluate; desk_train_eval repeats train + eval until ``--seconds`` have
passed (at least once), then serves ``MIN_SERVED`` documents.

Every time is the process's CPU time, scaled by the machine-speed gauge
(gauge.py); the unscaled and the wall-clock times are printed alongside. The
run fails if the process has more than one thread after any phase.
"""
from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

from doctnn import documents, evaluation, generator, mlp, network, recognizer
from doctnn.documents import DocumentInstance
from doctnn.generator import GenSpec, Noise
from doctnn.mlp import MlpModel
from doctnn.network import TnnModel
from doctnn.recognizer import RecognizerParams
from doctnn.topology import default_config

import fingerprint
from gauge import GROUP_CALLS, REFERENCE_S, Gauge, Timing, timed
from tracing import Tracer

DESK_NOISE = Noise(jitter=0.005, drop_rate=0.05, distort_rate=0.05)
TRAIN_SPEC = GenSpec(seed=51, counts={"invoice": 40, "form": 36, "letter": 26},
                     noise=DESK_NOISE)
DESK_TEST_COUNTS = {"invoice": 120, "form": 90, "letter": 40}
AMBIGUOUS_BLOCK = 24
MODEL_SEED = 1
CONFIG = default_config()
PARAMS = RecognizerParams()

SETUP_REPEATS = 3
TNN_REPEATS = 5
EVAL_REPEATS = 5
# every timed serve phase recognizes at least this many documents, enough for
# a steady p99 with 50 samples beyond it; desk_train_eval serves exactly this
MIN_SERVED = 5000
# the traced run serves whole blocks until it has traced this many documents
TRACED_SERVED = 250

FLOOR_DOC_ACCURACY = 0.90
FLOOR_STRUCTURE_RECALL = 0.85

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("docs_per_s", "1/s", "higher", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.2),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("doc_accuracy", "ratio", "higher", 0.02),
    ("structure_recall", "ratio", "higher", 0.02),
    ("success_rate", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("train_tnn_s", "s", "lower", 0.25),
    ("train_mlp_s", "s", "lower", 0.25),
    ("eval_s", "s", "lower", 0.25),
    ("mlp_doc_accuracy", "ratio", "higher", 0.05),
    ("backward_ratio", "ratio", "lower", 0.01),
)


def desk_block(seed: int) -> list[DocumentInstance]:
    return generator.generate(GenSpec(seed=seed, counts=DESK_TEST_COUNTS, noise=DESK_NOISE))


def ambiguous_block(seed: int) -> list[DocumentInstance]:
    return generator.generate_ambiguous(seed, AMBIGUOUS_BLOCK)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    serve_block: Callable[[int], list[DocumentInstance]]
    serve_offset: int  # the first served block uses generator seed = seed + offset
    timed_phase: str   # "serve" or "train": the phase repeated for --seconds
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_recognize", 52, desk_block, 0, "serve",
            "distinct desk documents, 97% settled in one pass: level-1 extraction "
            "dominates recognize while blame and levels 2-3 sit nearly idle; "
            "refinement-only changes should not move it",
        ),
        Workload(
            "ambiguous_refine", 7, ambiguous_block, 0, "serve",
            "ambiguous fixtures that all take 3 passes, run blame twice and "
            "escalate to levels 2-3; only 52% of extractor evaluations are new, "
            "so refinement and blame changes show here",
        ),
        Workload(
            "desk_train_eval", 52, desk_block, 1, "train",
            "the CLI flow in-process (generate, train both models, eval, then "
            "recognize): delta-rule and sigmoid-heavy backprop training dominate, "
            "extraction is a few percent",
        ),
    )
}


@dataclass
class ServeLog:
    timings: list[Timing] = field(default_factory=list)
    busy: float = 0.0  # raw seconds spent in recognize
    failed: int = 0
    correct: int = 0
    structures_tested: int = 0
    structures_found: int = 0
    tokens: int = 0
    blocks: int = 0
    passes: dict[int, int] = field(default_factory=dict)
    first_block: list[list] = field(default_factory=list)
    last_unit: float = 0.0  # the gauge's latest one-unit sample
    pending: list[Timing] = field(default_factory=list)  # calls awaiting their factor

    @property
    def served(self) -> int:
        return len(self.timings)


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    notes: list[str]
    record: dict  # the run's side of the fingerprint
    layers: dict[str, float] | None = None


def _repeat(gauge: Gauge | None, repeats: int,
            step: Callable[[], object]) -> tuple[list[Timing], object]:
    timings, result = [], None
    for _ in range(repeats):
        timing, result = timed(gauge, step)
        timings.append(timing)
    return timings, result


def setup(workload: Workload, seed: int, workdir: Path) -> dict[str, list[DocumentInstance]]:
    """Generate the corpora and round-trip them through the corpus file format."""
    generated = {
        "train": generator.generate(TRAIN_SPEC),
        "eval": desk_block(seed),
    }
    serve_seed = seed + workload.serve_offset
    if workload.serve_block is not desk_block or serve_seed != seed:
        generated["serve"] = workload.serve_block(serve_seed)
    corpora = {}
    for name, docs in generated.items():
        path = workdir / f"{name}.json"
        documents.save_corpus(docs, path)
        corpora[name] = documents.load_corpus(path, CONFIG.topology)
    corpora.setdefault("serve", corpora["eval"])
    return corpora


def train_tnn(train_docs: Sequence[DocumentInstance], workdir: Path) -> TnnModel:
    model = TnnModel.create(CONFIG, seed=MODEL_SEED)
    network.train_tnn(model, train_docs)
    network.save_model(model, workdir / "tnn.json")
    return model


def train_mlp(train_docs: Sequence[DocumentInstance], workdir: Path) -> MlpModel:
    model = MlpModel.create(CONFIG, seed=MODEL_SEED)
    mlp.train_mlp(model, train_docs)
    mlp.save_mlp(model, workdir / "mlp.json")
    return model


def evaluate(eval_docs: Sequence[DocumentInstance], workdir: Path) -> evaluation.EvalReport:
    tnn = network.load_model(workdir / "tnn.json")
    baseline = mlp.load_mlp(workdir / "mlp.json")
    return evaluation.build_report(tnn, eval_docs, PARAMS, mlp_model=baseline)


def block_source(block: Callable[[int], list[DocumentInstance]], seed: int) -> str:
    """Name of one generated block, as the tracer labels its documents."""
    return f"{block.__name__}:{seed}"


def _no_scope(phase: str, source: str = ""):
    return contextlib.nullcontext()


def _serve_doc(log: ServeLog, model: TnnModel, extractors, doc: DocumentInstance,
               gauge: Gauge | None) -> list:
    """Recognize one document, timing only the ``recognize`` call; return its row.

    With a gauge, the call waits in ``log.pending`` for the kernel unit that
    closes its group (see ``_close_group``).
    """
    def attempt():
        try:
            return recognizer.recognize(model, doc, PARAMS, extractors)
        except Exception:  # noqa: BLE001 - counted and reported, the loop goes on
            if log.failed < 3:
                traceback.print_exc(file=sys.stderr)
            return None

    timing, result = timed(None, attempt)
    log.timings.append(timing)
    if gauge is not None:
        log.pending.append(timing)
        if len(log.pending) == GROUP_CALLS:
            _close_group(log, gauge)
    log.busy += timing.raw
    log.tokens += len(doc.tokens)
    if result is None:
        log.failed += 1
        return [doc.id, "error", "", 0]
    truth = doc.labels
    passes = len(result.passes)
    log.passes[passes] = log.passes.get(passes, 0) + 1
    if result.status == "recognized" and result.winning_class == truth.document_class:
        log.correct += 1
    found = {hit.name for hit in result.structures}
    log.structures_tested += len(truth.structures)
    log.structures_found += len(truth.structures & found)
    return [doc.id, result.status, result.winning_class or "", passes]


def _close_group(log: ServeLog, gauge: Gauge) -> None:
    """Sample one kernel unit; scale the pending calls by it and the unit before them."""
    after = gauge.sample(1)
    for timing in log.pending:
        timing.factor = 2.0 * REFERENCE_S / (log.last_unit + after)
    log.pending.clear()
    log.last_unit = after


def serve(model: TnnModel, workload: Workload, first_docs: Sequence[DocumentInstance],
          first_seed: int, done: Callable[[ServeLog], bool],
          gauge: Gauge | None = None) -> ServeLog:
    """Serve block after block until ``done``; the first block is served whole.

    Blocks come from consecutive generator seeds, so no document repeats.
    Generating the next block is the caller's own work and is not timed. The
    gauge's timer is paused: the gauge samples between groups of documents
    instead, so no recognition is interrupted.
    """
    log = ServeLog()
    extractors = model.build_extractors()
    docs, seed = first_docs, first_seed
    with gauge.paused() if gauge is not None else contextlib.nullcontext():
        while True:
            log.blocks += 1
            if gauge is not None:
                # the unit after generating the block starts its first group
                if log.pending:
                    _close_group(log, gauge)
                else:
                    log.last_unit = gauge.sample(1)
            for doc in docs:
                row = _serve_doc(log, model, extractors, doc, gauge)
                if log.blocks == 1:
                    log.first_block.append(row)
                if len(log.first_block) == len(first_docs) and done(log):
                    if gauge is not None and log.pending:
                        _close_group(log, gauge)
                    return log
            seed += 1
            docs = workload.serve_block(seed)


def traced_serve(tracer: Tracer, model: TnnModel, workload: Workload,
                 first_docs: Sequence[DocumentInstance], first_seed: int
                 ) -> tuple[ServeLog, ServeLog]:
    """Serve whole blocks traced until ``TRACED_SERVED`` documents are traced.

    Each document is served again right after without the wrappers: costs
    differ from document to document and the machine's speed swings within
    seconds, so only the same document, served at nearly the same moment,
    gives a fair tracing overhead (doctnn keeps no per-document cache).
    """
    traced, plain = ServeLog(), ServeLog()
    extractors = model.build_extractors()
    docs, seed = first_docs, first_seed
    while traced.served < TRACED_SERVED:
        traced.blocks += 1
        source = block_source(workload.serve_block, seed)
        for doc in docs:
            with tracer.installed(), tracer.phase("serve", source):
                row = _serve_doc(traced, model, extractors, doc, None)
            _serve_doc(plain, model, extractors, doc, None)
            if traced.blocks == 1:
                traced.first_block.append(row)
        seed += 1
        docs = workload.serve_block(seed)
    return traced, plain


def _percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _threads() -> int:
    """Threads of this process: the OS count where /proc has it, else Python's."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: Workload, seed: int, seconds: float, workdir: Path,
        expected: dict | None, tracer: Tracer | None = None) -> Outcome:
    """Run one workload and check its outputs against ``expected``.

    The timed run samples the machine-speed gauge throughout and reports
    scaled times (see gauge.py). With a tracer there is no gauge and the run
    has a fixed size, so its counts repeat exactly at a given seed: every
    phase runs once under the wrappers, and the serve phase traces whole
    blocks until ``TRACED_SERVED`` documents, each block served once more
    untraced for the overhead figure; ``seconds`` only bounds the train +
    eval loop of desk_train_eval. Without ``expected`` nothing is checked.
    """
    traced = tracer is not None
    gauge = None if traced else Gauge()
    scope = tracer.phase if traced else _no_scope
    wrapped = tracer.installed if traced else contextlib.nullcontext
    repeats = (lambda n: 1) if traced else (lambda n: n)
    serve_seed = seed + workload.serve_offset
    eval_source = block_source(desk_block, seed)
    tnn_timings: list[Timing] = []
    mlp_timings: list[Timing] = []
    eval_timings: list[Timing] = []
    threads = [_threads()]
    with gauge.running() if gauge is not None else contextlib.nullcontext():
        with wrapped():
            with scope("setup"):
                setup_timings, corpora = _repeat(
                    gauge, repeats(SETUP_REPEATS), lambda: setup(workload, seed, workdir))
            threads.append(_threads())
            flow_start = perf_counter()
            while True:
                with scope("train", "train"):
                    timings, tnn = _repeat(gauge, repeats(TNN_REPEATS),
                                           lambda: train_tnn(corpora["train"], workdir))
                    tnn_timings += timings
                    timing, baseline = timed(
                        gauge, lambda: train_mlp(corpora["train"], workdir))
                    mlp_timings.append(timing)
                threads.append(_threads())
                if workload.timed_phase == "serve":
                    break
                with scope("eval", eval_source):
                    timings, report = _repeat(gauge, repeats(EVAL_REPEATS),
                                              lambda: evaluate(corpora["eval"], workdir))
                    eval_timings += timings
                threads.append(_threads())
                if traced or perf_counter() - flow_start >= seconds:
                    break
        served_model = network.load_model(workdir / "tnn.json")
        if traced:
            log, plain = traced_serve(tracer, served_model, workload, corpora["serve"],
                                      serve_seed)
        else:
            if workload.timed_phase == "serve":
                budget = lambda log: log.busy >= seconds and log.served >= MIN_SERVED  # noqa: E731
            else:
                budget = lambda log: log.served >= MIN_SERVED  # noqa: E731
            log = serve(served_model, workload, corpora["serve"], serve_seed, budget, gauge)
        threads.append(_threads())
        if workload.timed_phase == "serve":
            with wrapped(), scope("eval", eval_source):
                timings, report = _repeat(gauge, repeats(EVAL_REPEATS),
                                          lambda: evaluate(corpora["eval"], workdir))
                eval_timings += timings
            threads.append(_threads())

    def figures(scale: Callable[[Timing], float]) -> dict[str, float]:
        latencies = [scale(t) for t in log.timings]
        return {
            "setup_s": statistics.median(map(scale, setup_timings)),
            "docs_per_s": log.served / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p99_ms": _percentile(latencies, 0.99) * 1e3,
            "train_tnn_s": statistics.median(map(scale, tnn_timings)),
            "train_mlp_s": statistics.median(map(scale, mlp_timings)),
            "eval_s": statistics.median(map(scale, eval_timings)),
        }

    raw = figures(lambda t: t.raw)
    wall = figures(lambda t: t.end - t.start)
    metrics = figures(lambda t: t.scaled(gauge))
    metrics.update({
        "doc_accuracy": log.correct / log.served,
        "structure_recall": log.structures_found / log.structures_tested,
        "success_rate": (log.served - log.failed) / log.served,
        "peak_rss_mb": _peak_rss_mb(),
        "mlp_doc_accuracy": report.mlp_aggregate.rate,
        "backward_ratio": report.cost.ratio,
    })

    notes = []
    layers = None
    if traced:
        traced_rate, plain_rate = log.served / log.busy, plain.served / plain.busy
        layers = tracer.layer_metrics(overhead=plain_rate / traced_rate)
        useful, evaluations, visits = tracer.refinement_counts(
            block_source(workload.serve_block, serve_seed))
        notes += [
            f"tracing overhead: {plain_rate:.1f} docs/s untraced over {plain.served} "
            f"documents vs {traced_rate:.1f} traced over {log.served}",
            f"first served block: {useful}/{evaluations} extractor evaluations new to "
            f"their recognize call, {visits} token visits",
        ]
    else:
        notes.append(
            f"machine speed: {len(gauge.durations)} gauge samples, median "
            f"{statistics.median(gauge.durations) * 1e6:.1f} us per kernel unit "
            f"(reference {REFERENCE_S * 1e6:.1f} us); unscaled: "
            + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        notes.append("wall clock (gauge samples included): "
                     + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))

    training = {
        "tnn_epochs": [s.epochs for s in tnn.training.stats],
        "tnn_update_passes": tnn.training.total_update_passes,
        "mlp_epochs": baseline.training.epochs,
        "mlp_backward_passes": baseline.training.backward_passes,
    }
    record = {"training": training, "first_block": log.first_block,
              "eval": fingerprint.eval_counts(report)}
    problems = [] if expected is None else check(workload, seed, log, record, report, expected)
    if max(threads) > 1:
        problems.append(f"the process had {max(threads)} threads; the benchmark must run "
                        "single-threaded")

    histogram = "/".join(str(log.passes.get(p, 0)) for p in (1, 2, 3))
    notes += [
        f"traffic: closed loop, 1 caller, {log.served} documents in {log.blocks} blocks "
        f"from generator seed {serve_seed}, {log.tokens / log.served:.1f} tokens/document, "
        f"passes 1/2/3 = {histogram}",
        f"latency samples: {log.served}, {log.served - math.ceil(0.99 * log.served)} "
        "beyond p99",
        f"training: tnn epochs {'/'.join(map(str, training['tnn_epochs']))} "
        f"({training['tnn_update_passes']} update passes), mlp epochs "
        f"{training['mlp_epochs']} ({training['mlp_backward_passes']} backward passes)",
        f"eval block (desk seed {seed}): tnn {report.tnn_aggregate.recognized}/"
        f"{report.tnn_aggregate.tested}, structures {report.structure_aggregate.recognized}/"
        f"{report.structure_aggregate.tested}, mlp {report.mlp_aggregate.recognized}/"
        f"{report.mlp_aggregate.tested}",
    ]
    steps = len(setup_timings) + len(tnn_timings) + len(mlp_timings) + len(eval_timings)
    return Outcome(metrics=metrics, attempted=log.served + steps, failed=log.failed,
                   problems=problems, notes=notes, record=record, layers=layers)


def check(workload: Workload, seed: int, log: ServeLog, record: dict,
          report: evaluation.EvalReport, expected: dict) -> list[str]:
    """Compare the run's outputs with the pinned fingerprint and the acceptance floors.

    Training is pinned, so its counts are checked at every seed; the served
    and evaluated documents are pinned only at the workload's default seed.
    """
    problems = fingerprint.compare("training", expected["training"], record["training"])
    if seed == workload.default_seed:
        pinned = expected[workload.name]
        problems += fingerprint.compare("first served block", pinned["first_block"],
                                        record["first_block"])
        problems += fingerprint.compare("eval counts", pinned["eval"], record["eval"])
    served_accuracy = log.correct / log.served
    recall = log.structures_found / log.structures_tested
    if served_accuracy < FLOOR_DOC_ACCURACY:
        problems.append(f"served doc_accuracy {served_accuracy:.4f} < {FLOOR_DOC_ACCURACY}")
    if recall < FLOOR_STRUCTURE_RECALL:
        problems.append(f"served structure_recall {recall:.4f} < {FLOOR_STRUCTURE_RECALL}")
    if workload.serve_block is ambiguous_block and log.correct != log.served:
        problems.append(f"{log.served - log.correct} of {log.served} ambiguous fixtures "
                        "not resolved to their true class")
    eval_rate = report.tnn_aggregate.rate
    eval_recall = report.structure_aggregate.rate
    if eval_rate < FLOOR_DOC_ACCURACY or eval_recall < FLOOR_STRUCTURE_RECALL:
        problems.append(f"eval block below the floors: documents {eval_rate:.4f}, "
                        f"structures {eval_recall:.4f}")
    return problems
