"""Span tracer for the traced benchmark run.

The tracer wraps the module-level bindings that doctnn's own callers look
up (for example ``doctnn.recognizer.extract_all`` or ``doctnn.mlp.sigmoid``)
and the ``ElementExtractor.evaluate`` method, records one span per call in
memory, and restores every original binding when it is uninstalled. The
timed run never installs it.

Each span has an id, the id of the span that caused it, the document it
belongs to, the benchmark phase it ran in, its start and end, and, for an
extractor evaluation, the ``Tally`` visits it charged. Self time is a span's
duration minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap).
"""
from __future__ import annotations

import contextlib
import csv
import gzip
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from doctnn import documents, evaluation, features, generator, mlp, network, recognizer
from doctnn.documents import DocumentInstance
from doctnn.features import ElementExtractor, Tally
from doctnn.topology import default_config

PHASES = ("setup", "train", "serve", "eval")

# (module, attribute, span name); a function bound under several names is
# wrapped at every binding its callers use and reported under one name
PATCHES = (
    (generator, "generate", "generator.generate"),
    (generator, "generate_ambiguous", "generator.generate_ambiguous"),
    (documents, "save_corpus", "documents.save_corpus"),
    (documents, "load_corpus", "documents.load_corpus"),
    (recognizer, "extract_all", "features.extract_all"),
    (network, "extract_all", "features.extract_all"),
    (mlp, "extract_all", "features.extract_all"),
    (evaluation, "extract_all", "features.extract_all"),
    (recognizer, "recognize", "recognizer.recognize"),
    (evaluation, "recognize", "recognizer.recognize"),
    (recognizer, "blame_elements", "recognizer.blame_elements"),
    (recognizer, "extract_structures", "recognizer.extract_structures"),
    (recognizer, "forward_tnn", "network.forward_tnn"),
    (network, "sigmoid", "network.sigmoid"),
    (mlp, "sigmoid", "network.sigmoid"),
    (network, "train_nn1", "network.train_nn1"),
    (network, "save_model", "network.save_model"),
    (network, "load_model", "network.load_model"),
    (mlp, "gradients", "mlp.gradients"),
    (mlp, "train_mlp_on_samples", "mlp.train_mlp_on_samples"),
    (mlp, "save_mlp", "mlp.save_mlp"),
    (mlp, "load_mlp", "mlp.load_mlp"),
    (evaluation, "forward_mlp", "mlp.forward_mlp"),
    (evaluation, "evaluate_tnn", "evaluation.evaluate_tnn"),
    (evaluation, "evaluate_mlp", "evaluation.evaluate_mlp"),
)
METHOD_PATCHES = ((ElementExtractor, "evaluate"),)

_CONFIG = default_config()
# train_nn1 is told apart by the layer its network outputs
_NN1_LAYERS = {
    _CONFIG.topology.substructures: "sub",
    _CONFIG.topology.structures: "struct",
    _CONFIG.topology.documents: "doc",
}
EXTRACTOR_LEVELS = tuple(
    (name, level)
    for name, extractor in features.build_extractors(_CONFIG.extractors).items()
    for level in range(1, extractor.max_level + 1)
)


def _per_layer_definitions() -> tuple[tuple[str, str, str], ...]:
    """(name, unit, better) of every per-layer metric, in report order."""
    defs = []
    for name, level in EXTRACTOR_LEVELS:
        defs.append((f"features.{name}.L{level}.us", "us", "lower"))
        defs.append((f"features.{name}.L{level}.visits", "visits", "lower"))
    defs += [
        ("features.L1.calls", "count", "lower"),
        ("features.L2.calls", "count", "lower"),
        ("features.L3.calls", "count", "lower"),
        ("features.extract_all.calls", "count", "lower"),
        ("features.extract_all.ms", "ms", "lower"),
        ("features.visits_per_doc", "visits", "lower"),
        ("features.reextract_useful_ratio", "ratio", "higher"),
        ("recognizer.recognize.self_us", "us", "lower"),
        ("recognizer.blame_elements.calls", "count", "lower"),
        ("recognizer.blame_elements.us", "us", "lower"),
        ("recognizer.extract_structures.us", "us", "lower"),
        ("recognizer.passes.1", "count", "higher"),
        ("recognizer.passes.2", "count", "lower"),
        ("recognizer.passes.3", "count", "lower"),
        ("recognizer.rejected", "count", "lower"),
        ("network.forward_tnn.calls", "count", "lower"),
        ("network.forward_tnn.us", "us", "lower"),
        ("network.sigmoid.calls", "count", "lower"),
        ("network.sigmoid.us", "us", "lower"),
    ]
    for net in ("sub", "struct", "doc"):
        defs.append((f"network.train_nn1.{net}.s", "s", "lower"))
    for net in ("sub", "struct", "doc"):
        defs.append((f"network.train_nn1.{net}.epochs", "count", "lower"))
    defs += [
        ("network.save_model.ms", "ms", "lower"),
        ("network.load_model.ms", "ms", "lower"),
        ("mlp.gradients.calls", "count", "lower"),
        ("mlp.gradients.us", "us", "lower"),
        ("mlp.train_mlp_on_samples.s", "s", "lower"),
        ("mlp.epochs", "count", "lower"),
        ("mlp.forward_mlp.us", "us", "lower"),
        ("mlp.save_mlp.ms", "ms", "lower"),
        ("mlp.load_mlp.ms", "ms", "lower"),
        ("evaluation.evaluate_tnn.s", "s", "lower"),
        ("evaluation.evaluate_mlp.s", "s", "lower"),
        ("generator.generate.s", "s", "lower"),
        ("generator.generate_ambiguous.s", "s", "lower"),
        ("documents.save_corpus.ms", "ms", "lower"),
        ("documents.load_corpus.ms", "ms", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return tuple(defs)


PER_LAYER = _per_layer_definitions()


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._codes: dict[str, int] = {}
        self._doc_ids: dict[tuple[str, str], int] = {}
        self.doc_names: list[str] = []
        self.ids = array("q")
        self.parents = array("q")
        self.docs = array("q")
        self.phases = array("b")
        self.codes = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.visits = array("q")
        self.recognize_of = array("q")  # enclosing recognize span, 0 if none
        self.counters: dict[str, int] = {}
        self._next_id = 1
        self._stack: list[tuple[int, int]] = [(0, -1)]  # (span id, doc id)
        self._recognize = 0
        self._phase = -1
        self._source = ""
        self._saved: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self._names)
            self._names.append(name)
        return code

    def _doc(self, doc: DocumentInstance) -> int:
        # ids repeat across generated corpora, so the corpus name disambiguates
        key = (doc.id, self._source)
        doc_id = self._doc_ids.get(key)
        if doc_id is None:
            doc_id = self._doc_ids[key] = len(self.doc_names)
            self.doc_names.append(f"{self._source}/{doc.id}")
        return doc_id

    def _record(self, span: int, parent: int, doc: int, code: int,
                start: float, end: float, visits: int) -> None:
        self.ids.append(span)
        self.parents.append(parent)
        self.docs.append(doc)
        self.phases.append(self._phase)
        self.codes.append(code)
        self.starts.append(start)
        self.ends.append(end)
        self.visits.append(visits)
        self.recognize_of.append(self._recognize)

    def count(self, key: str, amount: int = 1) -> None:
        key = f"{PHASES[self._phase] if self._phase >= 0 else 'none'}.{key}"
        self.counters[key] = self.counters.get(key, 0) + amount

    def _call(self, code: int, doc: DocumentInstance | None, fn: Callable,
              args: tuple, kwargs: dict, meter: Tally | None = None):
        """Call ``fn`` inside a new span; ``meter`` is the Tally whose visits it charges."""
        span = self._next_id
        self._next_id += 1
        parent, parent_doc = self._stack[-1]
        doc_id = self._doc(doc) if doc is not None else parent_doc
        before = meter.visits if meter is not None else 0
        self._stack.append((span, doc_id))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            visits = meter.visits - before if meter is not None else 0
            self._record(span, parent, doc_id, code, start, end, visits)

    @contextlib.contextmanager
    def phase(self, name: str, source: str = "") -> Iterator[None]:
        """Mark the benchmark phase, and the corpus it reads, for the spans inside."""
        outer = (self._phase, self._source)
        self._phase = PHASES.index(name)
        self._source = source
        try:
            yield
        finally:
            self._phase, self._source = outer

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        code = self.code(name)
        tracer = self

        if name == "recognizer.recognize":
            def wrapper(model, doc, *args, **kwargs):
                outer = tracer._recognize
                tracer._recognize = tracer._next_id  # the id _call is about to take
                try:
                    result = tracer._call(code, doc, fn, (model, doc) + args, kwargs)
                finally:
                    tracer._recognize = outer
                tracer.count(f"passes.{len(result.passes)}")
                if result.status != "recognized":
                    tracer.count("rejected")
                return result
        elif name == "features.extract_all":
            def wrapper(extractors, doc, *args, **kwargs):
                return tracer._call(code, doc, fn, (extractors, doc) + args, kwargs)
        elif name == "network.train_nn1":
            def wrapper(net, *args, **kwargs):
                which = _NN1_LAYERS.get(tuple(net.output_names), "other")
                stats = tracer._call(tracer.code(f"network.train_nn1.{which}"),
                                     None, fn, (net,) + args, kwargs)
                tracer.count(f"train_nn1.{which}.epochs", stats.epochs)
                return stats
        elif name == "mlp.train_mlp_on_samples":
            def wrapper(*args, **kwargs):
                stats = tracer._call(code, None, fn, args, kwargs)
                tracer.count("mlp.epochs", stats.epochs)
                return stats
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(code, None, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_evaluate(self, fn: Callable) -> Callable:
        tracer = self
        codes = {
            (name, level): self.code(f"features.{name}.L{level}")
            for name, level in EXTRACTOR_LEVELS
        }

        def evaluate(extractor, doc, level, tally=None):
            meter = tally if tally is not None else Tally()
            code = codes.get((extractor.name, level))
            if code is None:
                code = tracer.code(f"features.{extractor.name}.L{level}")
            return tracer._call(code, doc, fn, (extractor, doc, level, meter), {}, meter)

        evaluate.__wrapped__ = fn
        return evaluate

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Install every wrapper; restore the original bindings on exit."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module, attr, name in PATCHES:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            for cls, attr in METHOD_PATCHES:
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap_evaluate(original))
            yield
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    # --- output --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write every span as one gzipped CSV row, times in microseconds from the first span."""
        origin = min(self.starts) if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(["span", "parent", "doc", "phase", "name",
                          "start_us", "end_us", "visits"])
            for i in range(len(self.ids)):
                doc = self.docs[i]
                out.writerow([
                    self.ids[i], self.parents[i],
                    self.doc_names[doc] if doc >= 0 else "",
                    PHASES[self.phases[i]] if self.phases[i] >= 0 else "",
                    self._names[self.codes[i]],
                    round((self.starts[i] - origin) * 1e6, 3),
                    round((self.ends[i] - origin) * 1e6, 3),
                    self.visits[i],
                ])

    def layer_metrics(self, overhead: float) -> dict[str, float]:
        """Reduce the spans to the per-layer metrics in ``PER_LAYER``.

        Extraction, recognizer and forward-propagation figures come from the
        serve phase only, so they describe the workload's own documents; the
        training, persistence, evaluation and generator figures cover the
        whole traced run.
        """
        if not self.ids:
            raise RuntimeError("no spans were recorded")
        ids = np.frombuffer(self.ids, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        codes = np.frombuffer(self.codes, dtype=np.int32)
        phases = np.frombuffer(self.phases, dtype=np.int8)
        durations = (np.frombuffer(self.ends, dtype=np.float64)
                     - np.frombuffer(self.starts, dtype=np.float64))
        visits = np.frombuffer(self.visits, dtype=np.int64)
        child_time = np.zeros(int(ids.max()) + 1)
        np.add.at(child_time, parents, durations)
        self_time = durations - child_time[ids]
        serve = phases == PHASES.index("serve")

        def select(name: str, serve_only: bool = False) -> np.ndarray:
            code = self._codes.get(name, -1)
            mask = codes == code
            return mask & serve if serve_only else mask

        def mean(values: np.ndarray, mask: np.ndarray, scale: float) -> float:
            return float(values[mask].mean() * scale) if mask.any() else 0.0

        def calls(name: str, serve_only: bool = False) -> int:
            return int(select(name, serve_only).sum())

        out: dict[str, float] = {}
        level_calls = {1: 0, 2: 0, 3: 0}
        for name, level in EXTRACTOR_LEVELS:
            mask = select(f"features.{name}.L{level}", serve_only=True)
            level_calls[level] += int(mask.sum())
            out[f"features.{name}.L{level}.us"] = mean(durations, mask, 1e6)
            out[f"features.{name}.L{level}.visits"] = mean(visits, mask, 1.0)
        for level in (1, 2, 3):
            out[f"features.L{level}.calls"] = level_calls[level]
        out["features.extract_all.calls"] = calls("features.extract_all", True)
        out["features.extract_all.ms"] = mean(
            durations, select("features.extract_all", True), 1e3)
        recognize_calls = calls("recognizer.recognize", True)
        useful, total, served_visits = self._refinement(serve)
        out["features.visits_per_doc"] = (
            served_visits / recognize_calls if recognize_calls else 0.0)
        out["features.reextract_useful_ratio"] = useful / total if total else 0.0
        out["recognizer.recognize.self_us"] = mean(
            self_time, select("recognizer.recognize", True), 1e6)
        out["recognizer.blame_elements.calls"] = calls("recognizer.blame_elements", True)
        out["recognizer.blame_elements.us"] = mean(
            durations, select("recognizer.blame_elements", True), 1e6)
        out["recognizer.extract_structures.us"] = mean(
            durations, select("recognizer.extract_structures", True), 1e6)
        for passes in (1, 2, 3):
            out[f"recognizer.passes.{passes}"] = self.counters.get(f"serve.passes.{passes}", 0)
        out["recognizer.rejected"] = self.counters.get("serve.rejected", 0)
        out["network.forward_tnn.calls"] = calls("network.forward_tnn", True)
        out["network.forward_tnn.us"] = mean(
            durations, select("network.forward_tnn", True), 1e6)
        out["network.sigmoid.calls"] = calls("network.sigmoid")
        out["network.sigmoid.us"] = mean(durations, select("network.sigmoid"), 1e6)
        for net in ("sub", "struct", "doc"):
            out[f"network.train_nn1.{net}.s"] = mean(
                durations, select(f"network.train_nn1.{net}"), 1.0)
        for net in ("sub", "struct", "doc"):
            runs = calls(f"network.train_nn1.{net}")
            epochs = self.counters.get(f"train.train_nn1.{net}.epochs", 0)
            out[f"network.train_nn1.{net}.epochs"] = epochs / runs if runs else 0
        out["network.save_model.ms"] = mean(durations, select("network.save_model"), 1e3)
        out["network.load_model.ms"] = mean(durations, select("network.load_model"), 1e3)
        out["mlp.gradients.calls"] = calls("mlp.gradients")
        out["mlp.gradients.us"] = mean(durations, select("mlp.gradients"), 1e6)
        out["mlp.train_mlp_on_samples.s"] = mean(
            durations, select("mlp.train_mlp_on_samples"), 1.0)
        mlp_runs = calls("mlp.train_mlp_on_samples")
        mlp_epochs = self.counters.get("train.mlp.epochs", 0)
        out["mlp.epochs"] = mlp_epochs / mlp_runs if mlp_runs else 0
        out["mlp.forward_mlp.us"] = mean(durations, select("mlp.forward_mlp"), 1e6)
        out["mlp.save_mlp.ms"] = mean(durations, select("mlp.save_mlp"), 1e3)
        out["mlp.load_mlp.ms"] = mean(durations, select("mlp.load_mlp"), 1e3)
        out["evaluation.evaluate_tnn.s"] = mean(
            durations, select("evaluation.evaluate_tnn"), 1.0)
        out["evaluation.evaluate_mlp.s"] = mean(
            durations, select("evaluation.evaluate_mlp"), 1.0)
        for name in ("generator.generate", "generator.generate_ambiguous"):
            out[f"{name}.s"] = float(durations[select(name)].sum())
        for name in ("documents.save_corpus", "documents.load_corpus"):
            out[f"{name}.ms"] = mean(durations, select(name), 1e3)
        out["trace.overhead"] = overhead
        return out

    def _refinement(self, mask: np.ndarray) -> tuple[int, int, int]:
        """(useful evaluations, evaluations, visits) inside recognize calls, within ``mask``.

        An evaluation is useful when its (element, level) is new to its
        recognize call.
        """
        codes = np.frombuffer(self.codes, dtype=np.int32)
        recognize_of = np.frombuffer(self.recognize_of, dtype=np.int64)
        evaluations = np.isin(codes, [self._codes.get(f"features.{n}.L{lv}", -1)
                                      for n, lv in EXTRACTOR_LEVELS])
        inside = mask & evaluations & (recognize_of > 0)
        pairs = recognize_of[inside] * (len(self._names) + 1) + codes[inside]
        visits = np.frombuffer(self.visits, dtype=np.int64)
        return len(np.unique(pairs)), int(inside.sum()), int(visits[inside].sum())

    def refinement_counts(self, source: str) -> tuple[int, int, int]:
        """``_refinement`` over the served documents of one generated block."""
        in_source = np.array([name.startswith(source + "/") for name in self.doc_names]
                             + [False])  # doc id -1 (no document) indexes the pad
        docs = np.frombuffer(self.docs, dtype=np.int64)
        serve = np.frombuffer(self.phases, dtype=np.int8) == PHASES.index("serve")
        return self._refinement(serve & in_source[docs])

    def cost_table(self) -> list[str]:
        """Per element and level: evaluations, mean microseconds, mean visits, ns per visit."""
        codes = np.frombuffer(self.codes, dtype=np.int32)
        serve = np.frombuffer(self.phases, dtype=np.int8) == PHASES.index("serve")
        durations = (np.frombuffer(self.ends, dtype=np.float64)
                     - np.frombuffer(self.starts, dtype=np.float64))
        visits = np.frombuffer(self.visits, dtype=np.int64)
        header = f"{'extractor':<22}{'level':>6}{'evals':>8}{'mean us':>10}{'visits':>9}{'ns/visit':>10}"
        lines = [header, "-" * len(header)]
        for name, level in EXTRACTOR_LEVELS:
            mask = serve & (codes == self._codes.get(f"features.{name}.L{level}", -1))
            n = int(mask.sum())
            if n == 0:
                lines.append(f"{name:<22}{level:>6}{0:>8}{'-':>10}{'-':>9}{'-':>10}")
                continue
            us = float(durations[mask].mean() * 1e6)
            vis = float(visits[mask].mean())
            per_visit = f"{us * 1e3 / vis:.0f}" if vis else "-"
            lines.append(f"{name:<22}{level:>6}{n:>8}{us:>10.2f}{vis:>9.1f}{per_visit:>10}")
        return lines
