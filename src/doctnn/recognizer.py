"""Global-local recognition loop.

Propagation votes elements up to a document class; when the vote is
ambiguous (weak winner or a too-close runner-up) the loop traces blame back
to the uncertain input neurons with the strongest paths toward the two
contending classes, bumps their extraction level, and propagates again, up
to three passes. Structures above threshold are reported even when the
document itself is rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Mapping, Sequence

import numpy as np

from .documents import DocumentInstance, finite_number
from .features import DocumentView, ElementExtractor, extract_all
from .network import ActivationTrace, TnnModel, forward_tnn


@dataclass(frozen=True)
class RecognizerParams:
    tau_accept: float = 0.6
    tau_margin: float = 0.15
    tau_struct: float = 0.5
    max_passes: int = 3
    blame_budget: int = 3

    def __post_init__(self) -> None:
        # thresholds are not bounded to [0, 1]: a threshold above 1 rejects everything
        for name in ("tau_accept", "tau_margin", "tau_struct"):
            value = getattr(self, name)
            if not finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name, least in (("max_passes", 1), ("blame_budget", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


DEFAULT_PARAMS = RecognizerParams()


@dataclass(frozen=True)
class StructureHit:
    name: str
    activation: float
    linked_to_winner: bool | None  # None when there is no winner to link to


@dataclass(frozen=True)
class PassRecord:
    levels: dict[str, int]
    trace: ActivationTrace
    blamed: tuple[str, ...]


@dataclass(frozen=True)
class RecognitionResult:
    status: str  # "recognized" | "rejected"
    winning_class: str | None
    confidence: float
    margin: float
    structures: tuple[StructureHit, ...]
    passes: tuple[PassRecord, ...]

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "winning_class": self.winning_class,
            "confidence": self.confidence,
            "margin": self.margin,
            "structures": [
                {
                    "name": s.name,
                    "activation": s.activation,
                    "linked_to_winner": s.linked_to_winner,
                }
                for s in self.structures
            ],
            "passes": [
                {
                    "levels": dict(p.levels),
                    "blamed": list(p.blamed),
                    "activations": {
                        "elements": dict(p.trace.elements),
                        "substructures": dict(p.trace.substructures),
                        "structures": dict(p.trace.structures),
                        "documents": dict(p.trace.documents),
                    },
                }
                for p in self.passes
            ],
        }


def _abs_path_weights(model: TnnModel) -> np.ndarray:
    """Sum over element-to-class paths of the product of |W| along each path."""
    product = np.abs(model.nets[0].weights * model.nets[0].mask)
    product = product @ np.abs(model.nets[1].weights * model.nets[1].mask)
    return product @ np.abs(model.nets[2].weights * model.nets[2].mask)


def blame_scores(
    trace: ActivationTrace, model: TnnModel, top2_classes: Sequence[str]
) -> dict[str, float]:
    """Responsibility per element: uncertainty times path weight to the contenders."""
    topo = model.topology
    class_index = {name: i for i, name in enumerate(topo.documents)}
    cols = [class_index[name] for name in top2_classes]
    paths = _abs_path_weights(model)
    scores: dict[str, float] = {}
    for i, name in enumerate(topo.elements):
        act = trace.elements[name]
        uncertainty = 1.0 - abs(2.0 * act - 1.0)
        scores[name] = uncertainty * float(sum(paths[i, c] for c in cols))
    return scores


def blame_elements(
    trace: ActivationTrace,
    model: TnnModel,
    top2_classes: Sequence[str],
    budget: int = 3,
    levels: Mapping[str, int] | None = None,
    max_levels: Mapping[str, int] | None = None,
) -> list[str]:
    """Pick the highest-responsibility elements that can still be refined.

    Without level information every element is considered refinable, which
    gives the raw responsibility ranking.
    """
    scores = blame_scores(trace, model, top2_classes)
    order = {name: i for i, name in enumerate(model.topology.elements)}
    candidates = []
    for name, score in scores.items():
        if score <= 0.0:
            continue
        if levels is not None and max_levels is not None:
            if levels.get(name, 1) >= max_levels.get(name, 1):
                continue
        candidates.append(name)
    candidates.sort(key=lambda n: (-scores[n], order[n]))
    return candidates[:budget]


def extract_structures(
    trace: ActivationTrace,
    model: TnnModel,
    winning_class: str | None,
    tau_struct: float,
) -> tuple[StructureHit, ...]:
    """Structure neurons above threshold, flagged by their link to the winner."""
    topo = model.topology
    net = model.nets[2]
    winner_col = (
        list(net.output_names).index(winning_class) if winning_class is not None else None
    )
    hits = []
    for i, name in enumerate(topo.structures):
        activation = trace.structures[name]
        if activation < tau_struct:
            continue
        linked = None
        if winner_col is not None:
            linked = bool(net.mask[i, winner_col] and net.weights[i, winner_col] > 0.0)
        hits.append(StructureHit(name=name, activation=activation, linked_to_winner=linked))
    return tuple(hits)


def _top_two(documents: Mapping[str, float], order: Sequence[str]) -> tuple[str, str]:
    ranked = sorted(order, key=lambda n: -documents[n])
    if len(ranked) == 1:
        return ranked[0], ranked[0]
    return ranked[0], ranked[1]


def recognize(
    model: TnnModel,
    doc: DocumentInstance,
    params: RecognizerParams = DEFAULT_PARAMS,
    extractors: Mapping[str, ElementExtractor] | None = None,
) -> RecognitionResult:
    """Run the propagate / blame / refine loop and report class and structures.

    ``extractors`` defaults to the ones the model's config built; a mapping
    that misses an element is refused by the first forward, naming it.
    """
    ex = extractors if extractors is not None else model.config.element_extractors
    max_levels = {name: ex[name].max_level for name in ex}
    levels = {name: 1 for name in model.topology.elements}
    # a document without tokens carries no evidence and can only be unknown,
    # whatever resting activations the trained thresholds produce
    has_evidence = bool(doc.tokens)
    # every pass re-evaluates all elements from this one reading of the document
    view = DocumentView(doc)
    passes: list[PassRecord] = []
    for pass_no in range(1, params.max_passes + 1):
        overrides = {name: lvl for name, lvl in levels.items() if lvl > 1}
        vector = extract_all(ex, view, overrides)
        trace = forward_tnn(model, vector)
        top1, top2 = _top_two(trace.documents, model.topology.documents)
        confidence = trace.documents[top1]
        margin = confidence - trace.documents[top2] if top1 != top2 else confidence
        accepted = (
            has_evidence
            and confidence >= params.tau_accept
            and margin >= params.tau_margin
        )
        blamed: tuple[str, ...] = ()
        if not accepted and pass_no < params.max_passes:
            blamed = tuple(
                blame_elements(trace, model, (top1, top2), params.blame_budget,
                               levels, max_levels)
            )
        passes.append(PassRecord(levels=dict(levels), trace=trace, blamed=blamed))
        if accepted or not blamed:
            break
        for name in blamed:
            levels[name] += 1
    winner = top1 if accepted else None
    structures = extract_structures(trace, model, winner, params.tau_struct)
    return RecognitionResult(
        status="recognized" if accepted else "rejected",
        winning_class=winner,
        confidence=confidence,
        margin=margin,
        structures=structures,
        passes=tuple(passes),
    )
