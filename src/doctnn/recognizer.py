"""Global-local recognition loop.

Propagation votes elements up to a document class; when the vote is
ambiguous (weak winner or a too-close runner-up) the loop traces blame back
to the uncertain input neurons with the strongest paths toward the two
contending classes, bumps their extraction level, and propagates again, up
to three passes. Structures above threshold are reported even when the
document itself is rejected.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .documents import DocumentInstance, expect_number
from .features import DocumentView, ElementExtractor, extract_all
from .network import ActivationTrace, TnnModel, forward_tnn


# at most this many elements are raised one level after an ambiguous pass
BLAME_BUDGET = 3

_LARGEST_FLOAT = np.finfo(np.float64).max


@dataclass(frozen=True)
class RecognizerParams:
    tau_accept: float = 0.6
    tau_margin: float = 0.15
    tau_struct: float = 0.5
    max_passes: int = 3

    def __post_init__(self) -> None:
        # thresholds are not bounded to [0, 1]: a threshold above 1 rejects everything
        for name in ("tau_accept", "tau_margin", "tau_struct"):
            expect_number(getattr(self, name), float, ValueError, name)
        expect_number(self.max_passes, int, ValueError, "max_passes", 1)


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
            "structures": [asdict(s) for s in self.structures],
            "passes": [
                {
                    "levels": dict(p.levels),
                    "blamed": list(p.blamed),
                    "activations": asdict(p.trace),
                }
                for p in self.passes
            ],
        }


def _abs_path_weights(model: TnnModel) -> np.ndarray:
    """Sum over element-to-class paths of the product of |W| along each path.

    A model file may hold any finite weight, so a sum can pass the largest
    float and become ``+inf``; ``blame_scores`` then ranks that element first.
    Element-to-structure sums are held at the largest float before the last
    product, where an infinity times an unlinked pair's zero would give NaN.
    """
    product = np.abs(model.nets[0].weights * model.nets[0].mask)
    with np.errstate(over="ignore"):
        product = product @ np.abs(model.nets[1].weights * model.nets[1].mask)
        product = np.minimum(product, _LARGEST_FLOAT)
        return product @ np.abs(model.nets[2].weights * model.nets[2].mask)


def blame_scores(
    trace: ActivationTrace,
    model: TnnModel,
    top2_classes: Sequence[str],
    paths: np.ndarray,
) -> dict[str, float]:
    """Responsibility per element: uncertainty times path weight to the contenders.

    ``paths`` is the model's ``_abs_path_weights``, computed once per call of
    ``recognize``.
    """
    topo = model.topology
    class_index = {name: i for i, name in enumerate(topo.documents)}
    cols = [class_index[name] for name in top2_classes]
    reach = paths[:, cols].sum(axis=1).tolist()
    scores: dict[str, float] = {}
    for name, to_contenders in zip(topo.elements, reach):
        uncertainty = 1.0 - abs(2.0 * trace.elements[name] - 1.0)
        scores[name] = uncertainty * to_contenders
    return scores


def blame_elements(
    trace: ActivationTrace,
    model: TnnModel,
    top2_classes: Sequence[str],
    levels: Mapping[str, int],
    max_levels: Mapping[str, int],
    paths: np.ndarray,
) -> list[str]:
    """Pick up to ``BLAME_BUDGET`` elements to raise one level, most responsible first.

    An element with no responsibility, or already at its ``max_levels``
    entry, is never picked; ties go to the topology's element order.
    ``paths`` is passed to ``blame_scores``.
    """
    scores = blame_scores(trace, model, top2_classes, paths)
    order = {name: i for i, name in enumerate(model.topology.elements)}
    candidates = [
        name for name, score in scores.items()
        if score > 0.0 and levels[name] < max_levels[name]
    ]
    candidates.sort(key=lambda n: (-scores[n], order[n]))
    return candidates[:BLAME_BUDGET]


def extract_structures(
    trace: ActivationTrace,
    model: TnnModel,
    winning_class: str | None,
    tau_struct: float,
) -> tuple[StructureHit, ...]:
    """Structure neurons above threshold, flagged by their link to the winner."""
    structures = model.topology.structures
    linked: list[bool | None] = [None] * len(structures)
    if winning_class is not None:
        net = model.nets[2]
        col = list(net.output_names).index(winning_class)
        linked = [link and weight > 0.0 for link, weight
                  in zip(net.mask[:, col].tolist(), net.weights[:, col].tolist())]
    hits = []
    for name, link in zip(structures, linked):
        activation = trace.structures[name]
        if activation < tau_struct:
            continue
        hits.append(StructureHit(name=name, activation=activation, linked_to_winner=link))
    return tuple(hits)


def _top_two(documents: Mapping[str, float], order: Sequence[str]) -> tuple[str, str]:
    ranked = sorted(order, key=lambda n: -documents[n])
    if len(ranked) == 1:
        return ranked[0], ranked[0]
    return ranked[0], ranked[1]


def accepts(
    trace: ActivationTrace,
    top1: str,
    top2: str,
    params: RecognizerParams,
    has_evidence: bool,
) -> tuple[float, float, bool]:
    """The accept test of one pass: ``(confidence, margin, accepted)``.

    ``top1`` and ``top2`` are the two strongest classes, the same class when
    the topology has one; the margin of a lone class is its confidence. A pass
    is accepted when the document has evidence and both thresholds are met.
    """
    confidence = trace.documents[top1]
    margin = confidence - trace.documents[top2] if top1 != top2 else confidence
    accepted = (
        has_evidence
        and confidence >= params.tau_accept
        and margin >= params.tau_margin
    )
    return confidence, margin, accepted


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
    levels = {name: 1 for name in model.topology.elements}
    # a document without tokens carries no evidence and can only be unknown,
    # whatever resting activations the trained thresholds produce
    has_evidence = bool(doc.tokens)
    # every pass re-evaluates all elements from this one reading of the document
    view = DocumentView(doc)
    paths = None  # the model's path weights and max_levels, computed at the first blame
    passes: list[PassRecord] = []
    for pass_no in range(1, params.max_passes + 1):
        overrides = {name: lvl for name, lvl in levels.items() if lvl > 1}
        vector = extract_all(ex, view, overrides)
        trace = forward_tnn(model, vector)
        top1, top2 = _top_two(trace.documents, model.topology.documents)
        confidence, margin, accepted = accepts(trace, top1, top2, params, has_evidence)
        blamed: tuple[str, ...] = ()
        if not accepted and pass_no < params.max_passes:
            if paths is None:
                paths = _abs_path_weights(model)
                max_levels = {name: ex[name].max_level for name in ex}
            blamed = tuple(
                blame_elements(trace, model, (top1, top2), levels, max_levels, paths)
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
