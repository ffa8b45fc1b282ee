"""Recognition-rate tables and training-cost comparison for both models.

Produces per-class document recognition rows for the transparent network
and the dense baseline, per-structure extraction rows (the baseline has no
structure output, so only the transparent network gets those), confusion
matrices with an explicit reject column, and the backward-pass cost ratio.
``build_report`` counts each table in one place, from the documents' labels
and their per-document answers: the ``RecognitionResult`` that
``evaluate_tnn`` keeps and the class that ``evaluate_mlp`` ranks first.

Both networks read the same level-1 element vector. When both configs
declare equal extractor specs, ``build_report`` hands the baseline each
document's first-pass element values from its recognition. Pass 1 raises no
level, so those are the values ``extract_all`` gives, and each document is
extracted once. With differing specs the baseline extracts every document
itself.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .documents import DocumentInstance, require_labels
from .features import extract_all
from .mlp import MlpModel, MlpTrainingStats, forward_mlp
from .network import TnnModel, TnnTrainingSummary
from .recognizer import DEFAULT_PARAMS, RecognitionResult, RecognizerParams, recognize

REJECT_LABEL = "rejected"


@dataclass(frozen=True)
class ClassRow:
    name: str
    trained: int
    tested: int
    recognized: int

    @property
    def rate(self) -> float | None:
        return None if self.tested == 0 else self.recognized / self.tested


@dataclass(frozen=True)
class StructureRow:
    name: str
    tested: int
    recognized: int

    @property
    def rate(self) -> float | None:
        return None if self.tested == 0 else self.recognized / self.tested


@dataclass(frozen=True)
class CostComparison:
    tnn_update_passes: int
    tnn_weight_updates: int
    tnn_train_documents: int
    mlp_backward_passes: int
    mlp_train_documents: int
    tnn_epochs: tuple[int, ...]
    mlp_epochs: int

    @property
    def ratio(self) -> float | None:
        if self.tnn_update_passes == 0:
            return None
        return self.mlp_backward_passes / self.tnn_update_passes


@dataclass(frozen=True)
class EvalReport:
    tnn_classes: tuple[ClassRow, ...]
    tnn_structures: tuple[StructureRow, ...]
    tnn_confusion: dict[str, dict[str, int]]
    mlp_classes: tuple[ClassRow, ...] = ()
    mlp_confusion: dict[str, dict[str, int]] = field(default_factory=dict)
    cost: CostComparison | None = None
    # each test document's recognition, in document order; not serialized
    recognitions: tuple[RecognitionResult, ...] = ()

    @property
    def tnn_aggregate(self) -> ClassRow:
        return _aggregate_classes(self.tnn_classes)

    @property
    def mlp_aggregate(self) -> ClassRow:
        return _aggregate_classes(self.mlp_classes)

    @property
    def structure_aggregate(self) -> StructureRow:
        return StructureRow(
            name="all structures",
            tested=sum(r.tested for r in self.tnn_structures),
            recognized=sum(r.recognized for r in self.tnn_structures),
        )


def _aggregate_classes(rows: Sequence[ClassRow]) -> ClassRow:
    return ClassRow(
        name="all documents",
        trained=sum(r.trained for r in rows),
        tested=sum(r.tested for r in rows),
        recognized=sum(r.recognized for r in rows),
    )


def _class_rows(confusion: Mapping[str, Mapping[str, int]],
                training: TnnTrainingSummary | MlpTrainingStats | None) -> tuple[ClassRow, ...]:
    """One row per true class: tested is its confusion row's sum, recognized its diagonal."""
    counts = training.class_counts if training is not None else {}
    return tuple(
        ClassRow(name=n, trained=int(counts.get(n, 0)), tested=sum(row.values()),
                 recognized=row[n])
        for n, row in confusion.items()
    )


def _confusion(classes: Sequence[str], columns: Sequence[str], docs: Sequence[DocumentInstance],
               predicted: Iterable[str]) -> dict[str, dict[str, int]]:
    """Documents counted by true class (rows) and predicted class (columns)."""
    confusion = {name: dict.fromkeys(columns, 0) for name in classes}
    for doc, name in zip(docs, predicted, strict=True):
        confusion[doc.labels.document_class][name] += 1
    return confusion


def verdict(result: RecognitionResult) -> str:
    """The accepted class, else ``REJECT_LABEL``; a document is right when it is its label."""
    return result.winning_class if result.status == "recognized" else REJECT_LABEL


def evaluate_tnn(
    model: TnnModel,
    docs: Sequence[DocumentInstance],
    params: RecognizerParams = DEFAULT_PARAMS,
) -> tuple[RecognitionResult, ...]:
    """Each labeled document's recognition, in document order."""
    require_labels(docs, model.topology)
    return tuple(recognize(model, doc, params) for doc in docs)


def evaluate_mlp(
    model: MlpModel,
    docs: Sequence[DocumentInstance],
    elements: Iterable[Mapping[str, float]] | None = None,
) -> tuple[str, ...]:
    """The class the baseline ranks first (plain argmax) for each labeled
    document, in document order; no structure output exists.

    ``elements``, when given, yields each document's level-1 element values,
    in document order, as ``extract_all`` with the model's extractors gives
    them; ``evaluate_mlp`` then extracts no document itself.
    """
    topo = model.config.topology
    require_labels(docs, topo)
    vectors = elements if elements is not None else (
        extract_all(model.config.element_extractors, doc) for doc in docs)
    return tuple(topo.documents[int(np.argmax(forward_mlp(model, values)))]
                 for _, values in zip(docs, vectors, strict=True))


def compare_training_cost(
    tnn_training: TnnTrainingSummary, mlp_training: MlpTrainingStats
) -> CostComparison:
    """Backward-pass bookkeeping: how many update passes each model needed."""
    return CostComparison(
        tnn_update_passes=tnn_training.total_update_passes,
        tnn_weight_updates=tnn_training.total_weight_updates,
        tnn_train_documents=tnn_training.trained_documents,
        mlp_backward_passes=mlp_training.backward_passes,
        mlp_train_documents=mlp_training.samples,
        tnn_epochs=tuple(s.epochs for s in tnn_training.stats),
        mlp_epochs=mlp_training.epochs,
    )


def build_report(
    tnn_model: TnnModel,
    test_docs: Sequence[DocumentInstance],
    params: RecognizerParams = DEFAULT_PARAMS,
    mlp_model: MlpModel | None = None,
) -> EvalReport:
    """Evaluate the transparent network, and the dense baseline when given.

    A baseline must rank the transparent network's classes: one trained on
    other classes is refused before any document is evaluated.

    The baseline ranks ``test_docs`` too. When both configs declare equal
    extractor specs, it reads each document's first-pass element values from
    the transparent network's recognition, which equal level-1 ``extract_all``,
    instead of extracting the document again.
    """
    topo = tnn_model.topology
    if mlp_model is not None:
        theirs = mlp_model.config.topology.documents
        if set(theirs) != set(topo.documents):
            raise ValueError(f"baseline classes {list(theirs)} differ from the "
                             f"transparent network's {list(topo.documents)}")
    results = evaluate_tnn(tnn_model, test_docs, params)
    tnn_confusion = _confusion(topo.documents, (*topo.documents, REJECT_LABEL),
                               test_docs, map(verdict, results))
    # a labeled structure is recognized when the recognition reports it
    found = [doc.labels.structures & {hit.name for hit in r.structures}
             for doc, r in zip(test_docs, results)]
    tnn_structures = tuple(
        StructureRow(name=n, tested=sum(n in doc.labels.structures for doc in test_docs),
                     recognized=sum(n in hits for hits in found))
        for n in topo.structures)
    mlp_classes: tuple[ClassRow, ...] = ()
    mlp_confusion: dict[str, dict[str, int]] = {}
    cost = None
    if mlp_model is not None:
        elements = None
        if mlp_model.config.extractors == tnn_model.config.extractors:
            elements = [r.passes[0].trace.elements for r in results]
        classes = mlp_model.config.topology.documents
        mlp_confusion = _confusion(classes, classes, test_docs,
                                   evaluate_mlp(mlp_model, test_docs, elements))
        mlp_classes = _class_rows(mlp_confusion, mlp_model.training)
        if tnn_model.training is not None and mlp_model.training is not None:
            cost = compare_training_cost(tnn_model.training, mlp_model.training)
    return EvalReport(
        tnn_classes=_class_rows(tnn_confusion, tnn_model.training),
        tnn_structures=tnn_structures,
        tnn_confusion=tnn_confusion,
        mlp_classes=mlp_classes,
        mlp_confusion=mlp_confusion,
        cost=cost,
        recognitions=results,
    )


# --- serialization and rendering ---------------------------------------------

def _row_dict(row: ClassRow | StructureRow) -> dict:
    return {**asdict(row), "rate": row.rate}


def report_to_dict(report: EvalReport) -> dict:
    payload = {
        "tnn": {
            "classes": [_row_dict(r) for r in report.tnn_classes],
            "aggregate": _row_dict(report.tnn_aggregate),
            "structures": [_row_dict(r) for r in report.tnn_structures],
            "structure_aggregate": _row_dict(report.structure_aggregate),
            "confusion": report.tnn_confusion,
        },
        "mlp": None,
        "cost": None,
    }
    if report.mlp_classes:
        payload["mlp"] = {
            "classes": [_row_dict(r) for r in report.mlp_classes],
            "aggregate": _row_dict(report.mlp_aggregate),
            "confusion": report.mlp_confusion,
        }
    if report.cost is not None:
        payload["cost"] = {
            **asdict(report.cost),
            "tnn_epochs": list(report.cost.tnn_epochs),
            "ratio": report.cost.ratio,
        }
    return payload


def _fmt_rate(rate: float | None) -> str:
    return "n/a" if rate is None else f"{100.0 * rate:.2f}%"


def _class_table(title: str, rows: Sequence[ClassRow], aggregate: ClassRow) -> list[str]:
    header = f"{'type of document':<18} {'trained':>8} {'tested':>8} {'recognized':>11} {'rate':>9}"
    lines = [title, header, "-" * len(header)]
    for row in (*rows, aggregate):
        lines.append(
            f"{row.name:<18} {row.trained:>8} {row.tested:>8} "
            f"{row.recognized:>11} {_fmt_rate(row.rate):>9}"
        )
    return lines


def _confusion_table(title: str, confusion: Mapping[str, Mapping[str, int]]) -> list[str]:
    if not confusion:
        return []
    columns = list(next(iter(confusion.values())).keys())
    corner = "true / predicted"
    header = f"{corner:<18}" + "".join(f"{c:>12}" for c in columns)
    lines = [title, header, "-" * len(header)]
    for truth, row in confusion.items():
        lines.append(f"{truth:<18}" + "".join(f"{row[c]:>12}" for c in columns))
    return lines


def render_report(report: EvalReport) -> str:
    lines: list[str] = []
    lines += _class_table(
        "Document recognition (transparent network)",
        report.tnn_classes,
        report.tnn_aggregate,
    )
    lines.append("")
    header = f"{'type of structure':<18} {'tested':>8} {'recognized':>11} {'rate':>9}"
    lines += ["Structure extraction (transparent network)", header, "-" * len(header)]
    for row in (*report.tnn_structures, report.structure_aggregate):
        lines.append(
            f"{row.name:<18} {row.tested:>8} {row.recognized:>11} {_fmt_rate(row.rate):>9}"
        )
    lines.append("")
    lines += _confusion_table(
        "Confusion (transparent network, reject column included)", report.tnn_confusion
    )
    if report.mlp_classes:
        lines.append("")
        lines += _class_table(
            "Document recognition (dense baseline)",
            report.mlp_classes,
            report.mlp_aggregate,
        )
        lines.append("")
        lines += _confusion_table("Confusion (dense baseline)", report.mlp_confusion)
    if report.cost is not None:
        lines.append("")
        lines.append("Training cost")
        epochs = "+".join(str(e) for e in report.cost.tnn_epochs)
        lines.append(f"  network update passes:  {report.cost.tnn_update_passes} "
                     f"(epochs {epochs})")
        lines.append(f"  network weight updates: {report.cost.tnn_weight_updates}")
        lines.append(f"  baseline backward passes: {report.cost.mlp_backward_passes} "
                     f"(epochs {report.cost.mlp_epochs})")
        ratio = report.cost.ratio
        lines.append(
            "  backward-to-update ratio: "
            + ("n/a" if ratio is None else f"{ratio:.2f}")
        )
    return "\n".join(lines) + "\n"
