"""Pinned behaviour fingerprint of the benchmark's default seeds.

The fingerprint holds only integers and strings, so it does not move with
numpy builds or float formatting: the (id, status, class, pass count) of every
document in each workload's first served block, the counts of the evaluation
report, and the epochs and update counts of both trainings. A refactor or a
performance change must leave it unchanged.

Regenerate it (only when a change of behaviour is intended and reviewed) with

    python3 benchmarks/fingerprint.py
"""
from __future__ import annotations

import json
from pathlib import Path

PATH = Path(__file__).resolve().parent / "fingerprint.json"


def eval_counts(report) -> dict:
    """Every count of an evaluation report; rates and the cost ratio are left out."""
    cost = report.cost
    return {
        "tnn_classes": [[r.name, r.trained, r.tested, r.recognized] for r in report.tnn_classes],
        "tnn_structures": [[r.name, r.tested, r.recognized] for r in report.tnn_structures],
        "tnn_confusion": report.tnn_confusion,
        "mlp_classes": [[r.name, r.trained, r.tested, r.recognized] for r in report.mlp_classes],
        "mlp_confusion": report.mlp_confusion,
        "cost": None if cost is None else {
            "tnn_update_passes": cost.tnn_update_passes,
            "tnn_weight_updates": cost.tnn_weight_updates,
            "tnn_train_documents": cost.tnn_train_documents,
            "tnn_epochs": list(cost.tnn_epochs),
            "mlp_backward_passes": cost.mlp_backward_passes,
            "mlp_train_documents": cost.mlp_train_documents,
            "mlp_epochs": cost.mlp_epochs,
        },
    }


def load(path: Path = PATH) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def compare(label: str, expected, actual) -> list[str]:
    """Describe where ``actual`` departs from ``expected``; empty when equal."""
    # round-trip through JSON so tuples and lists compare alike
    actual = json.loads(json.dumps(actual))
    if expected == actual:
        return []
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{label}: {len(actual)} entries, expected {len(expected)}"]
        diffs = [f"{label}[{i}]: {a!r}, expected {e!r}"
                 for i, (e, a) in enumerate(zip(expected, actual)) if e != a]
        return diffs[:5] + ([f"{label}: {len(diffs) - 5} more differences"]
                            if len(diffs) > 5 else [])
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            problems += compare(f"{label}.{key}", expected.get(key), actual.get(key))
        return problems
    return [f"{label}: {actual!r}, expected {expected!r}"]


def _regenerate() -> None:
    import run  # pins BLAS threads and puts src/ on the import path
    import workloads

    pinned: dict = {}
    with run.scratch_dir() as workdir:
        for workload in workloads.WORKLOADS.values():
            outcome = workloads.run(workload, workload.default_seed, 0.0, workdir, None)
            record = dict(outcome.record)
            pinned["training"] = record.pop("training")
            pinned[workload.name] = record
    PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    _regenerate()
