"""Fully connected baseline network.

Same input and output layers as the transparent cascade, but the two middle
layers are plain hidden layers: dense weights, no link mask, no named
concepts. Trained end to end with backpropagation of the gradient on a
squared-error loss, so it can rank document classes but exposes no structure
output and no refinement hook.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .documents import DocumentInstance, expect_type, read_json, write_json
from .features import extract_all
from .network import (
    MODEL_FORMAT_VERSION,
    ModelFormatError,
    _element_array,
    count_classes,
    model_config,
    read_class_counts,
    read_matrix,
    read_number,
    read_seed,
    sigmoid,
)
from .topology import NetworkConfig, config_to_dict


@dataclass(frozen=True)
class MlpTrainingStats:
    epochs: int
    samples: int
    backward_passes: int
    final_mse: float
    class_counts: Mapping[str, int] = field(default_factory=dict)


@dataclass
class MlpModel:
    """Dense 4-layer perceptron sized from the topology's layer counts."""

    config: NetworkConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int
    training: MlpTrainingStats | None = None

    @classmethod
    def create(cls, config: NetworkConfig, seed: int = 0) -> "MlpModel":
        rng = np.random.default_rng(seed)
        layers = config.topology.layers()
        sizes = [len(names) for names in layers]
        weights = [
            rng.uniform(-0.5, 0.5, size=(sizes[i], sizes[i + 1])) for i in range(3)
        ]
        biases = [np.zeros(sizes[i + 1]) for i in range(3)]
        return cls(config=config, weights=weights, biases=biases, seed=seed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MlpModel):
            return NotImplemented
        return mlp_to_dict(self) == mlp_to_dict(other)


def _forward_all(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # ndarray.dot: the same products as @, with less dispatch per call
    a1 = sigmoid(x.dot(model.weights[0]) + model.biases[0])
    a2 = sigmoid(a1.dot(model.weights[1]) + model.biases[1])
    a3 = sigmoid(a2.dot(model.weights[2]) + model.biases[2])
    return a1, a2, a3


def forward_mlp(model: MlpModel, elements: Mapping[str, float]) -> np.ndarray:
    """Class activation vector, ordered like the topology's document layer."""
    x = _element_array(model.config.topology, elements)
    return _forward_all(model, x)[2]


def gradients(
    model: MlpModel, x: np.ndarray, target: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, float]:
    """One backward pass: dLoss/dW and dLoss/db for loss = 0.5 * sum((y - t)^2)."""
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    a1, a2, a3 = _forward_all(model, x)
    e = a3 - target
    loss = 0.5 * float(np.add.reduce(e * e))
    d3 = e * a3 * (1.0 - a3)
    d2 = model.weights[2].dot(d3) * a2 * (1.0 - a2)
    d1 = model.weights[1].dot(d2) * a1 * (1.0 - a1)
    outer = np.multiply.outer
    grad_w = [outer(x, d1), outer(a1, d2), outer(a2, d3)]
    grad_b = [d1, d2, d3]
    return grad_w, grad_b, a3, loss


def train_mlp(model: MlpModel, docs: Sequence[DocumentInstance]) -> MlpTrainingStats:
    """Online gradient descent on class labels only; hidden layers get no targets."""
    topo = model.config.topology
    counts = count_classes(docs, topo)
    xs = np.asarray(
        [_element_array(topo, extract_all(model.config.element_extractors, doc))
         for doc in docs],
        dtype=float,
    )
    class_index = {name: i for i, name in enumerate(topo.documents)}
    ts = np.zeros((len(docs), len(topo.documents)))
    for row, doc in enumerate(docs):
        ts[row, class_index[doc.labels.document_class]] = 1.0
    return train_mlp_on_samples(model, xs, ts, class_counts=counts)


def train_mlp_on_samples(
    model: MlpModel,
    xs: np.ndarray,
    ts: np.ndarray,
    class_counts: Mapping[str, int] | None = None,
) -> MlpTrainingStats:
    """Backpropagation over raw (input, target) rows; one backward pass per sample."""
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if len(xs) == 0:
        raise ValueError("sample set is empty")
    hp = model.config.hyperparams
    mu = hp.mu
    params = model.weights + model.biases
    backward = 0
    mse = float("inf")
    epoch = 0
    for epoch in range(1, hp.max_epochs + 1):
        squared = 0.0
        for x, t in zip(xs, ts):
            grad_w, grad_b, _, loss = gradients(model, x, t)
            # loss is half the squared error; doubling it is exact
            squared += 2.0 * loss / t.size
            # the gradients are fresh arrays: scale them in place, then subtract,
            # which rounds exactly like W -= mu * g
            for p, g in zip(params, grad_w + grad_b):
                g *= mu
                p -= g
            backward += 1
        mse = squared / len(xs)
        if mse < hp.epsilon:
            break
    stats = MlpTrainingStats(
        epochs=epoch,
        samples=len(xs),
        backward_passes=backward,
        final_mse=mse,
        class_counts=dict(class_counts or {}),
    )
    model.training = stats
    return stats


def mlp_to_dict(model: MlpModel) -> dict:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "mlp",
        "config": config_to_dict(model.config),
        "seed": model.seed,
        "layers": [
            {"weights": w.tolist(), "biases": b.tolist()}
            for w, b in zip(model.weights, model.biases)
        ],
        "training": None,
    }
    if model.training is not None:
        payload["training"] = {
            "epochs": model.training.epochs,
            "samples": model.training.samples,
            "backward_passes": model.training.backward_passes,
            "final_mse": model.training.final_mse,
            "class_counts": dict(model.training.class_counts),
        }
    return payload


def mlp_from_dict(payload: Mapping) -> MlpModel:
    config = model_config(payload, "mlp")
    sizes = [len(names) for names in config.topology.layers()]
    raw_layers = expect_type(payload.get("layers", []), list, ModelFormatError,
                             "model file 'layers'")
    if len(raw_layers) != 3:
        raise ModelFormatError(f"expected 3 dense layers, found {len(raw_layers)}")
    weights = []
    biases = []
    for i, raw in enumerate(raw_layers):
        w = read_matrix(raw, "weights", f"dense layer {i}")
        b = read_matrix(raw, "biases", f"dense layer {i}")
        if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
            raise ModelFormatError(
                f"matrix shape {w.shape} disagrees with topology layers "
                f"({sizes[i]}, {sizes[i + 1]})"
            )
        weights.append(w)
        biases.append(b)
    training = None
    if payload.get("training") is not None:
        raw_training = expect_type(payload["training"], Mapping, ModelFormatError,
                                   "model file 'training'")
        training = MlpTrainingStats(
            epochs=read_number(raw_training, "epochs", int, "model training"),
            samples=read_number(raw_training, "samples", int, "model training"),
            backward_passes=read_number(raw_training, "backward_passes", int, "model training"),
            final_mse=read_number(raw_training, "final_mse", float, "model training"),
            class_counts=read_class_counts(raw_training.get("class_counts", {}),
                                           config.topology),
        )
    return MlpModel(
        config=config,
        weights=weights,
        biases=biases,
        seed=read_seed(payload),
        training=training,
    )


def save_mlp(model: MlpModel, path: str | Path) -> None:
    write_json(mlp_to_dict(model), path)


def load_mlp(path: str | Path) -> MlpModel:
    return mlp_from_dict(read_json(path, ModelFormatError))
