"""Fully connected baseline network.

Same input and output layers as the transparent cascade, but the two middle
layers are plain hidden layers: dense weights, no link mask, no named
concepts. Trained end to end with backpropagation of the gradient on a
squared-error loss, so it can rank document classes but exposes no structure
output and no refinement hook.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .documents import DocumentInstance, expect_number, expect_type, read_json, write_json
from .features import extract_all
from .network import (
    MODEL_FORMAT_VERSION,
    ONE0,
    ModelFormatError,
    _element_array,
    check_pass_count,
    count_classes,
    label_rows,
    model_config,
    read_class_counts,
    read_matrix,
    read_number,
    read_seed,
    require_samples,
    scalar_operand,
    sigmoid,
)
from .topology import NetworkConfig, config_to_dict


@dataclass(frozen=True)
class MlpTrainingStats:
    epochs: int
    samples: int
    backward_passes: int
    final_mse: float
    # a dict, not any Mapping: mlp_to_dict writes the record with dataclasses.asdict
    class_counts: dict[str, int] = field(default_factory=dict)


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
        rng = np.random.default_rng(expect_number(seed, int, ValueError, "seed", 0))
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
    # ndarray.dot: the same products as @, with less dispatch per call; each
    # result is fresh, so the bias is added in place
    w, b = model.weights, model.biases
    z = x.dot(w[0])
    z += b[0]
    a1 = sigmoid(z)
    z = a1.dot(w[1])
    z += b[1]
    a2 = sigmoid(z)
    z = a2.dot(w[2])
    z += b[2]
    a3 = sigmoid(z)
    return a1, a2, a3


def forward_mlp(model: MlpModel, elements: Mapping[str, float]) -> np.ndarray:
    """Class activation vector, ordered like the topology's document layer."""
    x = _element_array(model.config.topology, elements)
    return _forward_all(model, x)[2]


# the constant 1 that each bias gradient entry multiplies
_ONE = np.ones(1)


@lru_cache(maxsize=None)
def _gather_index(sizes: tuple[int, int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays that lay the outer products out as one flat gradient.

    With u = (x, a1, a2, 1) and d = (d1, d2, d3), entry k of the flat gradient
    is u[left[k]] * d[right[k]]: W0, W1, W2 row-major, then b0, b1, b2.
    """
    n0, n1, n2, _ = sizes
    u = np.arange(n0 + n1 + n2 + 1)
    d = np.arange(sum(sizes[1:]))
    # (rows, columns) of W0, W1, W2; the biases are d whole, each times the 1 at u[-1]
    blocks = ((u[:n0], d[:n1]), (u[n0:n0 + n1], d[n1:n1 + n2]), (u[n0 + n1:-1], d[n1 + n2:]))
    left = [np.repeat(rows, cols.size) for rows, cols in blocks] + [np.full(d.size, u[-1])]
    right = [np.tile(cols, rows.size) for rows, cols in blocks] + [d]
    left, right = np.concatenate(left), np.concatenate(right)
    # every caller shares the cached arrays
    left.flags.writeable = right.flags.writeable = False
    return left, right


def split_flat(model: MlpModel, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of a flat parameter-shaped vector as (weights, biases) per layer.

    The layout is the one ``gradients`` returns: W0, W1, W2 row-major, then
    b0, b1, b2, shaped like ``model.weights`` and ``model.biases``.
    """
    weights = []
    biases = []
    start = 0
    for w in model.weights:
        weights.append(flat[start:start + w.size].reshape(w.shape))
        start += w.size
    for b in model.biases:
        biases.append(flat[start:start + b.size])
        start += b.size
    return weights, biases


def gradients(
    model: MlpModel, x: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """One backward pass for loss = 0.5 * sum((y - t)^2): (grad, output, loss).

    ``grad`` is one fresh flat vector of dLoss/dW and dLoss/db laid out W0,
    W1, W2 (row-major), then b0, b1, b2; ``split_flat`` gives its per-layer
    views. Each weight entry is the single product x_i * d_j that
    ``np.outer`` forms and each bias entry is d_j, so the flat vector holds
    the per-layer gradients bit for bit.
    """
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    a1, a2, a3 = _forward_all(model, x)
    d3 = a3 - target
    loss = 0.5 * float(np.add.reduce(d3 * d3))
    # each delta is (W.dot(d) * a) * (1 - a), built in place on a fresh array
    # in that left-to-right order
    d3 *= a3
    d3 *= ONE0 - a3
    d2 = model.weights[2].dot(d3)
    d2 *= a2
    d2 *= ONE0 - a2
    d1 = model.weights[1].dot(d2)
    d1 *= a1
    d1 *= ONE0 - a1
    left, right = _gather_index((x.size, a1.size, a2.size, a3.size))
    grad = np.concatenate((x, a1, a2, _ONE)).take(left)
    grad *= np.concatenate((d1, d2, d3)).take(right)
    return grad, a3, loss


def train_mlp(model: MlpModel, docs: Sequence[DocumentInstance]) -> MlpTrainingStats:
    """Online gradient descent on class labels only; hidden layers get no targets."""
    topo = model.config.topology
    counts = count_classes(docs, topo)
    xs = np.asarray(
        [_element_array(topo, extract_all(model.config.element_extractors, doc))
         for doc in docs],
        dtype=float,
    )
    ts = label_rows(topo.documents, ((doc.labels.document_class,) for doc in docs))
    return train_mlp_on_samples(model, xs, ts, class_counts=counts)


def train_mlp_on_samples(
    model: MlpModel,
    xs: np.ndarray,
    ts: np.ndarray,
    class_counts: Mapping[str, int] | None = None,
) -> MlpTrainingStats:
    """Backpropagation over the rows ``require_samples`` accepts; one backward pass per sample.

    The six weight and bias arrays are copied into one flat vector, laid out
    like the gradient, and ``model.weights`` / ``model.biases`` are rebound to
    views of it. Each sample then calls ``gradients`` exactly once and applies
    its flat gradient with one in-place scale and one in-place subtract.
    """
    xs, ts = require_samples(xs, ts, model.weights[0].shape[0], model.biases[-1].size)
    hp = model.config.hyperparams
    # the step as a 0-d array: the per-sample scale skips a Python float's conversion
    mu = scalar_operand(hp.mu)
    params = np.concatenate([w.ravel() for w in model.weights] + model.biases)
    model.weights[:], model.biases[:] = split_flat(model, params)
    backward = 0
    mse = float("inf")
    epoch = 0
    for epoch in range(1, hp.max_epochs + 1):
        squared = 0.0
        for x, t in zip(xs, ts):
            grad, _, loss = gradients(model, x, t)
            # loss is half the squared error; doubling it is exact
            squared += 2.0 * loss / t.size
            # the gradient is a fresh array: scale it in place, then subtract,
            # which rounds exactly like W -= mu * g
            grad *= mu
            params -= grad
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
        payload["training"] = asdict(model.training)
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
        check_pass_count(raw_training, "backward_passes", "model training")
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
