"""Cascaded monolayer networks with delta-rule training.

The four-layer transparent network is split into three monolayer networks,
one per adjacent layer pair, each trained separately on its own targets.
Per-sample online updates follow the plain delta rule

    delta_k = S_k * (1 - S_k) * (desired_k - S_k)
    dW_jk   = mu * S_j * delta_k
    W_jk(t+1) = W_jk(t) + dW_jk

with the activation threshold trained as a weight on a constant input of -1.
Weights for pairs that are not linked in the topology are pinned to zero and
never updated, which is what keeps every neuron's meaning intact.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .documents import (
    DocumentInstance,
    check_version,
    expect_type,
    finite_number,
    read_json,
    require,
    write_json,
)
from .features import ElementExtractor, extract_all
from .topology import NetworkConfig, Topology, config_from_dict, config_to_dict

MODEL_FORMAT_VERSION = 1

_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)
# sigmoid skips its clamp when no |x| exceeds this (see sigmoid)
SIGMOID_CLAMP_FREE = 30.0


class ModelFormatError(ValueError):
    """Raised for unreadable or inconsistent model files."""


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), kept strictly inside (0, 1).

    Branch-free form of the two stable branches: with e = exp(-|x|) it is
    1 / (1 + e) for x >= 0 and e / (1 + e) below, so exp never overflows.
    The numerator exp(min(x, 0)) is exactly 1 for x >= 0 and exactly e below,
    so one quotient gives both branches bit for bit. The clamp to
    [nextafter(0, 1), nextafter(1, 0)] runs only when some |x| exceeds
    ``SIGMOID_CLAMP_FREE`` (30): at or below it e >= exp(-30), about 9e-14,
    so 1 + e rounds above 1 and e / (1 + e) above 0, and the clamp returns
    every value unchanged. It first changes a value beyond |x| = 36.7, where
    1 + e rounds to 1, and below x = -745, where e underflows to 0.
    """
    arr = np.asarray(x, dtype=float)
    a = np.abs(arr)
    # the max of |x| is NaN or inf exactly when some input is not finite
    top = np.maximum.reduce(a, None) if a.size else 0.0
    if not top < np.inf:
        raise ValueError("sigmoid requires finite input")
    out = np.exp(np.minimum(arr, 0.0)) / (1.0 + np.exp(-a))
    if top > SIGMOID_CLAMP_FREE:
        out = np.minimum(np.maximum(out, _SIG_LO), _SIG_HI)
    return float(out) if arr.ndim == 0 else out


def link_mask(
    input_names: Sequence[str], output_names: Sequence[str], links: Iterable[tuple[str, str]]
) -> np.ndarray:
    """Boolean (n_in, n_out) matrix, True where ``links`` joins input to output."""
    in_index = {n: i for i, n in enumerate(input_names)}
    out_index = {n: i for i, n in enumerate(output_names)}
    mask = np.zeros((len(input_names), len(output_names)), dtype=bool)
    for src, dst in links:
        mask[in_index[src], out_index[dst]] = True
    return mask


@dataclass
class LayerNetwork:
    """One input layer / output layer pair with a link mask."""

    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    weights: np.ndarray     # (n_in, n_out); entries for non-linked pairs stay 0
    thresholds: np.ndarray  # (n_out,)
    mask: np.ndarray        # bool (n_in, n_out)

    @classmethod
    def create(
        cls,
        input_names: Sequence[str],
        output_names: Sequence[str],
        links: Iterable[tuple[str, str]],
        rng: np.random.Generator,
    ) -> "LayerNetwork":
        input_names = tuple(input_names)
        output_names = tuple(output_names)
        mask = link_mask(input_names, output_names, links)
        weights = rng.uniform(-0.5, 0.5, size=mask.shape) * mask
        thresholds = np.zeros(len(output_names))
        return cls(input_names, output_names, weights, thresholds, mask)

    @property
    def linked_weight_count(self) -> int:
        return int(self.mask.sum())

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape != (len(self.input_names),):
            raise ValueError(
                f"dimension mismatch: got {inputs.shape}, expected ({len(self.input_names)},)"
            )
        # ndarray.dot: the same product as @, with less dispatch per call
        return sigmoid(inputs.dot(self.weights) - self.thresholds)


@dataclass(frozen=True)
class TrainingStats:
    epochs: int
    samples: int
    update_passes: int    # one per sample per epoch
    weight_updates: int   # linked-weight applications, excludes thresholds
    final_mse: float


def train_nn1(
    net: LayerNetwork,
    samples: Sequence[tuple[Sequence[float], Sequence[float]]],
    mu: float = 0.5,
    epsilon: float = 0.01,
    max_epochs: int = 1000,
) -> TrainingStats:
    """Online delta-rule training of one monolayer network.

    Stops when an epoch's mean squared error drops below epsilon or the epoch
    cap is reached. Thresholds learn as bias weights on a constant -1 input.
    """
    if not samples:
        raise ValueError("sample list must be non-empty")
    xs = np.asarray([x for x, _ in samples], dtype=float)
    ts = np.asarray([t for _, t in samples], dtype=float)
    if xs.shape[1] != len(net.input_names) or ts.shape[1] != len(net.output_names):
        raise ValueError("sample dimensions do not match the network")
    if np.any(ts < 0.0) or np.any(ts > 1.0):
        raise ValueError("targets must lie in [0, 1]")
    linked = net.linked_weight_count
    # one factor for mu and the mask: rounds like scaling by mu, then masking
    step = mu * net.mask
    width = len(net.output_names)
    passes = 0
    updates = 0
    mse = float("inf")
    epoch = 0
    for epoch in range(1, max_epochs + 1):
        squared = 0.0
        for x, t in zip(xs, ts):
            s = net.forward(x)
            err = t - s
            # np.mean's sum and division, without its dispatch
            squared += float(np.add.reduce(err * err)) / width
            delta = s * (1.0 - s) * err
            # mu * outer(x, delta) * mask: each entry is scaled by mu or by 0
            g = np.multiply.outer(x, delta)
            g *= step
            net.weights += g
            net.thresholds += mu * -1.0 * delta
            passes += 1
            updates += linked
        mse = squared / len(xs)
        if mse < epsilon:
            break
    return TrainingStats(
        epochs=epoch,
        samples=len(xs),
        update_passes=passes,
        weight_updates=updates,
        final_mse=mse,
    )


@dataclass(frozen=True)
class ActivationTrace:
    """Named activations of all four layers after one forward propagation."""

    elements: dict[str, float]
    substructures: dict[str, float]
    structures: dict[str, float]
    documents: dict[str, float]


@dataclass(frozen=True)
class TnnTrainingSummary:
    stats: tuple[TrainingStats, TrainingStats, TrainingStats]
    class_counts: Mapping[str, int]

    @property
    def total_update_passes(self) -> int:
        return sum(s.update_passes for s in self.stats)

    @property
    def total_weight_updates(self) -> int:
        return sum(s.weight_updates for s in self.stats)

    @property
    def trained_documents(self) -> int:
        return sum(self.class_counts.values())


@dataclass
class TnnModel:
    """Topology-shaped cascade of three monolayer networks."""

    config: NetworkConfig
    nets: tuple[LayerNetwork, LayerNetwork, LayerNetwork]
    seed: int
    training: TnnTrainingSummary | None = None

    @classmethod
    def create(cls, config: NetworkConfig, seed: int = 0) -> "TnnModel":
        rng = np.random.default_rng(seed)
        topology = config.topology
        nets = tuple(
            LayerNetwork.create(inp, out, topology.links_between(inp, out), rng)
            for inp, out in topology.layer_pairs()
        )
        return cls(config=config, nets=nets, seed=seed)

    @property
    def topology(self) -> Topology:
        return self.config.topology

    def build_extractors(self) -> Mapping[str, ElementExtractor]:
        """The config's extractors, built once when the config was made."""
        return self.config.element_extractors

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TnnModel):
            return NotImplemented
        return model_to_dict(self) == model_to_dict(other)


def _element_array(topology: Topology, values: Mapping[str, float]) -> np.ndarray:
    names = topology.elements
    # element names are unique, so equal sizes and no name missing mean the same keys
    if len(values) != len(names) or not all(name in values for name in names):
        missing = set(names) - set(values)
        if missing:
            raise ValueError(f"element vector incomplete, missing: {sorted(missing)}")
        extra = set(values) - set(names)
        if extra:
            raise ValueError(f"element vector has unknown entries: {sorted(extra)}")
    return np.asarray([values[name] for name in names], dtype=float)


def forward_tnn(model: TnnModel, elements: Mapping[str, float]) -> ActivationTrace:
    """Propagate element activations up through the three networks."""
    x = _element_array(model.topology, elements)
    sub = model.nets[0].forward(x)
    struct = model.nets[1].forward(sub)
    doc = model.nets[2].forward(struct)
    topo = model.topology
    return ActivationTrace(
        elements=dict(zip(topo.elements, x.tolist())),
        substructures=dict(zip(topo.substructures, sub.tolist())),
        structures=dict(zip(topo.structures, struct.tolist())),
        documents=dict(zip(topo.documents, doc.tolist())),
    )


def _binary_targets(names: tuple[str, ...], present: frozenset[str]) -> list[float]:
    return [1.0 if name in present else 0.0 for name in names]


def count_classes(docs: Sequence[DocumentInstance], topology: Topology) -> dict[str, int]:
    """Documents per class of a training corpus, in the topology's class order.

    Refuses an empty corpus and a document without labels, naming it.
    """
    if not docs:
        raise ValueError("training corpus is empty")
    counts = {name: 0 for name in topology.documents}
    for doc in docs:
        if doc.labels is None:
            raise ValueError(f"document '{doc.id}' is missing labels")
        counts[doc.labels.document_class] += 1
    return counts


def train_tnn(model: TnnModel, docs: Sequence[DocumentInstance]) -> TnnTrainingSummary:
    """Train the three networks separately on fully labeled documents.

    Each network gets ground-truth inputs from the layer below (teacher
    forcing), so the three training problems stay independent; the learned
    weights then drive the full cascade.
    """
    topo = model.topology
    counts = count_classes(docs, topo)
    element_rows = [
        _element_array(topo, extract_all(model.config.element_extractors, doc)).tolist()
        for doc in docs
    ]
    sub_rows = [_binary_targets(topo.substructures, doc.labels.substructures) for doc in docs]
    struct_rows = [_binary_targets(topo.structures, doc.labels.structures) for doc in docs]
    class_rows = [
        _binary_targets(topo.documents, frozenset([doc.labels.document_class]))
        for doc in docs
    ]
    hp = model.config.hyperparams
    stats = (
        train_nn1(model.nets[0], list(zip(element_rows, sub_rows)),
                  hp.mu, hp.epsilon, hp.max_epochs),
        train_nn1(model.nets[1], list(zip(sub_rows, struct_rows)),
                  hp.mu, hp.epsilon, hp.max_epochs),
        train_nn1(model.nets[2], list(zip(struct_rows, class_rows)),
                  hp.mu, hp.epsilon, hp.max_epochs),
    )
    summary = TnnTrainingSummary(stats=stats, class_counts=counts)
    model.training = summary
    return summary


# --- serialization -----------------------------------------------------------

def _stats_to_dict(stats: TrainingStats) -> dict:
    return {
        "epochs": stats.epochs,
        "samples": stats.samples,
        "update_passes": stats.update_passes,
        "weight_updates": stats.weight_updates,
        "final_mse": stats.final_mse,
    }


def read_number(payload: object, key: str, kind: type, where: str) -> float | int:
    """``payload[key]``, an integer (``kind`` int) or a finite number (float), >= 0.

    Every number of a training record is a count or a squared error, so
    none is negative. Raises ModelFormatError that names the key; nothing is
    converted.
    """
    value = expect_type(require(payload, key, ModelFormatError, where), kind,
                        ModelFormatError, f"{where} {key!r}")
    if kind is float and not finite_number(value):
        raise ModelFormatError(f"{where} {key!r} must be a finite number, got {value!r}")
    if value < 0:
        raise ModelFormatError(f"{where} {key!r} must be >= 0, got {value!r}")
    return value


def read_class_counts(counts: object, topology: Topology) -> dict[str, int]:
    """A training record's documents per class; every key must be a class of ``topology``."""
    counts = expect_type(counts, Mapping, ModelFormatError, "model training 'class_counts'")
    unknown = [name for name in counts if name not in topology.documents]
    if unknown:
        raise ModelFormatError(f"model training 'class_counts' names classes the "
                               f"topology does not have: {unknown}")
    return {name: read_number(counts, name, int, "training class_counts") for name in counts}


def read_matrix(payload: object, key: str, where: str) -> np.ndarray:
    """``payload[key]`` as a float array, refusing NaN and infinities at load."""
    # a float conversion would accept a bool or a numeric string, so every
    # entry's JSON type is checked before it
    entries = np.asarray(require(payload, key, ModelFormatError, where), dtype=object)
    for entry in entries.flat:
        expect_type(entry, float, ModelFormatError, f"{where} {key!r} entry")
        if not finite_number(entry):
            raise ModelFormatError(f"{where} {key!r} holds a value that is not finite")
    return entries.astype(float)


def read_seed(payload: Mapping) -> int:
    """A model file's seed, 0 when absent."""
    if "seed" not in payload:
        return 0
    return expect_type(payload["seed"], int, ModelFormatError, "model file 'seed'")


def _stats_from_dict(payload: object, where: str) -> TrainingStats:
    return TrainingStats(
        epochs=read_number(payload, "epochs", int, where),
        samples=read_number(payload, "samples", int, where),
        update_passes=read_number(payload, "update_passes", int, where),
        weight_updates=read_number(payload, "weight_updates", int, where),
        final_mse=read_number(payload, "final_mse", float, where),
    )


def model_to_dict(model: TnnModel) -> dict:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "tnn",
        "config": config_to_dict(model.config),
        "seed": model.seed,
        "layer_networks": [
            {
                "inputs": list(net.input_names),
                "outputs": list(net.output_names),
                "weights": net.weights.tolist(),
                "thresholds": net.thresholds.tolist(),
            }
            for net in model.nets
        ],
        "training": None,
    }
    if model.training is not None:
        payload["training"] = {
            "class_counts": dict(model.training.class_counts),
            "stats": [_stats_to_dict(s) for s in model.training.stats],
        }
    return payload


def model_config(payload: Mapping, kind: str) -> NetworkConfig:
    """Check a model file's format_version and kind, then read its config."""
    check_version(payload, MODEL_FORMAT_VERSION, ModelFormatError, "model")
    if payload.get("kind") != kind:
        raise ModelFormatError(f"expected kind {kind!r}, found {payload.get('kind')!r}")
    config = expect_type(require(payload, "config", ModelFormatError, "model file"), Mapping,
                         ModelFormatError, "model file 'config'")
    return config_from_dict(config)


def model_from_dict(payload: Mapping) -> TnnModel:
    config = model_config(payload, "tnn")
    raw_nets = expect_type(payload.get("layer_networks", []), list, ModelFormatError,
                           "model file 'layer_networks'")
    pairs = config.topology.layer_pairs()
    if len(raw_nets) != len(pairs):
        raise ModelFormatError(f"expected {len(pairs)} layer networks, found {len(raw_nets)}")
    nets = []
    for i, (raw, (inp, out)) in enumerate(zip(raw_nets, pairs)):
        where = f"layer network {i}"
        weights = read_matrix(raw, "weights", where)
        thresholds = read_matrix(raw, "thresholds", where)
        inputs = require(raw, "inputs", ModelFormatError, where)
        outputs = require(raw, "outputs", ModelFormatError, where)
        # JSON gives lists; comparing with lists also refuses a name list of another type
        if inputs != list(inp) or outputs != list(out):
            raise ModelFormatError("layer network names disagree with the topology")
        if weights.shape != (len(inp), len(out)) or thresholds.shape != (len(out),):
            raise ModelFormatError(
                f"matrix shape {weights.shape} disagrees with topology layers "
                f"({len(inp)}, {len(out)})"
            )
        mask = link_mask(inp, out, config.topology.links_between(inp, out))
        if np.any(weights[~mask] != 0.0):
            raise ModelFormatError("non-zero weight on a pair the topology does not link")
        nets.append(LayerNetwork(inp, out, weights, thresholds, mask))
    training = None
    if payload.get("training") is not None:
        raw_training = payload["training"]
        raw_stats = expect_type(require(raw_training, "stats", ModelFormatError, "model training"),
                                list, ModelFormatError, "model training 'stats'")
        # one record per layer network
        if len(raw_stats) != len(pairs):
            raise ModelFormatError(
                f"expected {len(pairs)} training stats, found {len(raw_stats)}")
        training = TnnTrainingSummary(
            stats=tuple(
                _stats_from_dict(s, f"training stats {i}") for i, s in enumerate(raw_stats)
            ),
            class_counts=read_class_counts(
                require(raw_training, "class_counts", ModelFormatError, "model training"),
                config.topology),
        )
        # every layer network trains once on each document of the corpus
        for i, stats in enumerate(training.stats):
            if stats.samples != training.trained_documents:
                raise ModelFormatError(
                    f"model training 'class_counts' total {training.trained_documents} "
                    f"documents, but training stats {i} has {stats.samples} samples")
    return TnnModel(
        config=config,
        nets=tuple(nets),
        seed=read_seed(payload),
        training=training,
    )


def save_model(model: TnnModel, path: str | Path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path: str | Path) -> TnnModel:
    return model_from_dict(read_json(path, ModelFormatError))
