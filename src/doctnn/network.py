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

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .documents import (
    DocumentInstance,
    check_version,
    expect_number,
    expect_type,
    finite_number,
    read_json,
    require,
    require_labels,
    write_json,
)
from .features import ElementExtractor, extract_all
from .topology import Hyperparams, NetworkConfig, Topology, config_from_dict, config_to_dict

MODEL_FORMAT_VERSION = 1

_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)
# sigmoid skips its finiteness reduce and its clamp when the norm of x is at
# or below this (see sigmoid)
SIGMOID_CLAMP_FREE = 30.0


def scalar_operand(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, for a per-sample ufunc operand.

    numpy converts a Python float operand on every call, which costs about
    as much as the operation itself on a vector of a few entries; a 0-d
    array skips that, and the IEEE operation, so every result, is the same.
    """
    out = np.array(value, dtype=float)
    out.flags.writeable = False
    return out


# the 0 of sigmoid's numerator exp(min(x, 0))
ZERO0 = scalar_operand(0.0)
# the 1 of sigmoid's 1 + exp(-|x|) and of every s * (1 - s) in training
ONE0 = scalar_operand(1.0)


class ModelFormatError(ValueError):
    """Raised for unreadable or inconsistent model files."""


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), kept strictly inside (0, 1).

    Branch-free form of the two stable branches: with e = exp(-|x|) it is
    1 / (1 + e) for x >= 0 and e / (1 + e) below, so exp never overflows.
    The numerator exp(min(x, 0)) is exactly 1 for x >= 0 and exactly e below,
    so one quotient gives both branches bit for bit.

    The clamp to [nextafter(0, 1), nextafter(1, 0)] changes nothing while
    every |x| is at most 36.7: there e >= exp(-36.7), so 1 + e rounds above
    1 and e / (1 + e) above 0. It first changes a value beyond |x| = 36.7,
    where 1 + e rounds to 1, and below x = -745, where e underflows to 0.
    So the common path checks one number, the Euclidean norm of x from
    ``math.hypot``, which costs a third of a numpy max-reduce on a few
    entries: a norm at or below ``SIGMOID_CLAMP_FREE`` (30) bounds every |x|
    by 30 and is finite only when every input is, so the finiteness reduce
    and the clamp are skipped. Rounding may move the norm slightly either
    side of 30, far from 36.7, so no result can change. Any larger norm, inf
    or NaN takes the exact path: the max of |x| is NaN or inf exactly when
    some input is not finite, and the clamp runs when that max exceeds 30.
    ``math.hypot`` scales its inputs, so a norm beyond the float range is inf
    without a warning; ``a.dot(a)`` would overflow there and warn.
    The two fresh arrays it makes are reused in place for every later step.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(sigmoid(arr[None])[0])
    a = np.abs(arr)
    clamp = not math.hypot(*a.ravel().tolist()) <= SIGMOID_CLAMP_FREE
    if clamp:
        # a is not empty here: the norm of no entries is 0
        top = np.maximum.reduce(a, None)
        if not top < np.inf:
            raise ValueError("sigmoid requires finite input")
        clamp = top > SIGMOID_CLAMP_FREE
    out = np.minimum(arr, ZERO0)
    np.exp(out, out=out)
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += ONE0
    out /= a
    if clamp:
        out = np.minimum(np.maximum(out, _SIG_LO), _SIG_HI)
    return out


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
        # ndarray.dot: the same product as @, with less dispatch per call;
        # its result is fresh, so the threshold is subtracted in place
        z = inputs.dot(self.weights)
        z -= self.thresholds
        return sigmoid(z)


@dataclass(frozen=True)
class TrainingStats:
    epochs: int
    samples: int
    update_passes: int    # one per sample per epoch
    weight_updates: int   # linked-weight applications, excludes thresholds
    final_mse: float


def require_samples(xs: np.ndarray, ts: np.ndarray, n_in: int,
                    n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Input and target rows as float arrays, refused before any update when unfit.

    Both trainers call this one check. It refuses an empty set, input and
    target row counts that differ, a row width other than ``n_in`` inputs and
    ``n_out`` targets, a NaN or infinity (training on one would turn every
    weight NaN before sigmoid's own finiteness check could stop it) and a
    target outside [0, 1].
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if xs.shape[:1] == (0,):
        raise ValueError("sample list must be non-empty")
    if xs.shape[:1] != ts.shape[:1]:
        raise ValueError(f"sample inputs and targets differ in rows: shapes {xs.shape} "
                         f"and {ts.shape}")
    if xs.shape != xs.shape[:1] + (n_in,) or ts.shape != ts.shape[:1] + (n_out,):
        raise ValueError(f"sample dimensions do not match the network: shapes {xs.shape} "
                         f"and {ts.shape}, expected rows of {n_in} inputs and {n_out} targets")
    for values, what in ((xs, "inputs"), (ts, "targets")):
        if not np.isfinite(values).all():
            raise ValueError(f"sample {what} must be finite, found NaN or infinity")
    if (ts < 0.0).any() or (ts > 1.0).any():
        raise ValueError("sample targets must lie in [0, 1]")
    return xs, ts


def train_nn1(
    net: LayerNetwork,
    xs: np.ndarray,
    ts: np.ndarray,
    mu: float = Hyperparams.mu,
    epsilon: float = Hyperparams.epsilon,
    max_epochs: int = Hyperparams.max_epochs,
) -> TrainingStats:
    """Online delta-rule training of one monolayer network on rows ``require_samples`` accepts.

    Stops when an epoch's mean squared error drops below epsilon or the epoch
    cap is reached. Thresholds learn as bias weights on a constant -1 input.
    """
    xs, ts = require_samples(xs, ts, len(net.input_names), len(net.output_names))
    linked = net.linked_weight_count
    # one factor for mu and the mask: rounds like scaling by mu, then masking
    step = mu * net.mask
    # the threshold's factor mu * -1 (its input is the constant -1)
    threshold_step = scalar_operand(mu * -1.0)
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
            # s * (1 - s) * err, built in place; a product of two is commutative
            delta = ONE0 - s
            delta *= s
            delta *= err
            # mu * outer(x, delta) * mask: each entry is scaled by mu or by 0
            g = np.multiply.outer(x, delta)
            g *= step
            net.weights += g
            delta *= threshold_step
            net.thresholds += delta
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
        rng = np.random.default_rng(expect_number(seed, int, ValueError, "seed", 0))
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


def label_rows(names: Sequence[str], label_sets: Iterable[Collection[str]]) -> np.ndarray:
    """One 0/1 row per label set: entry j is 1.0 when ``names[j]`` is in the set."""
    return np.asarray([[1.0 if name in present else 0.0 for name in names]
                       for present in label_sets])


def count_classes(docs: Sequence[DocumentInstance], topology: Topology) -> dict[str, int]:
    """Documents per class of a training corpus, in the topology's class order.

    Refuses an empty corpus, and any document that ``require_labels`` refuses.
    """
    if not docs:
        raise ValueError("training corpus is empty")
    require_labels(docs, topology)
    classes = [doc.labels.document_class for doc in docs]
    return {name: classes.count(name) for name in topology.documents}


def train_tnn(model: TnnModel, docs: Sequence[DocumentInstance]) -> TnnTrainingSummary:
    """Train the three networks separately on fully labeled documents.

    Each network gets ground-truth inputs from the layer below (teacher
    forcing), so the three training problems stay independent; the learned
    weights then drive the full cascade.
    """
    topo = model.topology
    counts = count_classes(docs, topo)
    # one row array per layer: each is the targets of one network and the inputs of the next
    layers = (
        np.asarray([_element_array(topo, extract_all(model.config.element_extractors, doc))
                    for doc in docs]),
        label_rows(topo.substructures, (doc.labels.substructures for doc in docs)),
        label_rows(topo.structures, (doc.labels.structures for doc in docs)),
        label_rows(topo.documents, ((doc.labels.document_class,) for doc in docs)),
    )
    hp = model.config.hyperparams
    stats = tuple(
        train_nn1(net, xs, ts, hp.mu, hp.epsilon, hp.max_epochs)
        for net, xs, ts in zip(model.nets, layers, layers[1:])
    )
    summary = TnnTrainingSummary(stats=stats, class_counts=counts)
    model.training = summary
    return summary


# --- serialization -----------------------------------------------------------

def read_number(payload: object, key: str, kind: type, where: str) -> float | int:
    """``payload[key]``, an integer (``kind`` int) or a finite number (float), >= 0.

    Every number of a training record is a count or a squared error, so
    none is negative. Raises ModelFormatError that names the key; nothing is
    converted.
    """
    return expect_number(require(payload, key, ModelFormatError, where), kind,
                         ModelFormatError, f"{where} {key!r}", 0)


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
    """A model file's seed, 0 when absent; numpy refuses a negative one."""
    if "seed" not in payload:
        return 0
    return expect_number(payload["seed"], int, ModelFormatError, "model file 'seed'", 0)


def check_pass_count(payload: Mapping, key: str, where: str) -> None:
    """Refuse a training record whose pass count ``payload[key]`` contradicts it.

    Training runs at least one epoch, stops only at the end of one and makes
    one pass per sample per epoch, so the count is epochs times samples.
    """
    epochs, samples, passes = payload["epochs"], payload["samples"], payload[key]
    expect_number(epochs, int, ModelFormatError, f"{where} 'epochs'", 1)
    if passes != epochs * samples:
        raise ModelFormatError(f"{where} {key!r} is {passes}, but {epochs} epochs of "
                               f"{samples} samples make {epochs * samples}")


def _stats_from_dict(payload: object, where: str) -> TrainingStats:
    stats = TrainingStats(
        epochs=read_number(payload, "epochs", int, where),
        samples=read_number(payload, "samples", int, where),
        update_passes=read_number(payload, "update_passes", int, where),
        weight_updates=read_number(payload, "weight_updates", int, where),
        final_mse=read_number(payload, "final_mse", float, where),
    )
    check_pass_count(payload, "update_passes", where)
    return stats


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
            "stats": [asdict(s) for s in model.training.stats],
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
