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
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

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
# the sign that sigmoid's copysign gives -|x|
MINUS_ONE0 = scalar_operand(-1.0)


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
    without a warning; ``a.dot(a)`` would overflow there and warn. The norm
    ignores signs, so it is taken of x itself, and only the exact path forms
    |x|. One ``np.copysign(x, -1)`` gives -|x| for the denominator.
    The two fresh arrays it makes are reused in place for every later step.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(sigmoid(arr[None])[0])
    clamp = not math.hypot(*arr.ravel().tolist()) <= SIGMOID_CLAMP_FREE
    if clamp:
        # arr is not empty here: the norm of no entries is 0
        top = np.maximum.reduce(np.abs(arr), None)
        if not top < np.inf:
            raise ValueError("sigmoid requires finite input")
        clamp = top > SIGMOID_CLAMP_FREE
    out = np.minimum(arr, ZERO0)
    np.exp(out, out=out)
    a = np.copysign(arr, MINUS_ONE0)
    np.exp(a, out=a)
    a += ONE0
    out /= a
    if clamp:
        out = np.minimum(np.maximum(out, _SIG_LO), _SIG_HI)
    return out


@dataclass
class LayerNetwork:
    """One input layer / output layer pair with a link mask.

    An unlinked pair's weight is exactly 0: ``create`` masks it, training never
    moves it and the loader refuses any other value. Forward, blame's path
    weights and the structure flag rely on this and read the weights unmasked.
    """

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
        # True where ``links`` joins input to output; a link of another layer pair is skipped
        in_index = {n: i for i, n in enumerate(input_names)}
        out_index = {n: i for i, n in enumerate(output_names)}
        mask = np.zeros((len(input_names), len(output_names)), dtype=bool)
        for src, dst in links:
            if src in in_index and dst in out_index:
                mask[in_index[src], out_index[dst]] = True
        weights = rng.uniform(-0.5, 0.5, size=mask.shape) * mask
        thresholds = np.zeros(len(output_names))
        return cls(input_names, output_names, weights, thresholds, mask)

    @property
    def linked_weight_count(self) -> int:
        return int(self.mask.sum())

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        n_in = len(self.input_names)
        if inputs.shape != (n_in,):
            raise ValueError(f"dimension mismatch: got {inputs.shape}, expected ({n_in},)")
        return self._propagate(inputs)

    def _propagate(self, inputs: np.ndarray) -> np.ndarray:
        """``forward`` on a float vector of the input width, which the caller has checked."""
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

    Both trainers call this one check. It refuses an array that is not of
    integers or floats (a float conversion would take a numeric string or a
    bool for a number), a NaN or infinity (training on one would turn every
    weight NaN before sigmoid's own finiteness check could stop it), an empty
    set, input and target row counts that differ, a row width other than
    ``n_in`` inputs and ``n_out`` targets and a target outside [0, 1].
    """
    xs, ts = np.asarray(xs), np.asarray(ts)
    for values, what in ((xs, "inputs"), (ts, "targets")):
        if values.dtype.kind not in "iuf":
            raise ValueError(f"sample {what} must be integer or float numbers, "
                             f"found dtype {values.dtype}")
        if not np.isfinite(values).all():
            raise ValueError(f"sample {what} must be finite, found NaN or infinity")
    if xs.shape[:1] == (0,):
        raise ValueError("sample list must be non-empty")
    if xs.shape[:1] != ts.shape[:1]:
        raise ValueError(f"sample inputs and targets differ in rows: shapes {xs.shape} "
                         f"and {ts.shape}")
    if xs.shape != xs.shape[:1] + (n_in,) or ts.shape != ts.shape[:1] + (n_out,):
        raise ValueError(f"sample dimensions do not match the network: shapes {xs.shape} "
                         f"and {ts.shape}, expected rows of {n_in} inputs and {n_out} targets")
    if (ts < 0.0).any() or (ts > 1.0).any():
        raise ValueError("sample targets must lie in [0, 1]")
    return xs.astype(float, copy=False), ts.astype(float, copy=False)


def run_epochs(xs: Sequence, ts: Sequence, hyperparams: Hyperparams,
               step: Callable[[Any, np.ndarray], float]) -> tuple[int, float]:
    """The online epoch loop of both trainers: ``(epochs, final_mse)``.

    Each epoch calls ``step(x, t)`` once per sample, in order, with the
    sample's entries of ``xs`` and ``ts``; it updates the weights on that
    sample and returns the sample's squared error over its width. The
    entries are taken once per run, so an array's row views are made once,
    not once per epoch. The epoch's error is the mean of these. Training
    stops after the first epoch whose error is below ``hyperparams.epsilon``,
    otherwise at ``max_epochs``; a ``Hyperparams`` allows no fewer than one
    epoch.
    """
    samples = list(zip(xs, ts))
    for epoch in range(1, hyperparams.max_epochs + 1):
        squared = 0.0
        for x, t in samples:
            squared += step(x, t)
        mse = squared / len(samples)
        if mse < hyperparams.epsilon:
            break
    return epoch, mse


def train_nn1(net: LayerNetwork, xs: np.ndarray, ts: np.ndarray,
              hyperparams: Hyperparams = Hyperparams()) -> TrainingStats:
    """Online delta-rule training of one monolayer network on rows ``require_samples`` accepts.

    Epochs run and stop as ``run_epochs`` says. The weights and thresholds
    are copied into one ``(n_in + 1, n_out)`` block, weights first and the
    thresholds as its last row, and ``net.weights`` / ``net.thresholds`` are
    rebound to views of it. Each sample's inputs gain a constant -1 for the
    threshold row, so a sample updates the whole block with one outer
    product, one scale by mu and the mask and one add. The threshold row is
    scaled by mu alone: (-1 * delta) * mu rounds like delta * -mu, so the
    block holds what separate weight and threshold updates give, bit for
    bit, and weights on pairs that are not linked stay exactly 0.
    """
    n_in, n_out = len(net.input_names), len(net.output_names)
    xs, ts = require_samples(xs, ts, n_in, n_out)
    block = np.concatenate((net.weights, net.thresholds[None]))
    net.weights, net.thresholds = block[:-1], block[-1]
    # mu on every linked weight and on the threshold row, 0 elsewhere; one
    # factor rounds like scaling by mu, then masking
    masked_mu = hyperparams.mu * np.concatenate((net.mask, np.ones((1, n_out), dtype=bool)))
    # each sample's inputs, then the threshold's constant -1 input; a
    # sample's entry pairs its full row with the view forward takes
    rows = np.concatenate((xs, np.full((len(xs), 1), -1.0)), axis=1)
    inputs = [(row, row[:-1]) for row in rows]

    def step(sample: tuple[np.ndarray, np.ndarray], t: np.ndarray) -> float:
        row, x = sample
        s = net._propagate(x)
        err = t - s
        # s * (1 - s) * err, built in place; a product of two is commutative
        delta = ONE0 - s
        delta *= s
        delta *= err
        # mu * outer(row, delta) * mask: each entry is scaled by mu or by 0
        g = np.multiply.outer(row, delta)
        g *= masked_mu
        np.add(block, g, out=block)
        # np.mean's sum and division, without its dispatch
        return float(np.add.reduce(err * err)) / n_out

    epochs, mse = run_epochs(inputs, ts, hyperparams, step)
    # one update pass per sample per epoch, each applying every linked weight
    passes = epochs * len(xs)
    return TrainingStats(epochs=epochs, samples=len(xs), update_passes=passes,
                         weight_updates=passes * net.linked_weight_count, final_mse=mse)


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
        layers = config.topology.layers()
        nets = tuple(LayerNetwork.create(inp, out, config.topology.links, rng)
                     for inp, out in zip(layers, layers[1:]))
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
    """``values`` in element order as floats; a missing or unknown element is refused."""
    names = topology.elements
    # element names are unique, so equal sizes and every name found mean the same keys
    if len(values) == len(names):
        try:
            return np.fromiter(map(values.__getitem__, names), float, len(names))
        except KeyError:
            pass
    missing = set(names) - set(values)
    if missing:
        raise ValueError(f"element vector incomplete, missing: {sorted(missing)}")
    raise ValueError(f"element vector has unknown entries: {sorted(set(values) - set(names))}")


def forward_tnn(model: TnnModel, elements: Mapping[str, float]) -> ActivationTrace:
    """Propagate element activations up through the three networks, checked once at entry."""
    x = _element_array(model.topology, elements)
    sub = model.nets[0]._propagate(x)
    struct = model.nets[1]._propagate(sub)
    doc = model.nets[2]._propagate(struct)
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
    stats = tuple(train_nn1(net, xs, ts, model.config.hyperparams)
                  for net, xs, ts in zip(model.nets, layers, layers[1:]))
    summary = TnnTrainingSummary(stats=stats, class_counts=counts)
    model.training = summary
    return summary


# --- serialization -----------------------------------------------------------

def read_number(payload: object, key: str, kind: type, where: str) -> float | int:
    """``payload[key]``, an integer (``kind`` int) or a finite number (float), >= 0.

    Every number of a training record is a count or a squared error, and a
    model's seed seeds numpy, which refuses a negative one, so none is
    negative. Raises ModelFormatError that names the key; nothing is
    converted.
    """
    return expect_number(require(payload, key, ModelFormatError, where), kind,
                         ModelFormatError, f"{where} {key!r}", 0)


def read_class_counts(training: Mapping, topology: Topology) -> dict[str, int]:
    """A training record's documents per class; every key must be a class of ``topology``."""
    counts = expect_type(require(training, "class_counts", ModelFormatError, "model training"),
                         Mapping, ModelFormatError, "model training 'class_counts'")
    unknown = [name for name in counts if name not in topology.documents]
    if unknown:
        raise ModelFormatError(f"model training 'class_counts' names classes the "
                               f"topology does not have: {unknown}")
    return {name: read_number(counts, name, int, "training class_counts") for name in counts}


def read_matrix(payload: object, key: str, where: str, shape: tuple[int, ...]) -> np.ndarray:
    """``payload[key]`` as a float array of ``shape``, refusing NaN and infinities at load."""
    # a float conversion would accept a bool or a numeric string, so every
    # entry's JSON type is checked before it
    entries = np.asarray(require(payload, key, ModelFormatError, where), dtype=object)
    for entry in entries.flat:
        expect_type(entry, float, ModelFormatError, f"{where} {key!r} entry")
        if not finite_number(entry):
            raise ModelFormatError(f"{where} {key!r} holds a value that is not finite")
    if entries.shape != shape:
        raise ModelFormatError(f"{where} {key!r} has shape {entries.shape}, expected {shape}")
    return entries.astype(float)


def read_list(payload: object, key: str, where: str, count: int, what: str) -> list:
    """``payload[key]``, a list of ``count`` entries, one per ``what``."""
    entries = expect_type(require(payload, key, ModelFormatError, where), list,
                          ModelFormatError, f"{where} {key!r}")
    if len(entries) != count:
        raise ModelFormatError(f"expected {count} {what}, found {len(entries)}")
    return entries


def read_training(payload: Mapping) -> Mapping | None:
    """A model file's training record, an object, or None when it is null (untrained)."""
    training = require(payload, "training", ModelFormatError, "model file")
    if training is None:
        return None
    return expect_type(training, Mapping, ModelFormatError, "model file 'training'")


def read_run(payload: object, passes_key: str, where: str, hyperparams: Hyperparams,
             documents: int) -> dict:
    """A training record's ``epochs``, ``samples``, pass count ``passes_key`` and ``final_mse``.

    Training runs at least one epoch over at least one sample, stops only at
    the end of an epoch and makes one pass per sample per epoch, so a record
    with fewer, or whose pass count is not epochs times samples, is refused.
    Its samples are the ``documents`` its class counts total, one per document.
    It stops at the first epoch whose error is below ``hyperparams.epsilon``
    or at ``max_epochs``, so a record of more epochs, or of fewer whose
    ``final_mse`` is not below epsilon, is refused too.
    """
    run = {key: read_number(payload, key, int, where) for key in ("epochs", "samples", passes_key)}
    run["final_mse"] = read_number(payload, "final_mse", float, where)
    for key in ("epochs", "samples"):
        expect_number(run[key], int, ModelFormatError, f"{where} {key!r}", 1)
    epochs, samples, passes = run["epochs"], run["samples"], run[passes_key]
    if samples != documents:
        raise ModelFormatError(f"model training 'class_counts' total {documents} documents, "
                               f"but {where} has {samples} samples")
    if passes != epochs * samples:
        raise ModelFormatError(f"{where} {passes_key!r} is {passes}, but {epochs} epochs of "
                               f"{samples} samples make {epochs * samples}")
    cap, epsilon = hyperparams.max_epochs, hyperparams.epsilon
    if epochs > cap:
        raise ModelFormatError(f"{where} 'epochs' is {epochs}, but 'max_epochs' is {cap}")
    if epochs < cap and not run["final_mse"] < epsilon:
        raise ModelFormatError(f"{where} stopped after {epochs} of {cap} epochs, but its "
                               f"'final_mse' {run['final_mse']!r} is not below 'epsilon' "
                               f"{epsilon!r}")
    return run


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
    """The model ``TnnModel.create`` builds from the file's config and seed, holding its arrays."""
    model = TnnModel.create(model_config(payload, "tnn"),
                            read_number(payload, "seed", int, "model file"))
    raw_nets = read_list(payload, "layer_networks", "model file", len(model.nets),
                         "layer networks")
    for i, (raw, net) in enumerate(zip(raw_nets, model.nets)):
        where = f"layer network {i}"
        inputs = require(raw, "inputs", ModelFormatError, where)
        outputs = require(raw, "outputs", ModelFormatError, where)
        # JSON gives lists; comparing with lists also refuses a name list of another type
        if inputs != list(net.input_names) or outputs != list(net.output_names):
            raise ModelFormatError("layer network names disagree with the topology")
        net.weights = read_matrix(raw, "weights", where, net.weights.shape)
        net.thresholds = read_matrix(raw, "thresholds", where, net.thresholds.shape)
        if np.any(net.weights[~net.mask] != 0.0):
            raise ModelFormatError("non-zero weight on a pair the topology does not link")
    raw_training = read_training(payload)
    if raw_training is None:
        return model
    counts = read_class_counts(raw_training, model.topology)
    # one record per layer network
    raw_stats = read_list(raw_training, "stats", "model training", len(model.nets),
                          "training stats")
    hyperparams = model.config.hyperparams
    training = TnnTrainingSummary(
        stats=tuple(
            TrainingStats(**read_run(s, "update_passes", f"training stats {i}", hyperparams,
                                     sum(counts.values())),
                          weight_updates=read_number(s, "weight_updates", int,
                                                     f"training stats {i}"))
            for i, s in enumerate(raw_stats)
        ),
        class_counts=counts,
    )
    # each update pass applies every linked weight of its network
    for i, (stats, net) in enumerate(zip(training.stats, model.nets)):
        updates = stats.update_passes * net.linked_weight_count
        if stats.weight_updates != updates:
            raise ModelFormatError(
                f"training stats {i} 'weight_updates' is {stats.weight_updates}, but "
                f"{stats.update_passes} update passes over {net.linked_weight_count} "
                f"linked weights make {updates}")
    model.training = training
    return model


def save_model(model: TnnModel, path: str | Path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path: str | Path) -> TnnModel:
    return model_from_dict(read_json(path, ModelFormatError))
