import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doctnn import (
    GenSpec,
    Hyperparams,
    LayerNetwork,
    MlpModel,
    ModelFormatError,
    TnnModel,
    default_config,
    forward_tnn,
    generate,
    load_model,
    save_model,
    sigmoid,
    train_mlp_on_samples,
    train_nn1,
    train_tnn,
)
from conftest import dense_config, two_branch_sigmoid


def single_link_net(weight=0.1, threshold=0.1):
    rng = np.random.default_rng(0)
    net = LayerNetwork.create(("a",), ("k",), [("a", "k")], rng)
    net.weights[:] = [[weight]]
    net.thresholds[:] = [threshold]
    return net


# --- sigmoid ------------------------------------------------------------------

def test_sigmoid_at_zero():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_known_value():
    assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=1e-12)


@given(st.floats(-50, 50))
def test_sigmoid_symmetry(x):
    assert sigmoid(x) == pytest.approx(1.0 - sigmoid(-x), abs=1e-12)


@given(st.floats(-1e6, 1e6))
def test_sigmoid_stays_open(x):
    assert 0.0 < sigmoid(x) < 1.0


def test_sigmoid_rejects_non_finite():
    with pytest.raises(ValueError):
        sigmoid(float("nan"))
    with pytest.raises(ValueError):
        sigmoid(float("inf"))
    for bad in ([0.5, -np.inf], [[1.0, 2.0], [np.nan, 0.0]]):
        with pytest.raises(ValueError, match="finite"):
            sigmoid(np.array(bad))


# signed zeros, subnormals, where 1 + exp(-x) rounds to 1 (36.7), where exp
# overflows or underflows (709, 745), far beyond, and either side of the
# |x| above which sigmoid clamps (30)
SIGMOID_EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    36.7, -36.7, 709.0, -709.0, 745.0, -745.0, 1e300, -1e300,
    30.0, -30.0, np.nextafter(30.0, 0.0), np.nextafter(30.0, np.inf),
    np.nextafter(-30.0, 0.0), np.nextafter(-30.0, -np.inf),
)


def test_sigmoid_is_bit_identical_to_two_branch_reference():
    edges = np.array(SIGMOID_EDGES)
    noise = np.random.default_rng(0).normal(0.0, 40.0, size=(50, 20))
    for arr in (edges, edges.reshape(2, -1), noise, np.empty(0)):
        got = sigmoid(arr)
        assert isinstance(got, np.ndarray) and got.shape == arr.shape
        assert np.array_equal(got, two_branch_sigmoid(arr))
    for x in SIGMOID_EDGES:
        got = sigmoid(x)
        assert type(got) is float
        assert got == two_branch_sigmoid(x)


def test_sigmoid_matches_reference_entry_by_entry_across_the_clamp_range():
    # one entry per call, so that entry's |x| alone decides whether sigmoid
    # clamps: a clamp-free bound above 36.7 would return 1.0 at 37
    for x in np.linspace(-800.0, 800.0, 6401):
        arr = np.array([x])
        assert sigmoid(arr)[0] == two_branch_sigmoid(arr)[0]


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_sigmoid_matches_reference_on_any_finite_scalar(x):
    assert sigmoid(x) == two_branch_sigmoid(x)


@given(st.lists(st.floats(-50, 50), max_size=12))
def test_sigmoid_matches_reference_on_vectors_either_side_of_the_norm_bound(values):
    # a vector's norm, not its largest entry, picks sigmoid's path; vectors of
    # up to 12 entries in [-50, 50] fall on both sides of 30 and of 36.7
    arr = np.array(values, dtype=float)
    assert np.array_equal(sigmoid(arr), two_branch_sigmoid(arr))


@pytest.mark.parametrize(
    "values",
    [
        [20.0, -20.0, 20.0],        # norm above 30, every entry below it
        [36.8] + [0.0] * 6,          # norm 36.8: 1 + e rounds to 1, so it must clamp
        [1e308] * 7,                 # the norm overflows to inf, the entries are finite
        [4.0] * 7,                   # norm 10.6: the path without reduce or clamp
        [-36.8, 1.0, -745.5],        # e underflows to 0 at -745.5
    ],
    ids=["norm-above-entries-below", "one-entry-past-36.7", "norm-overflows",
         "norm-below-bound", "underflow"],
)
def test_sigmoid_matches_reference_across_the_norm_bound(values):
    arr = np.array(values)
    assert np.array_equal(sigmoid(arr), two_branch_sigmoid(arr))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_sigmoid_refuses_a_non_finite_entry_among_finite_ones(bad, where):
    for fill in (0.5, 1e308):
        arr = np.full(7, fill)
        arr[where] = bad
        with pytest.raises(ValueError, match="^sigmoid requires finite input$"):
            sigmoid(arr)


# --- LayerNetwork.forward ---------------------------------------------------------

def test_forward_layer_zero_network():
    rng = np.random.default_rng(0)
    net = LayerNetwork.create(("a", "b"), ("x", "y"), [("a", "x"), ("b", "y")], rng)
    net.weights[:] = 0.0
    out = net.forward((0.0, 0.0))
    assert np.all(out == 0.5)


def test_forward_layer_single_link():
    net = single_link_net(weight=10.0, threshold=5.0)
    out = net.forward((1.0,))
    assert out[0] == pytest.approx(sigmoid(5.0))
    assert out[0] == pytest.approx(0.9933071490757153)


def test_forward_layer_mask_invariance():
    rng = np.random.default_rng(1)
    net = LayerNetwork.create(("a", "b"), ("x",), [("a", "x")], rng)
    base = net.forward((0.4, 0.0))
    for b in (0.1, 0.5, 1.0):
        assert np.array_equal(net.forward((0.4, b)), base)


def test_forward_layer_writes_into_no_caller_array():
    rng = np.random.default_rng(2)
    net = LayerNetwork.create("abcd", "xyz", [("a", "x"), ("b", "y"), ("d", "y"), ("c", "z")],
                              rng)
    net.thresholds[:] = rng.uniform(-1.0, 1.0, 3)
    x = rng.uniform(0.0, 1.0, 4)
    want = net.forward(x)
    # an in-place write into any of them would raise
    for array in (x, net.weights, net.thresholds):
        array.flags.writeable = False
    assert np.array_equal(net.forward(x), want)


def test_forward_layer_dimension_mismatch():
    net = single_link_net()
    with pytest.raises(ValueError, match="mismatch"):
        net.forward((1.0, 2.0))


# --- forward_tnn ------------------------------------------------------------------------

def test_forward_tnn_equals_composition():
    config = default_config()
    rng = np.random.default_rng(7)
    model = TnnModel.create(config, seed=7)
    elements = dict(zip(config.topology.elements, rng.uniform(0, 1, 10)))
    trace = forward_tnn(model, elements)
    x = np.array([elements[n] for n in config.topology.elements])
    # each layer from the reference sigmoid and @, not from LayerNetwork.forward
    def layer(net, inputs):
        return two_branch_sigmoid(inputs @ net.weights - net.thresholds)

    sub = layer(model.nets[0], x)
    struct = layer(model.nets[1], sub)
    docs = layer(model.nets[2], struct)
    assert list(trace.substructures.values()) == sub.tolist()
    assert list(trace.structures.values()) == struct.tolist()
    assert list(trace.documents.values()) == docs.tolist()


def test_forward_tnn_zero_weights():
    config = default_config()
    model = TnnModel.create(config, seed=0)
    for net in model.nets:
        net.weights[:] = 0.0
        net.thresholds[:] = 0.0
    trace = forward_tnn(model, {n: 0.3 for n in config.topology.elements})
    for layer in (trace.substructures, trace.structures, trace.documents):
        assert all(v == 0.5 for v in layer.values())


def test_forward_tnn_rejects_incomplete_vector():
    model = TnnModel.create(default_config(), seed=0)
    with pytest.raises(ValueError, match="incomplete"):
        forward_tnn(model, {"amount_area": 1.0})


def test_forward_tnn_rejects_vector_with_other_keys():
    model = TnnModel.create(default_config(), seed=0)
    full = {name: 0.5 for name in model.topology.elements}
    with pytest.raises(ValueError, match=r"unknown entries: \['extra'\]"):
        forward_tnn(model, {**full, "extra": 1.0})
    # as many keys as the topology has elements, one of them foreign
    swapped = {**{n: v for n, v in full.items() if n != "text_block"}, "extra": 1.0}
    with pytest.raises(ValueError, match=r"missing: \['text_block'\]"):
        forward_tnn(model, swapped)


# --- delta-rule training -------------------------------------------------------------------

def test_single_update_matches_hand_oracle():
    # S_k = 0.5, desired 1, mu = 0.5, S_j = 1, W = 0.1:
    # delta = 0.25 * 0.5, dW = 0.5 * 1 * 0.125, W(t+1) = 0.1625
    net = single_link_net(weight=0.1, threshold=0.1)
    train_nn1(net, [[1.0]], [[1.0]], Hyperparams(mu=0.5, epsilon=0.0, max_epochs=1))
    assert net.weights[0, 0] == 0.1625
    assert net.thresholds[0] == pytest.approx(0.1 - 0.0625)


def test_exact_targets_are_a_fixed_point():
    net = single_link_net(weight=0.0, threshold=0.0)
    before_w = net.weights.copy()
    before_t = net.thresholds.copy()
    train_nn1(net, [[1.0]], [[0.5]], Hyperparams(mu=0.5, epsilon=0.0, max_epochs=3))
    assert np.array_equal(net.weights, before_w)
    assert np.array_equal(net.thresholds, before_t)


def reference_delta_rule(samples, mu, epochs):
    """Plain-python oracle for a 2-input single neuron with trained threshold."""
    w = [0.0, 0.0]
    theta = 0.0
    mse = None
    for _ in range(epochs):
        squared = 0.0
        for x, t in samples:
            s = 1.0 / (1.0 + math.exp(-(w[0] * x[0] + w[1] * x[1] - theta)))
            err = t - s
            squared += err * err
            delta = s * (1.0 - s) * err
            w[0] += mu * x[0] * delta
            w[1] += mu * x[1] * delta
            theta += mu * -1.0 * delta
        mse = squared / len(samples)
    return w, theta, mse


def test_and_task_converges_and_matches_reference_oracle():
    xs = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    ts = [(0.0,), (0.0,), (0.0,), (1.0,)]
    rng = np.random.default_rng(0)
    net = LayerNetwork.create(("a", "b"), ("k",), [("a", "k"), ("b", "k")], rng)
    net.weights[:] = 0.0
    stats = train_nn1(net, xs, ts, Hyperparams(mu=0.5, epsilon=0.0, max_epochs=1000))
    assert stats.final_mse < 0.05
    ref_samples = [((x[0], x[1]), t[0]) for x, t in zip(xs, ts)]
    ref_w, ref_theta, ref_mse = reference_delta_rule(ref_samples, 0.5, 1000)
    assert net.weights[:, 0] == pytest.approx(ref_w, abs=1e-9)
    assert net.thresholds[0] == pytest.approx(ref_theta, abs=1e-9)
    assert stats.final_mse == pytest.approx(ref_mse, abs=1e-12)


def test_update_counter_bookkeeping():
    rng = np.random.default_rng(3)
    net = LayerNetwork.create(("a", "b"), ("x", "y"), [("a", "x"), ("b", "x"), ("b", "y")], rng)
    stats = train_nn1(net, [(0.2, 0.4), (0.9, 0.1)], [(0.0, 1.0), (1.0, 0.0)],
                      Hyperparams(mu=0.5, epsilon=0.0, max_epochs=17))
    assert stats.epochs == 17
    assert stats.update_passes == 17 * 2
    assert stats.weight_updates == 17 * 2 * 3


def test_masked_weights_stay_zero_after_training():
    rng = np.random.default_rng(4)
    net = LayerNetwork.create(("a", "b"), ("x", "y"), [("a", "x"), ("b", "y")], rng)
    train_nn1(net, [(1.0, 1.0), (0.0, 1.0)], [(1.0, 0.0), (0.0, 1.0)],
              Hyperparams(max_epochs=50))
    assert net.weights[0, 1] == 0.0
    assert net.weights[1, 0] == 0.0


def seed_train_nn1(net, xs, ts, mu, epsilon, max_epochs):
    """The plain delta-rule loop train_nn1 must match bit for bit.

    Two-branch sigmoid forward, np.mean for the sample error and
    W += mu * np.outer(x, delta) * mask for the update.
    """
    passes = 0
    mse = float("inf")
    epoch = 0
    for epoch in range(1, max_epochs + 1):
        squared = 0.0
        for x, t in zip(xs, ts):
            s = two_branch_sigmoid(x @ net.weights - net.thresholds)
            err = t - s
            squared += float(np.mean(err * err))
            delta = s * (1.0 - s) * err
            net.weights += mu * np.outer(x, delta) * net.mask
            net.thresholds += mu * -1.0 * delta
            passes += 1
        mse = squared / len(xs)
        if mse < epsilon:
            break
    return epoch, passes, mse


@pytest.mark.parametrize(
    "mu, epsilon, max_epochs, stops_early",
    [
        (0.5, 0.0, 40, False),
        (2.0, 0.15, 1000, True),
        # not a power of two, so a product that is reassociated rounds differently
        (0.3, 0.0, 40, False),
    ],
)
def test_train_nn1_is_bit_identical_to_seed_loop(mu, epsilon, max_epochs, stops_early):
    links = [("a", "x"), ("b", "x"), ("b", "y"), ("c", "y"), ("c", "z"), ("d", "z")]
    nets = [LayerNetwork.create("abcd", "xyz", links, np.random.default_rng(5))
            for _ in range(2)]
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 1.0, size=(6, 4))
    ts = np.eye(3)[rng.integers(0, 3, size=6)]
    stats = train_nn1(nets[0], xs, ts, Hyperparams(mu, epsilon, max_epochs))
    epochs, passes, mse = seed_train_nn1(nets[1], xs, ts, mu, epsilon, max_epochs)
    assert (stats.epochs < max_epochs) is stops_early
    assert (stats.epochs, stats.update_passes, stats.final_mse) == (epochs, passes, mse)
    assert np.array_equal(nets[0].weights, nets[1].weights)
    assert np.array_equal(nets[0].thresholds, nets[1].thresholds)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_train_nn1_matches_seed_loop_on_random_masks_and_samples(data):
    n_in, n_out, n_samples = (data.draw(st.integers(1, 4)) for _ in range(3))
    mask = data.draw(st.lists(st.booleans(), min_size=n_in * n_out, max_size=n_in * n_out))
    inputs = [f"i{j}" for j in range(n_in)]
    outputs = [f"o{k}" for k in range(n_out)]
    links = [(inputs[i // n_out], outputs[i % n_out]) for i, linked in enumerate(mask) if linked]
    seed = data.draw(st.integers(0, 2**16))
    nets = [LayerNetwork.create(inputs, outputs, links, np.random.default_rng(seed))
            for _ in range(2)]
    thresholds = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_out, max_size=n_out))
    for net in nets:
        net.thresholds[:] = thresholds
    xs = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n_samples * n_in,
                                     max_size=n_samples * n_in))).reshape(n_samples, n_in)
    ts = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_samples * n_out,
                                     max_size=n_samples * n_out))).reshape(n_samples, n_out)
    mu = data.draw(st.floats(0.01, 4.0))
    max_epochs = data.draw(st.integers(1, 5))
    stats = train_nn1(nets[0], xs, ts, Hyperparams(mu, 0.0, max_epochs))
    epochs, passes, mse = seed_train_nn1(nets[1], xs, ts, mu, 0.0, max_epochs)
    assert (stats.epochs, stats.update_passes, stats.final_mse) == (epochs, passes, mse)
    assert np.array_equal(nets[0].weights, nets[1].weights)
    assert np.array_equal(nets[0].thresholds, nets[1].thresholds)
    # a weight on a pair that is not linked stays exactly 0
    assert not nets[0].weights[~nets[0].mask].any()


def test_train_nn1_rejects_bad_input():
    net = single_link_net()
    with pytest.raises(ValueError, match="non-empty"):
        train_nn1(net, [], [])
    with pytest.raises(ValueError, match="0, 1"):
        train_nn1(net, [[1.0]], [[1.5]])


# each trainer of one input and one output gives (train(xs, ts), the arrays
# training updates, the training record it leaves on the model); the arrays
# are read when called, since training rebinds them to views of one block
def nn1_trainer():
    net = single_link_net()
    return (lambda xs, ts: train_nn1(net, xs, ts), lambda: [net.weights, net.thresholds],
            lambda: None)


def mlp_trainer():
    model = MlpModel.create(dense_config((1, 2, 2, 1)), seed=0)
    return (lambda xs, ts: train_mlp_on_samples(model, xs, ts),
            lambda: model.weights + model.biases, lambda: model.training)


both_trainers = pytest.mark.parametrize("trainer", [nn1_trainer, mlp_trainer],
                                        ids=["train_nn1", "train_mlp_on_samples"])


def after_good(x, t):
    """Inputs and targets whose bad last sample follows a good one the loop would learn from."""
    return [(1.0,), x], [(1.0,), t]


@both_trainers
@pytest.mark.parametrize(
    "rows, message",
    [
        (after_good((0.5,), (np.nan,)), "targets must be finite"),
        (after_good((0.5,), (np.inf,)), "targets must be finite"),
        (after_good((np.nan,), (1.0,)), "inputs must be finite"),
        (after_good((-np.inf,), (1.0,)), "inputs must be finite"),
        (after_good((0.5,), (-0.25,)), r"targets must lie in \[0, 1\]"),
        (after_good((0.5,), (2.0,)), r"targets must lie in \[0, 1\]"),
        (after_good(("0.5",), (1.0,)), "inputs must be integer or float numbers, found dtype <U"),
        (after_good((0.5,), ("1",)), "targets must be integer or float numbers, found dtype <U"),
        # numpy makes a list that mixes bools and floats a float array, so every row is a bool
        (([(True,), (False,)], [(1.0,), (0.0,)]),
         "inputs must be integer or float numbers, found dtype bool"),
        (([(1.0,), (0.5,)], [(True,), (False,)]),
         "targets must be integer or float numbers, found dtype bool"),
    ],
    ids=["nan-target", "inf-target", "nan-input", "inf-input", "target-below-0",
         "target-above-1", "string-input", "string-target", "bool-inputs", "bool-targets"],
)
def test_train_nn1_refuses_a_bad_sample_before_any_update(trainer, rows, message):
    train, params, record = trainer()
    before = [p.copy() for p in params()]
    with pytest.raises(ValueError, match=message):
        train(*rows)
    assert all(np.array_equal(p, b) for p, b in zip(params(), before))
    assert record() is None


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"max_epochs": 0}, "max_epochs must be >= 1, got 0"),
        ({"max_epochs": 2.5}, "max_epochs must be an integer, got 2.5"),
        ({"mu": float("nan")}, "mu must be a finite number, got nan"),
        ({"mu": 0.0}, "mu must be > 0, got 0.0"),
        ({"epsilon": -0.5}, "epsilon must be >= 0, got -0.5"),
    ],
    ids=["no-epochs", "fractional-epochs", "nan-mu", "zero-mu", "negative-epsilon"],
)
def test_hyperparams_refuse_a_setting_no_training_could_run(setting, message):
    # every trainer takes its settings as a Hyperparams, so none can start with these
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Hyperparams(**setting)


@both_trainers
@pytest.mark.parametrize(
    "xs, ts, message",
    [
        ([(0.5,)] * 5, [(1.0,)] * 4, "differ in rows"),
        ([(0.5, 0.5)] * 2, [(1.0,)] * 2, "dimensions do not match"),
        ([0.5, 0.5], [(1.0,)] * 2, "dimensions do not match"),
        ([(0.5,)] * 2, [1.0, 1.0], "dimensions do not match"),
        ([], [], "non-empty"),
    ],
    ids=["5-inputs-4-targets", "wide-rows", "1-d-inputs", "1-d-targets", "empty"],
)
def test_trainers_refuse_samples_of_the_wrong_shape_before_any_update(trainer, xs, ts,
                                                                       message):
    train, params, record = trainer()
    before = [p.copy() for p in params()]
    with pytest.raises(ValueError, match=message):
        train(xs, ts)
    assert all(np.array_equal(p, b) for p, b in zip(params(), before))
    assert record() is None


def nn1_resumable():
    """(train for a number of epochs, the arrays training updates) of a small layer network."""
    links = [("a", "x"), ("b", "x"), ("b", "y"), ("c", "y")]
    net = LayerNetwork.create("abc", "xy", links, np.random.default_rng(4))
    return (lambda xs, ts, epochs: train_nn1(net, xs, ts, Hyperparams(0.3, 0.0, epochs)),
            lambda: [net.weights, net.thresholds])


def mlp_resumable():
    model = MlpModel.create(dense_config((3, 2, 2, 2)), seed=4)

    def train(xs, ts, epochs):
        model.config = dense_config((3, 2, 2, 2), Hyperparams(0.3, 0.0, epochs))
        return train_mlp_on_samples(model, xs, ts)

    return train, lambda: model.weights + model.biases


@pytest.mark.parametrize("trainer", [nn1_resumable, mlp_resumable],
                         ids=["train_nn1", "train_mlp_on_samples"])
def test_training_resumes_where_it_stopped(trainer):
    # k epochs, then m more on the same rows, are one run of k + m epochs, bit for bit
    rng = np.random.default_rng(8)
    xs = rng.uniform(0.0, 1.0, size=(5, 3))
    ts = np.eye(2)[rng.integers(0, 2, size=5)]
    (resumed, resumed_params), (whole, whole_params) = trainer(), trainer()
    assert [r.epochs for r in (resumed(xs, ts, 3), resumed(xs, ts, 4))] == [3, 4]
    assert whole(xs, ts, 7).epochs == 7
    assert all(np.array_equal(a, b) for a, b in zip(resumed_params(), whole_params()))


# --- whole-cascade training ---------------------------------------------------------------

def test_train_tnn_smoke_changes_weights():
    corpus = generate(GenSpec(seed=2, counts={"invoice": 1, "form": 1, "letter": 1}))
    model = TnnModel.create(default_config(), seed=2)
    before = [net.weights.copy() for net in model.nets]
    summary = train_tnn(model, corpus)
    assert summary.trained_documents == 3
    assert any(not np.array_equal(b, net.weights) for b, net in zip(before, model.nets))


def test_train_tnn_is_deterministic(tmp_path):
    corpus = generate(GenSpec(seed=9, counts={"invoice": 3, "form": 3, "letter": 3}))
    blobs = []
    for _ in range(2):
        model = TnnModel.create(default_config(), seed=6)
        train_tnn(model, corpus)
        path = tmp_path / f"m{len(blobs)}.json"
        save_model(model, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_train_tnn_requires_labels():
    from doctnn import DocumentInstance

    model = TnnModel.create(default_config(), seed=0)
    with pytest.raises(ValueError, match="'nolabel'"):
        train_tnn(model, [DocumentInstance(id="nolabel")])


# --- serialization -----------------------------------------------------------------------------

def test_model_round_trip(tmp_path, clean_tnn):
    path = tmp_path / "model.json"
    save_model(clean_tnn, path)
    loaded = load_model(path)
    assert loaded == clean_tnn


def test_model_version_mismatch(tmp_path, clean_tnn):
    path = tmp_path / "model.json"
    save_model(clean_tnn, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(path)


def test_model_shape_mismatch(tmp_path, clean_tnn):
    path = tmp_path / "model.json"
    save_model(clean_tnn, path)
    payload = json.loads(path.read_text())
    payload["layer_networks"][0]["weights"] = [[0.0, 0.0]]
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="shape"):
        load_model(path)


def test_save_refuses_non_finite_values(tmp_path):
    model = TnnModel.create(default_config(), seed=0)
    model.nets[1].thresholds[0] = np.nan
    path = tmp_path / "tnn.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_model(model, path)
    assert not path.exists()
    # over a model file already there, the refusal keeps its bytes and leaves nothing beside it
    model.nets[1].thresholds[0] = 0.0
    save_model(model, path)
    before = path.read_bytes()
    model.nets[1].thresholds[0] = np.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_model(model, path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_model_corrupt_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{oops")
    with pytest.raises(ModelFormatError):
        load_model(path)


# --- properties ----------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.floats(0, 1), min_size=10, max_size=10))
def test_activations_strictly_inside_unit_interval(seed, values):
    config = default_config()
    model = TnnModel.create(config, seed=seed)
    trace = forward_tnn(model, dict(zip(config.topology.elements, values)))
    for layer in (trace.substructures, trace.structures, trace.documents):
        assert all(0.0 < v < 1.0 for v in layer.values())


def test_mask_invariance_survives_training():
    rng = np.random.default_rng(5)
    net = LayerNetwork.create(("a", "b"), ("x",), [("a", "x")], rng)
    train_nn1(net, [(0.2, 0.9), (0.8, 0.1)], [(1.0,), (0.0,)], Hyperparams(max_epochs=200))
    base = net.forward((0.5, 0.0))
    assert np.array_equal(net.forward((0.5, 0.77)), base)
