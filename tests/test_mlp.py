import dataclasses
import inspect

import numpy as np
import pytest

from doctnn import (
    GenSpec,
    Hyperparams,
    MlpModel,
    forward_mlp,
    generate,
    gradients,
    load_mlp,
    save_mlp,
    split_flat,
    train_mlp,
    train_mlp_on_samples,
)
from doctnn import default_config, extract_all, mlp, network
from doctnn.evaluation import evaluate_mlp
from doctnn.generator import DESK_MODEL_SEED
from doctnn.network import _element_array
from conftest import dense_config, max_gradient_error, two_branch_sigmoid


def make_model(sizes=(4, 3, 3, 2), seed=0, hyperparams=None):
    return MlpModel.create(dense_config(sizes, hyperparams), seed=seed)


def test_baseline_shares_the_one_sigmoid():
    assert mlp.sigmoid is network.sigmoid


def test_zero_network_outputs_half():
    model = make_model()
    for i in range(3):
        model.weights[i][:] = 0.0
        model.biases[i][:] = 0.0
    out = forward_mlp(model, {f"e{i}": 0.7 for i in range(4)})
    assert np.all(out == 0.5)


@pytest.mark.parametrize("trained", [False, True], ids=["created", "trained"])
def test_hidden_permutation_symmetry(trained):
    model = make_model(seed=11, hyperparams=Hyperparams(max_epochs=3))
    if trained:
        # training leaves the lists holding views of one flat vector
        train_mlp_on_samples(model, np.eye(4), np.eye(4)[:, :2])
    x = {f"e{i}": v for i, v in enumerate((0.2, 0.9, 0.4, 0.1))}
    base = forward_mlp(model, x)
    perm = np.array([2, 0, 1])
    model.weights[0] = model.weights[0][:, perm]
    model.biases[0] = model.biases[0][perm]
    # half a permutation moves the output, so forward reads the reassigned entries
    assert not np.allclose(forward_mlp(model, x), base, rtol=0.0, atol=1e-6)
    model.weights[1] = model.weights[1][perm, :]
    assert forward_mlp(model, x) == pytest.approx(base, abs=1e-12)


def test_forward_matches_loop_oracle():
    model = make_model(seed=4)
    x = np.array([0.3, 0.8, 0.5, 0.1])

    def layer(inp, w, b):
        out = []
        for k in range(w.shape[1]):
            acc = b[k]
            for j in range(w.shape[0]):
                acc += inp[j] * w[j, k]
            out.append(1.0 / (1.0 + np.exp(-acc)))
        return np.array(out)

    expected = x
    for w, b in zip(model.weights, model.biases):
        expected = layer(expected, w, b)
    got = forward_mlp(model, {f"e{i}": v for i, v in enumerate(x)})
    assert got == pytest.approx(expected, abs=1e-12)


def test_forward_rejects_incomplete_vector():
    model = make_model()
    with pytest.raises(ValueError, match="incomplete"):
        forward_mlp(model, {"e0": 1.0})


def test_zero_error_sample_gives_zero_gradient():
    model = make_model(seed=8)
    x = np.array([0.4, 0.2, 0.9, 0.6])
    target = forward_mlp(model, {f"e{i}": v for i, v in enumerate(x)})
    grad, _, loss = gradients(model, x, target)
    grad_w, grad_b = split_flat(model, grad)
    assert loss == 0.0
    for g in grad_w + grad_b:
        assert np.all(g == 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(5):
        model = make_model(seed=trial)
        x = rng.uniform(0, 1, 4)
        t = rng.uniform(0, 1, 2)
        assert max_gradient_error(model, x, t) < 1e-4


def test_xor_shaped_task_converges():
    hyper = Hyperparams(mu=0.5, epsilon=0.05, max_epochs=10_000)
    model = MlpModel.create(dense_config((2, 4, 4, 1), hyper), seed=1)
    xs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    ts = np.array([[0.0], [1.0], [1.0], [0.0]])
    stats = train_mlp_on_samples(model, xs, ts)
    assert stats.final_mse < 0.05
    assert stats.epochs <= 10_000
    # bare sample rows come with no corpus to count: the run is returned, not recorded
    assert stats.class_counts == {} and model.training is None


def seed_train_mlp_on_samples(model, xs, ts):
    """The plain backprop loop train_mlp_on_samples must match bit for bit.

    np.sum / np.outer gradients through the two-branch sigmoid, np.mean for
    the epoch error and W -= mu * g for the update.
    """
    hp = model.config.hyperparams
    w, b = model.weights, model.biases
    backward = 0
    mse = float("inf")
    epoch = 0
    for epoch in range(1, hp.max_epochs + 1):
        squared = 0.0
        for x, t in zip(xs, ts):
            a1 = two_branch_sigmoid(x @ w[0] + b[0])
            a2 = two_branch_sigmoid(a1 @ w[1] + b[1])
            y = two_branch_sigmoid(a2 @ w[2] + b[2])
            d3 = (y - t) * y * (1.0 - y)
            d2 = (w[2] @ d3) * a2 * (1.0 - a2)
            d1 = (w[1] @ d2) * a1 * (1.0 - a1)
            grad_w = [np.outer(x, d1), np.outer(a1, d2), np.outer(a2, d3)]
            grad_b = [d1, d2, d3]
            squared += float(np.mean((t - y) ** 2))
            for i in range(3):
                w[i] -= hp.mu * grad_w[i]
                b[i] -= hp.mu * grad_b[i]
            backward += 1
        mse = squared / len(xs)
        if mse < hp.epsilon:
            break
    return epoch, backward, mse


@pytest.mark.parametrize(
    "hyper, stops_early",
    [
        (Hyperparams(mu=0.5, epsilon=0.0, max_epochs=40), False),
        (Hyperparams(mu=2.0, epsilon=0.2, max_epochs=1000), True),
    ],
)
def test_training_is_bit_identical_to_seed_loop(hyper, stops_early):
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 1.0, size=(6, 4))
    ts = np.eye(2)[rng.integers(0, 2, size=6)]
    model = make_model(seed=2, hyperparams=hyper)
    reference = make_model(seed=2, hyperparams=hyper)
    stats = train_mlp_on_samples(model, xs, ts)
    epochs, backward, mse = seed_train_mlp_on_samples(reference, xs, ts)
    assert (stats.epochs < hyper.max_epochs) is stops_early
    assert (stats.epochs, stats.backward_passes, stats.final_mse) == (epochs, backward, mse)
    for got, want in zip(model.weights + model.biases, reference.weights + reference.biases):
        assert np.array_equal(got, want)


def test_training_calls_gradients_once_per_sample(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return gradients(*args)

    # train_mlp_on_samples looks gradients up in the module on every sample
    monkeypatch.setattr(mlp, "gradients", counting)
    hyper = Hyperparams(mu=0.5, epsilon=0.0, max_epochs=7)
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, 1.0, size=(5, 4))
    ts = np.eye(2)[rng.integers(0, 2, size=5)]
    stats = train_mlp_on_samples(make_model(seed=1, hyperparams=hyper), xs, ts)
    assert len(calls) == 7 * 5 == stats.backward_passes


def desk_rows(docs, config):
    topo = config.topology
    xs = np.asarray([_element_array(topo, extract_all(config.element_extractors, d))
                     for d in docs])
    ts = np.eye(len(topo.documents))[
        [topo.documents.index(d.labels.document_class) for d in docs]]
    return xs, ts


def test_desk_shape_training_is_bit_identical_to_seed_loop(desk_corpora):
    train, _ = desk_corpora
    config = dataclasses.replace(
        default_config(), hyperparams=Hyperparams(mu=0.5, epsilon=0.0, max_epochs=20))
    xs, ts = desk_rows(train, config)
    model = MlpModel.create(config, seed=DESK_MODEL_SEED)
    reference = MlpModel.create(config, seed=DESK_MODEL_SEED)
    assert [w.shape for w in model.weights] == [(10, 7), (7, 7), (7, 3)]
    stats = train_mlp_on_samples(model, xs, ts)
    epochs, backward, mse = seed_train_mlp_on_samples(reference, xs, ts)
    assert (stats.epochs, stats.backward_passes, stats.final_mse) == (epochs, backward, mse)
    assert (epochs, backward) == (20, 20 * len(train))
    for got, want in zip(model.weights + model.biases, reference.weights + reference.biases):
        assert np.array_equal(got, want)


def test_desk_shape_flat_gradient_holds_the_outer_products(desk_corpora):
    train, _ = desk_corpora
    config = default_config()
    xs, ts = desk_rows(train[:10], config)
    model = MlpModel.create(config, seed=DESK_MODEL_SEED)
    w, b = model.weights, model.biases
    for x, t in zip(xs, ts):
        grad, y, _ = gradients(model, x, t)
        assert grad.shape == (sum(p.size for p in w + b),)
        a1 = two_branch_sigmoid(x @ w[0] + b[0])
        a2 = two_branch_sigmoid(a1 @ w[1] + b[1])
        assert np.array_equal(y, two_branch_sigmoid(a2 @ w[2] + b[2]))
        d3 = (y - t) * y * (1.0 - y)
        d2 = (w[2] @ d3) * a2 * (1.0 - a2)
        d1 = (w[1] @ d2) * a1 * (1.0 - a1)
        grad_w, grad_b = split_flat(model, grad)
        for got, want in zip(grad_w + grad_b,
                             [np.outer(x, d1), np.outer(a1, d2), np.outer(a2, d3), d1, d2, d3]):
            assert got.shape == want.shape and np.array_equal(got, want)


def test_backward_and_forward_write_into_no_caller_array():
    model = make_model(seed=4)
    rng = np.random.default_rng(6)
    for b in model.biases:
        b[:] = rng.uniform(-0.5, 0.5, b.size)
    x = rng.uniform(0.0, 1.0, 4)
    target = np.array([0.0, 1.0])
    elements = {f"e{i}": v for i, v in enumerate(x.tolist())}
    grad, y, loss = gradients(model, x, target)
    out = forward_mlp(model, elements)
    # an in-place write into any of them would raise
    for array in [x, target] + model.weights + model.biases:
        array.flags.writeable = False
    got_grad, got_y, got_loss = gradients(model, x, target)
    assert np.array_equal(got_grad, grad) and np.array_equal(got_y, y) and got_loss == loss
    assert np.array_equal(forward_mlp(model, elements), out)


@pytest.mark.parametrize("column", ["input", "target"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_training_refuses_a_non_finite_sample_before_any_update(column, bad):
    model = make_model(seed=2)
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 1.0, size=(6, 4))
    ts = np.eye(2)[rng.integers(0, 2, size=6)]
    # the last sample is bad, after five the loop would learn from
    (xs if column == "input" else ts)[-1, 1] = bad
    before = [p.copy() for p in model.weights + model.biases]
    with pytest.raises(ValueError, match=f"sample {column}s must be finite"):
        train_mlp_on_samples(model, xs, ts)
    for got, want in zip(model.weights + model.biases, before):
        assert np.array_equal(got, want)
    assert model.training is None


def test_runaway_step_still_trips_the_sigmoid_finiteness_check():
    hyper = Hyperparams(mu=1e300, epsilon=0.0, max_epochs=20)
    model = make_model(seed=2, hyperparams=hyper)
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 1.0, size=(6, 4))
    ts = np.eye(2)[rng.integers(0, 2, size=6)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="sigmoid requires finite input"):
            train_mlp_on_samples(model, xs, ts)


def test_training_is_deterministic(tmp_path):
    corpus = generate(GenSpec(seed=12, counts={"invoice": 3, "form": 3, "letter": 3}))
    blobs = []
    for _ in range(2):
        model = MlpModel.create(default_config(), seed=5)
        train_mlp(model, corpus)
        path = tmp_path / f"m{len(blobs)}.json"
        save_mlp(model, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_train_rejects_empty_and_unlabeled():
    from doctnn import DocumentInstance

    model = MlpModel.create(default_config(), seed=0)
    with pytest.raises(ValueError, match="empty"):
        train_mlp(model, [])
    with pytest.raises(ValueError, match="'d1'"):
        train_mlp(model, [DocumentInstance(id="d1")])


def test_black_box_interface_has_no_structure_surface():
    # ranking only: one class vector out, no structure output, no level hook
    assert not hasattr(MlpModel, "extract_structures")
    assert not any("level" in p or "pass" in p for p in inspect.signature(forward_mlp).parameters)
    model = make_model()
    out = forward_mlp(model, {f"e{i}": 0.5 for i in range(4)})
    assert out.shape == (2,)


def test_untrained_model_near_chance_on_balanced_corpus():
    corpus = generate(GenSpec(seed=77, counts={"invoice": 100, "form": 100, "letter": 100}))
    rates = []
    for seed in range(5):
        model = MlpModel.create(default_config(), seed=seed)
        rows, _ = evaluate_mlp(model, corpus)
        rates.append(sum(r.recognized for r in rows) / 300)
    mean_rate = sum(rates) / len(rates)
    assert abs(mean_rate - 1 / 3) <= 0.10


def test_mlp_round_trip(tmp_path):
    corpus = generate(GenSpec(seed=12, counts={"invoice": 2, "form": 2, "letter": 2}))
    model = MlpModel.create(default_config(), seed=5)
    train_mlp(model, corpus)
    path = tmp_path / "mlp.json"
    save_mlp(model, path)
    assert load_mlp(path) == model


def test_save_refuses_non_finite_values(tmp_path):
    model = make_model()
    model.biases[2][0] = np.inf
    path = tmp_path / "mlp.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_mlp(model, path)
    assert not path.exists()
