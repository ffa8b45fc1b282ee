"""Every number the library takes from outside goes through one rule,
``documents.expect_number``: a bool, a numeric string, NaN, a value below the
key's bound and a numpy integer are each refused with one line naming the key."""
import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import doctnn
from doctnn import (
    ExtractorSpec,
    GenSpec,
    GroundTruth,
    Hyperparams,
    MlpModel,
    ModelFormatError,
    Noise,
    RecognizerParams,
    TnnModel,
    TopologyError,
    build_extractors,
    default_config,
    generate,
    generate_ambiguous,
    train_mlp,
    train_tnn,
)
from doctnn.evaluation import evaluate_mlp, evaluate_tnn
from doctnn.network import read_number


def param(kind, key):
    return lambda value: build_extractors({"e": ExtractorSpec(kind=kind, params={key: value})})


# (site, call with the value, error type, key named, JSON type, a value below the bound)
SITES = [
    ("amount_area.right_region_x", param("amount_area", "right_region_x"), ValueError,
     "'right_region_x'", float, None),
    ("amount_area.align_tol", param("amount_area", "align_tol"), ValueError,
     "'align_tol'", float, -0.1),
    ("amount_area.product_rel_tol", param("amount_area", "product_rel_tol"), ValueError,
     "'product_rel_tol'", float, -1e-06),
    ("designation_zone.middle_band",
     lambda value: build_extractors(
         {"e": ExtractorSpec(kind="designation_zone", params={"middle_band": [0.3, value]})}),
     ValueError, "'middle_band'", float, None),
    ("code_area.left_band_x", param("code_area", "left_band_x"), ValueError,
     "'left_band_x'", float, None),
    ("text_block.min_rows", param("text_block", "min_rows"), ValueError,
     "'min_rows'", int, 0),
    ("isolated_block.bottom_band_y", param("isolated_block", "bottom_band_y"), ValueError,
     "'bottom_band_y'", float, None),
    ("isolated_block.max_tokens", param("isolated_block", "max_tokens"), ValueError,
     "'max_tokens'", int, 0),
    ("isolated_block.min_gap", param("isolated_block", "min_gap"), ValueError,
     "'min_gap'", float, -3.0),
    ("GenSpec.seed", lambda value: GenSpec(seed=value), ValueError, "seed", int, -1),
    ("GenSpec.counts", lambda value: GenSpec(seed=0, counts={"invoice": value}), ValueError,
     "count for 'invoice'", int, -1),
    ("generate_ambiguous.seed", lambda value: generate_ambiguous(value, 0), ValueError,
     "seed", int, -1),
    ("generate_ambiguous.count", lambda value: generate_ambiguous(0, value), ValueError,
     "count", int, -1),
    ("Noise.jitter", lambda value: Noise(jitter=value), ValueError, "jitter", float, -0.1),
    ("Noise.drop_rate", lambda value: Noise(drop_rate=value), ValueError,
     "drop_rate", float, -0.1),
    ("Noise.distort_rate", lambda value: Noise(distort_rate=value), ValueError,
     "distort_rate", float, -0.1),
    ("Hyperparams.mu", lambda value: Hyperparams(mu=value), TopologyError, "mu", float, 0.0),
    ("Hyperparams.epsilon", lambda value: Hyperparams(epsilon=value), TopologyError,
     "epsilon", float, -0.01),
    ("Hyperparams.max_epochs", lambda value: Hyperparams(max_epochs=value), TopologyError,
     "max_epochs", int, 0),
    ("RecognizerParams.tau_accept", lambda value: RecognizerParams(tau_accept=value),
     ValueError, "tau_accept", float, None),
    ("RecognizerParams.tau_margin", lambda value: RecognizerParams(tau_margin=value),
     ValueError, "tau_margin", float, None),
    ("RecognizerParams.tau_struct", lambda value: RecognizerParams(tau_struct=value),
     ValueError, "tau_struct", float, None),
    ("RecognizerParams.max_passes", lambda value: RecognizerParams(max_passes=value),
     ValueError, "max_passes", int, 0),
    ("read_number.epochs",
     lambda value: read_number({"epochs": value}, "epochs", int, "model training"),
     ModelFormatError, "'epochs'", int, -7),
    ("read_number.final_mse",
     lambda value: read_number({"final_mse": value}, "final_mse", float, "model training"),
     ModelFormatError, "'final_mse'", float, -0.5),
    ("read_number.seed", lambda value: read_number({"seed": value}, "seed", int, "model file"),
     ModelFormatError, "'seed'", int, -1),
    ("TnnModel.create.seed", lambda value: TnnModel.create(default_config(), seed=value),
     ValueError, "seed", int, -1),
    ("MlpModel.create.seed", lambda value: MlpModel.create(default_config(), seed=value),
     ValueError, "seed", int, -1),
]

BAD_VALUES = {"bool": True, "string": "1", "nan": float("nan"), "numpy_int": np.int64(5)}


def _cases():
    for site, call, error, key, _, below in SITES:
        for label, value in BAD_VALUES.items():
            yield pytest.param(call, error, key, value, id=f"{site}-{label}")
        if below is not None:
            yield pytest.param(call, error, key, below, id=f"{site}-below")


@pytest.mark.parametrize("call, error, key, value", _cases())
def test_every_number_site_refuses_with_one_line_naming_the_key(call, error, key, value):
    with pytest.raises(error) as info:
        call(value)
    message = str(info.value)
    assert "\n" not in message
    assert key in message


@pytest.mark.parametrize("call, kind", [pytest.param(call, kind, id=site)
                                        for site, call, _, _, kind, _ in SITES])
def test_every_number_site_accepts_a_number_of_its_type(call, kind):
    # np.float64 subclasses float, so it is a JSON number; the table's
    # refusals are therefore about the value, not about the site refusing everything
    call(np.float64(0.5) if kind is float else 1)


@pytest.mark.parametrize("name", ["drop_rate", "distort_rate"])
def test_noise_rates_refuse_values_above_one(name):
    with pytest.raises(ValueError, match=f"^{name} must be <= 1, got 1.2$"):
        Noise(**{name: 1.2})


@pytest.mark.parametrize("create, run", [
    (TnnModel.create, train_tnn),
    (MlpModel.create, train_mlp),
    (TnnModel.create, evaluate_tnn),
    (MlpModel.create, evaluate_mlp),
], ids=["tnn", "mlp", "evaluate_tnn", "evaluate_mlp"])
@pytest.mark.parametrize("field, name", [
    ("document_class", "receipt"),
    ("structures", frozenset({"stamp"})),
    ("substructures", frozenset({"stamp_line"})),
], ids=["class", "structure", "substructure"])
def test_training_and_evaluation_refuse_a_label_the_topology_does_not_have(
        create, run, field, name):
    docs = generate(GenSpec(seed=3, counts={"invoice": 1, "form": 1, "letter": 0}))
    labels = dataclasses.replace(docs[1].labels, **{field: name})
    foreign = dataclasses.replace(docs[1], labels=labels)
    with pytest.raises(ValueError) as info:
        run(create(default_config(), seed=0), [docs[0], foreign])
    message = str(info.value)
    assert "\n" not in message
    (label,) = [name] if isinstance(name, str) else name
    assert f"'{foreign.id}'" in message and f"'{label}'" in message


def test_only_documents_imports_numbers():
    # the number rule lives in documents.expect_number; a second module that
    # reaches for numbers.Integral or numbers.Real is a second rule
    package = Path(doctnn.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "numbers" in names:
                importers.append(path.name)
    assert importers == ["documents.py"]
