import numpy as np
import pytest

from doctnn import (
    DocumentInstance,
    ExtractorSpec,
    GenSpec,
    Hyperparams,
    MlpModel,
    NetworkConfig,
    TnnModel,
    Token,
    TokenKind,
    Topology,
    default_config,
    generate,
    token_kind,
    train_mlp,
    train_tnn,
)
from doctnn.features import Tally, _norm
from doctnn.generator import DESK_MODEL_SEED, generate_desk


def tok(text, x, y, w=0.05, h=0.02):
    return Token(text=text, x=x, y=y, width=min(w, 1.0 - x), height=h)


def doc(tokens, doc_id="doc"):
    return DocumentInstance(id=doc_id, tokens=tuple(tokens))


def dense_config(sizes, hyperparams=None):
    """Fully connected dummy topology of the given layer sizes for math tests."""
    prefixes = ("e", "s", "t", "d")
    layers = [tuple(f"{p}{i}" for i in range(n)) for p, n in zip(prefixes, sizes)]
    links = set()
    for upper, lower in zip(layers, layers[1:]):
        links.update((a, b) for a in upper for b in lower)
    topology = Topology(
        elements=layers[0],
        substructures=layers[1],
        structures=layers[2],
        documents=layers[3],
        links=frozenset(links),
    )
    extractors = {name: ExtractorSpec(kind="isolated_block") for name in layers[0]}
    return NetworkConfig(
        topology=topology,
        extractors=extractors,
        hyperparams=hyperparams or Hyperparams(),
    )


def measure(extractor, document, level):
    """``extractor``'s value at ``level`` on ``document``, and the token visits it charged."""
    tally = Tally()
    return extractor.evaluate(document, level, tally), tally.visits


def two_branch_sigmoid(x):
    """Masked two-branch logistic, the reference the library's sigmoid must match bit for bit."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("sigmoid requires finite input")
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    out = np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return float(out) if np.ndim(x) == 0 else out


def reference_keyword_hits(view, keywords, tally, tol):
    """Keyword matching that joins every adjacent pair of every row, folding each token itself.

    Its keys are the keywords ``features._keywords_found`` must find, visit for
    visit, and each keyword's list the anchors ``features._anchors`` must give.
    """
    singles = [k for k in keywords if " " not in k]
    bigrams = [k for k in keywords if " " in k]
    hits = {}
    norms = {id(t): _norm(t.text) for t in view.tokens}
    folded = "\n".join(norms.values())
    tally.charge(view.tokens)
    for kw in singles:
        if kw in folded:
            anchors = [t for t in view.tokens if kw in norms[id(t)]]
            if anchors:
                hits[kw] = anchors
    if bigrams:
        tally.charge(view.tokens)
        bigrams = [k for k in bigrams if all(word in folded for word in k.split(" "))]
    if bigrams:
        for row in view.rows(tol):
            for a, b in zip(row, row[1:]):
                joined = f"{norms[id(a)]} {norms[id(b)]}"
                for kw in bigrams:
                    if kw in joined:
                        hits.setdefault(kw, []).append(a)
    return hits


def reference_best_run(view, tally, tol, min_rows):
    """Text-block run search that re-sums each run and classifies each token from its text.

    The reference ``features._best_run`` must match row for row and visit for visit.
    """
    tally.charge(view.tokens)
    best = []
    run = []
    for row in view.rows(tol):
        alpha = sum(1 for t in row if token_kind(t.text) is TokenKind.ALPHABETIC)
        if alpha * 2 > len(row):
            run.append(row)
        else:
            run = []
            continue
        if len(run) >= min_rows and sum(map(len, run)) > sum(map(len, best)):
            best = list(run)
    return best


@pytest.fixture(scope="session")
def desk_corpora():
    return generate_desk()


@pytest.fixture(scope="session")
def desk_tnn(desk_corpora):
    train, _ = desk_corpora
    model = TnnModel.create(default_config(), seed=DESK_MODEL_SEED)
    train_tnn(model, train)
    return model


@pytest.fixture(scope="session")
def desk_mlp(desk_corpora):
    train, _ = desk_corpora
    model = MlpModel.create(default_config(), seed=DESK_MODEL_SEED)
    train_mlp(model, train)
    return model


@pytest.fixture(scope="session")
def clean_corpus():
    docs = generate(GenSpec(seed=5, counts={"invoice": 6, "form": 6, "letter": 10}))
    # keep only plain-correspondence letters: the reminder styles are built to
    # crowd the invoice profile, which a tiny sanity corpus cannot tease apart
    letters = [d for d in docs if d.labels.document_class == "letter"]
    keep = {letters[i].id for i in (1, 2, 4, 5, 7, 8)}
    return [
        d for d in docs
        if d.labels.document_class != "letter" or d.id in keep
    ]


@pytest.fixture(scope="session")
def clean_tnn(clean_corpus):
    model = TnnModel.create(default_config(), seed=3)
    train_tnn(model, clean_corpus)
    return model


def finite_difference_gradients(model, x, t, h=1e-5):
    """Central differences of the sample loss for every weight and bias."""
    from doctnn.mlp import gradients

    def loss_at():
        return gradients(model, x, t)[2]

    grad_w = [np.zeros_like(w) for w in model.weights]
    grad_b = [np.zeros_like(b) for b in model.biases]
    for layer in range(3):
        w = model.weights[layer]
        for idx in np.ndindex(w.shape):
            keep = w[idx]
            w[idx] = keep + h
            up = loss_at()
            w[idx] = keep - h
            down = loss_at()
            w[idx] = keep
            grad_w[layer][idx] = (up - down) / (2 * h)
        b = model.biases[layer]
        for idx in np.ndindex(b.shape):
            keep = b[idx]
            b[idx] = keep + h
            up = loss_at()
            b[idx] = keep - h
            down = loss_at()
            b[idx] = keep
            grad_b[layer][idx] = (up - down) / (2 * h)
    return grad_w, grad_b


def max_gradient_error(model, x, t):
    from doctnn.mlp import gradients, split_flat

    analytic_w, analytic_b = split_flat(model, gradients(model, x, t)[0])
    numeric_w, numeric_b = finite_difference_gradients(model, x, t)
    worst = 0.0
    for a, n in zip(analytic_w + analytic_b, numeric_w + numeric_b):
        rel = np.abs(a - n) / (np.abs(n) + 1e-8)
        worst = max(worst, float(rel.max()))
    return worst
