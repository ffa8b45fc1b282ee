"""Transparent hierarchical network for administrative document layouts.

Recognizes the class (invoice / form / letter) and the logical structure of
token-layout documents with a four-layer network of named neurons, trained
layer pair by layer pair with the delta rule, and refined at recognition
time by a blame-driven second and third look at ambiguous evidence. A dense
baseline with the same skeleton is included for comparison.
"""

from .documents import (
    CorpusError,
    DocumentInstance,
    GroundTruth,
    Token,
    TokenKind,
    load_corpus,
    save_corpus,
    token_kind,
)
from .evaluation import (
    EvalReport,
    build_report,
    compare_training_cost,
    evaluate_mlp,
    evaluate_tnn,
    render_report,
    report_to_dict,
)
from .features import (
    DocumentView,
    ExtractorSpec,
    build_extractors,
    extract_all,
)
from .generator import GenSpec, Noise, generate, generate_ambiguous
from .mlp import (
    MlpModel,
    MlpTrainingStats,
    forward_mlp,
    gradients,
    load_mlp,
    save_mlp,
    split_flat,
    train_mlp,
    train_mlp_on_samples,
)
from .network import (
    LayerNetwork,
    ModelFormatError,
    TnnModel,
    TnnTrainingSummary,
    TrainingStats,
    forward_tnn,
    load_model,
    save_model,
    sigmoid,
    train_nn1,
    train_tnn,
)
from .recognizer import (
    RecognizerParams,
    blame_elements,
    blame_scores,
    extract_structures,
    recognize,
)
from .topology import (
    Hyperparams,
    NetworkConfig,
    Topology,
    TopologyError,
    default_config,
    default_topology,
    load_config,
    save_config,
)

__version__ = "0.1.0"
