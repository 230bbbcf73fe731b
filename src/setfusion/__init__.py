"""Imputation-free multimodal classification over sets of observed modalities.

Trains a hypernetwork-conditioned universal feature extractor in a
first stage, freezes it, then trains a permutation-invariant set
classifier over whatever modalities each sample actually has.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    DatasetSchema,
    MaskedSample,
    apply_missingness,
    generate,
    load_dataset,
    save_dataset,
    split,
    to_set,
)
from .encoder import Encoder, EncoderConfig, Phase1Output, parameter_checksum, phase1_loss
from .errors import ConfigError, ContractError, DataFormatError, NumericError, ShapeError
from .hypernet import HyperNetwork, ModalityId
from .optim import Adam
from .rng import SeededRng, glorot_uniform
from .setnet import (
    SetClassifier,
    SetObservation,
    aggregate,
    f_forward,
    phase2_loss,
    pool_set,
    pool_sets,
    predict_proba,
)
from .tensor import (
    Tensor,
    backward,
    dense_stack,
    no_grad,
    reduce,
    row,
    segment,
    softmax,
    softmax_cross_entropy,
    stack,
)

__version__ = "0.1.0"
