"""Hash-based target attention over long behavior sequences.

The root re-exports what the CLI, hashta.bench and perfbench/ call.
"""

from .errors import FormatError, NumericError
from .fingerprint import FingerprintTable, load_table, save_table
from .model import (
    ModelConfig,
    ModelParams,
    Request,
    auc,
    evaluate,
    fingerprint_items,
    forward,
    init_params,
    load_checkpoint,
    long_selection,
    predict_request,
    save_checkpoint,
    train,
    verify_item_fingerprints,
)

__all__ = [
    "FingerprintTable",
    "FormatError",
    "ModelConfig",
    "ModelParams",
    "NumericError",
    "Request",
    "auc",
    "evaluate",
    "fingerprint_items",
    "forward",
    "init_params",
    "load_checkpoint",
    "load_table",
    "long_selection",
    "predict_request",
    "save_checkpoint",
    "save_table",
    "train",
    "verify_item_fingerprints",
]

__version__ = "0.1.0"
