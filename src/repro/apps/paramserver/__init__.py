"""Parameter-server training over refreshable vectors (paper section 5.4)."""

from .encoding import float_to_word, word_to_float, words_to_floats
from .paramserver import (
    Coordinator,
    GradientChannel,
    SparseExample,
    TrainingReport,
    Worker,
    make_sparse_dataset,
    run_training,
)

__all__ = [
    "float_to_word",
    "word_to_float",
    "words_to_floats",
    "Coordinator",
    "GradientChannel",
    "SparseExample",
    "TrainingReport",
    "Worker",
    "make_sparse_dataset",
    "run_training",
]
