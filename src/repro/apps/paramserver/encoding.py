"""Float <-> word encoding for parameters stored in far memory.

Far memory words are u64; model parameters are float64. The conversion is
a bit-level reinterpretation (no precision loss), done with numpy views.
"""

from __future__ import annotations

import numpy as np


def words_to_floats(words: np.ndarray) -> np.ndarray:
    """Reinterpret u64 words as float64 values (bitwise)."""
    arr = np.ascontiguousarray(words, dtype="<u8")
    return arr.view("<f8")


def float_to_word(value: float) -> int:
    """One float64 -> one u64 word."""
    return int(np.float64(value).view("<u8"))


def word_to_float(word: int) -> float:
    """One u64 word -> one float64."""
    return float(np.uint64(word).view("<f8"))
