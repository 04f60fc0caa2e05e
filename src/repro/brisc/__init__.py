"""BRISC — the paper's prior system, rebuilt as the comparison baseline.

BRISC (PLDI'97) compresses against a *corpus-trained external* pattern
dictionary instead of SSD's embedded per-program dictionary.  That makes
it cheaper for tiny programs (no embedded dictionary to amortize) but
weaker on large ones, and its translation path must decode patterns
rather than block-copy — both effects the evaluation reproduces.
"""

from .codec import (
    BriscCompressed,
    BriscError,
    compress,
    compress_function,
    decompress,
    decompress_function,
)
from .patterns import DEFAULT_BUDGET, Pattern, PatternDictionary, train

__all__ = [
    "BriscCompressed",
    "BriscError",
    "DEFAULT_BUDGET",
    "Pattern",
    "PatternDictionary",
    "compress",
    "compress_function",
    "decompress",
    "decompress_function",
    "train",
]
