"""Splittable deterministic random streams.

Every stochastic routine in the package takes an explicit numpy Generator.
Streams are derived from a 64-bit master seed plus a path of task labels
(ints or strings), so replicas, cells and mesh blocks each get an
independent stream whose draws do not depend on scheduling or thread count.
"""

import hashlib
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1


def _label_to_int(label):
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    if isinstance(label, str):
        return _string_label(label)
    raise TypeError(f"stream path labels must be int or str, got {type(label)!r}")


@lru_cache(maxsize=1024)  # a run hashes the same few names on every stream() call
def _string_label(label):
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")


def stream(seed, *path):
    """Generator for (seed, *path); identical arguments give identical draws."""
    entropy = [int(seed) & _MASK64] + [_label_to_int(p) for p in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
