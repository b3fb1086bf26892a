"""Deterministic, splittable random streams.

Every stochastic operation in the toolkit pulls its own named stream from a
64-bit base seed, so a dataset or an experiment report is bit-reproducible
from its seed alone.  Stream identity is (seed, token, token, ...) where
tokens are small ints (network ids, round indices, fold ids) or strings
(operation names, cell names); string tokens are hashed with SHA-256 so the
mapping is stable across processes and platforms.

Caveat: numpy's ``SeedSequence`` reads the identity as a list of 32-bit
words and zero-pads it to four, so identities that differ only by
trailing zero int tokens share a stream while their words fit in four:
``derive_rng(5)`` and ``derive_rng(5, 0)`` draw the same numbers, as do
``derive_rng(s, "socialise")`` and ``derive_rng(s, "socialise", 0)``.
(Words also run together across tokens: ``derive_rng(2**32)`` is
``derive_rng(0, 1)``.)  No two streams the pipeline draws collide: each
names its operation, and the identities of one operation carry the same
number of int tokens, except ``mutate``'s default ``(seed, "mutate")``
beside the per-snapshot ``(seed, "mutate", s)``, whose s starts at 1;
``events`` always passes its round and attempt.  Mixing the token count
into the entropy would separate them, and change every output byte.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _token_word(token: int | str) -> int:
    if isinstance(token, str):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    return int(token) & _MASK64


def derive_rng(seed: int, *tokens: int | str) -> np.random.Generator:
    """Return the generator for the stream named by ``tokens`` under ``seed``.

    Identities that differ only by trailing zero int tokens, such as
    ``(5,)`` and ``(5, 0)``, share a stream (see the module docstring)."""
    entropy = [int(seed) & _MASK64] + [_token_word(t) for t in tokens]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *tokens: int | str) -> int:
    """Collapse (seed, tokens...) into a single reusable 63-bit seed.

    Used where a component takes a plain integer seed (e.g. a per-fold model
    config) rather than a generator.
    """
    h = hashlib.sha256()
    h.update((int(seed) & _MASK64).to_bytes(8, "little"))
    for t in tokens:
        h.update(_token_word(t).to_bytes(8, "little"))
    return int.from_bytes(h.digest()[:8], "little") >> 1
