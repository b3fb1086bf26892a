"""Scalar pair scores, one pair at a time.

This is the reference the vectorized scoring in ``socsim.sdna`` is tested
against (``test_sdna.py`` and acceptance criterion 4); no pipeline path
calls it.
"""

import numpy as np

from socsim.graph import SocialGraph, dense_adjacency
from socsim.sdna import Sdna, SimConfig


def feature_score_one_way(fi: np.ndarray, fj: np.ndarray, dna: Sdna) -> float:
    """Score of j from i's point of view: |fi - fj| dotted with w * l."""
    fi = np.asarray(fi, dtype=np.float64)
    fj = np.asarray(fj, dtype=np.float64)
    if fi.shape != fj.shape or fi.shape != dna.w.shape:
        raise ValueError("feature vectors and sDNA weights must share length")
    return float(np.abs(fi - fj) @ (dna.w * dna.l))


def feature_score(i: int, j: int, g: SocialGraph, sdnas: list[Sdna]) -> float:
    """Two-way feature score: both endpoints evaluate each other and add."""
    fi, fj = g.features[i], g.features[j]
    return feature_score_one_way(fi, fj, sdnas[g.sdna_of[i]]) + feature_score_one_way(
        fj, fi, sdnas[g.sdna_of[j]]
    )


def popularity_score(i: int, j: int, g: SocialGraph, sdnas: list[Sdna]) -> float:
    """Two-way preferential-attachment score: each side weighs the other's
    degree by its own attachment parameter.  Degrees are whatever the graph
    currently holds; a round scores every pair against the same frozen
    graph."""
    di = sdnas[g.sdna_of[i]].d
    dj = sdnas[g.sdna_of[j]].d
    return float(g.degrees[j] * di + g.degrees[i] * dj)


def path_score(i: int, j: int, g: SocialGraph, sdnas: list[Sdna]) -> np.ndarray:
    """Per-walk-length score vector, component x-2 for walk length x in 2..q.

    A component is (k_i[x] + k_j[x]) when a walk of exactly x steps joins the
    pair and zero otherwise.  Walk existence is read from boolean powers of
    the dense adjacency matrix, not from the simulator's packed walk bits.
    """
    ki = sdnas[g.sdna_of[i]].k
    kj = sdnas[g.sdna_of[j]].k
    q = ki.size + 1
    a = dense_adjacency(g, bool)
    power = a
    out = np.zeros(q - 1)
    for x in range(2, q + 1):
        power = (power.astype(np.int64) @ a) > 0
        if power[i, j]:
            out[x - 2] = ki[x - 2] + kj[x - 2]
    return out


def pair_score(i: int, j: int, g: SocialGraph, sdnas: list[Sdna], cfg: SimConfig) -> float:
    """Final connection score: feature + r * popularity + c . path."""
    phi = feature_score(i, j, g, sdnas)
    delta = popularity_score(i, j, g, sdnas)
    pi = path_score(i, j, g, sdnas)
    return float(phi + cfg.r * delta + np.asarray(cfg.c) @ pi)
