"""Preference records (sDNA) and the link-formation simulator.

Each node subscribes to one sDNA: a bundle of latent preference variables
that decides how attractive other nodes look to it.  A connection score for
a candidate pair (i, j) is built from three ingredients, evaluated from both
endpoints' sDNAs and added:

  feature score     signed weights over absolute feature differences, so a
                    record can prefer either similar or dissimilar values
                    per feature
  popularity score  the other node's degree, scaled by this record's
                    preferential-attachment weight
  path score        one indicator per walk length 2..q, weighted by the
                    record's decreasing walk-length weights

A socialise round scores a random subset of the still-unconnected pairs and
connects the best-scoring fraction (:func:`iter_snapshots`), or the single
best pair (:func:`emit_event_stream`).  The open pairs are one sorted int64
array of codes ``i * n + j`` (``graph.unconnected_codes``), so ascending
code order is lexicographic pair order; a round draws one coin per code in
that order and decodes only the codes it selects.  Mutating the sDNAs
between rounds drifts preferences, which is what makes successive
snapshots a plausible dynamic network rather than a forced re-run.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .graph import SocialGraph, decode_pairs, drop_pairs, unconnected_codes, walk_bit_rows
from .rng import derive_rng

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Sdna:
    """One latent preference record, shared by a group of nodes.

    w   (f,) strength of each feature preference, in [0, 1]
    l   (f,) +1 or -1: whether a large difference in that feature raises or
        lowers the score (+1 rewards dissimilarity; the score multiplies the
        absolute difference by this sign)
    d   scalar preferential-attachment weight in [0, 1]
    k   (q-1,) walk-length weights for lengths 2..q, strictly decreasing
    """

    id: int
    w: np.ndarray
    l: np.ndarray
    d: float
    k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))
        object.__setattr__(self, "l", np.asarray(self.l, dtype=np.float64))
        object.__setattr__(self, "k", np.asarray(self.k, dtype=np.float64))
        self.validate()

    def validate(self) -> None:
        if self.w.ndim != 1 or self.l.shape != self.w.shape:
            raise ValueError("w and l must be 1-d vectors of equal length")
        if np.any((self.w < 0) | (self.w > 1)):
            raise ValueError("w entries must lie in [0, 1]")
        if not np.all(np.isin(self.l, (-1.0, 1.0))):
            raise ValueError("l entries must be -1 or +1")
        if not (0.0 <= self.d <= 1.0):
            raise ValueError("d must lie in [0, 1]")
        if self.k.size and (np.any(np.diff(self.k) >= 0) or self.k[-1] <= 0):
            raise ValueError("k must be strictly decreasing and positive")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "w": self.w.tolist(),
            "l": self.l.tolist(),
            "d": self.d,
            "k": self.k.tolist(),
        }


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    n/f/y/q           node count, feature count, number of sDNAs, longest
                      walk length the path score considers
    p                 exploration probability: chance an unconnected pair is
                      scored at all in a round
    t                 connect fraction: the top floor(t * |unconnected pairs|)
                      scored pairs become edges
    r, c              global weights on the popularity score and on the
                      per-length path scores (c has length q-1)
    z                 mutation intensity: per-element resample probability
    mutate_preference resample the +-1 sign vector too
    seed              base seed; every stochastic step derives its own stream
    """

    n: int = 200
    f: int = 20
    y: int = 4
    q: int = 3
    p: float = 0.3
    t: float = 0.005
    r: float = 1.0
    c: tuple[float, ...] = (1.0, 0.5)
    z: float = 0.1
    mutate_preference: bool = True
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.c, (list, tuple))
                and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                        and math.isfinite(x) for x in self.c)):
            raise ValueError(f"c must be a list of finite numbers, got {self.c!r}")
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))
        for name in ("n", "f", "y", "q", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("p", "t", "r", "z"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                               and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.mutate_preference, bool):
            raise ValueError(f"mutate_preference must be true or false, "
                             f"got {self.mutate_preference!r}")
        if self.n < 1 or self.y < 1:
            raise ValueError("n and y must be at least 1")
        if self.f < 0:
            raise ValueError(f"f must be >= 0, got {self.f!r}")
        if self.y > self.n:
            raise ValueError("y must not exceed n")
        if self.q < 2:
            raise ValueError("q must be at least 2")
        for name in ("p", "t", "z"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if len(self.c) != self.q - 1:
            raise ValueError(f"c must have length q-1 = {self.q - 1}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a simulation config must be a JSON object, got {d!r}")
        try:
            return cls(**d)
        except TypeError as exc:  # unknown or missing keys
            raise ValueError(f"bad simulation config: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "SimConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _stratified_walk_weights(q: int, rng: np.random.Generator) -> np.ndarray:
    """Sample the length-(q-1) walk-weight vector, one disjoint interval per
    walk length: length x draws from [(q-x+1)/q, (q-x+2)/q), so descent is
    strict by construction and no rejection loop is needed."""
    lows = np.array([(q - x + 1) / q for x in range(2, q + 1)])
    return lows + rng.random(q - 1) / q


def generate_population(cfg: SimConfig) -> tuple[SocialGraph, list[Sdna]]:
    """Fresh edgeless population: uniform features, random sDNAs.

    Nodes are assigned to sDNAs in equal contiguous blocks of n/y; when y
    does not divide n the assignment falls back to round-robin.  Draw order
    is fixed (features, then each sDNA's w, l, d, k) so a seed pins the
    whole population.
    """
    rng = derive_rng(cfg.seed, "population")
    features = rng.random((cfg.n, cfg.f))
    sdnas = []
    for sid in range(cfg.y):
        w = rng.random(cfg.f)
        l = rng.choice((-1.0, 1.0), size=cfg.f)
        d = float(rng.random())
        k = _stratified_walk_weights(cfg.q, rng)
        sdnas.append(Sdna(id=sid, w=w, l=l, d=d, k=k))
    if cfg.n % cfg.y == 0:
        block = cfg.n // cfg.y
        sdna_of = np.arange(cfg.n) // block
    else:
        sdna_of = np.arange(cfg.n) % cfg.y
    graph = SocialGraph(n=cfg.n, edges=[], features=features, sdna_of=sdna_of)
    return graph, sdnas


# ---------------------------------------------------------------------------
# pair scoring


# pairs scored per pass: keeps each pass's (rows, f) temporaries in cache
_SCORE_ROWS = 2048
# selection coins drawn per call: a round never holds one float per open pair
_DRAW_ROWS = 1 << 16


def _score_pair_block(
    g: SocialGraph, sdnas: list[Sdna], cfg: SimConfig, codes: np.ndarray
) -> np.ndarray:
    """Connection scores of pair codes ``i * n + j`` against a frozen graph:
    feature + r * popularity + c . path, where

      feature     sum_f |x_i - x_j| * w * l, evaluated with i's record and
                  with j's record and added
      popularity  deg(j) * d_i + deg(i) * d_j
      path        per walk length x in 2..q, (k_i[x] + k_j[x]) when a walk of
                  exactly x steps joins the pair, else 0

    Walk hits are read straight from the packed bit rows of
    :func:`walk_bit_rows`: byte ``j >> 3``, bit ``7 - (j & 7)`` of row i.
    The pairs are decoded and scored ``_SCORE_ROWS`` at a time; each score
    is computed on its own row, so the passes do not change a bit of it.
    """
    signed_w = np.stack([dna.w * dna.l for dna in sdnas])        # (y, f)
    attach = np.array([dna.d for dna in sdnas])                  # (y,)
    walk_w = np.stack([dna.k for dna in sdnas])                  # (y, q-1)
    deg = g.degrees.astype(np.float64)
    powers = walk_bit_rows(g, cfg.q) if len(g.edges) else []
    scores = np.empty(len(codes))
    for lo in range(0, len(codes), _SCORE_ROWS):
        ii, jj = np.divmod(codes[lo:lo + _SCORE_ROWS], g.n)
        si, sj = g.sdna_of[ii], g.sdna_of[jj]
        diff = np.abs(np.take(g.features, ii, axis=0) - np.take(g.features, jj, axis=0))
        phi = ((diff * np.take(signed_w, si, axis=0)).sum(axis=1)
               + (diff * np.take(signed_w, sj, axis=0)).sum(axis=1))
        delta = deg[jj] * attach[si] + deg[ii] * attach[sj]
        block = phi + cfg.r * delta
        if powers:
            at = ii * powers[0].shape[1] + (jj >> 3)
            shift = (7 - (jj & 7)).astype(np.uint8)
            for x, rows in enumerate(powers, start=2):
                hit = ((rows.ravel()[at] >> shift) & 1).view(bool)
                block = block + cfg.c[x - 2] * hit * (walk_w[si, x - 2] + walk_w[sj, x - 2])
        scores[lo:lo + _SCORE_ROWS] = block
    return scores


def _scored_selection(
    g: SocialGraph, sdnas: list[Sdna], cfg: SimConfig, open_codes: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """The shared part of every round: draw which open pairs are scored (each
    with probability p, one draw per code in ascending order, i.e.
    lexicographic pair order) and score them against the frozen graph.
    Returns the selected codes, in that order, and their scores.

    The coins are drawn ``_DRAW_ROWS`` at a time; a Generator's doubles
    come one per 64-bit output, so the pieces are the draws of one call."""
    parts = (open_codes[lo:lo + _DRAW_ROWS] for lo in range(0, len(open_codes), _DRAW_ROWS))
    selected = np.concatenate(
        [open_codes[:0], *(part[rng.random(len(part)) < cfg.p] for part in parts)])
    with np.errstate(over="ignore", invalid="ignore"):
        scores = _score_pair_block(g, sdnas, cfg, selected)
    if not np.all(np.isfinite(scores)):
        raise ValueError(f"pair scores overflow float64: r={cfg.r!r} and c={list(cfg.c)!r} "
                         f"are too large for this graph")
    return selected, scores


def _top_pairs(selected: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """The k best-scoring selected codes, in pair order: the same set as the
    first k rows of a stable descending sort, found without sorting.  Every
    pair above the k-th score is taken, then the first pairs equal to it."""
    if k >= len(scores):
        return selected
    if k <= 0:
        return selected[:0]
    kth = np.partition(scores, len(scores) - k)[len(scores) - k]
    keep = scores > kth
    keep[np.flatnonzero(scores == kth)[: k - np.count_nonzero(keep)]] = True
    return selected[keep]


def mutate(
    sdnas: list[Sdna],
    cfg: SimConfig,
    rng: np.random.Generator | None = None,
) -> list[Sdna]:
    """Resample each sDNA element with probability z.

    w and d redraw from U[0,1]; l (only when mutate_preference) redraws
    uniformly from {-1, +1}; each walk weight redraws from its own stratified
    interval, so the strict-descent invariant survives any subset of element
    mutations.  Candidate values are always drawn, whether or not the coin
    selects them, which keeps the stream consumption (and so everything
    downstream) independent of coin outcomes.
    """
    if rng is None:
        rng = derive_rng(cfg.seed, "mutate")
    out = []
    for dna in sdnas:
        w = np.where(rng.random(dna.w.size) < cfg.z, rng.random(dna.w.size), dna.w)
        l = dna.l
        if cfg.mutate_preference:
            l = np.where(
                rng.random(dna.l.size) < cfg.z,
                rng.choice((-1.0, 1.0), size=dna.l.size),
                dna.l,
            )
        d_coin, d_new = rng.random(), rng.random()
        d = float(d_new) if d_coin < cfg.z else dna.d
        q = dna.k.size + 1
        fresh = _stratified_walk_weights(q, rng)
        k = np.where(rng.random(dna.k.size) < cfg.z, fresh, dna.k)
        out.append(Sdna(id=dna.id, w=w, l=l, d=d, k=k))
    return out


def iter_snapshots(cfg: SimConfig, snapshots: int) -> Iterator[tuple[SocialGraph, list[Sdna]]]:
    """Full dynamic run, yielding (graph, sdnas-in-effect) per snapshot.

    Snapshot 0 socialises a fresh population; each later snapshot first
    mutates the sDNAs and then socialises over the pairs that are still
    unconnected, so edge sets grow monotonically while features stay fixed.
    A round scores each open pair with probability p (one coin per pair, in
    lexicographic pair order, on the stream ``("socialise", s)``) against
    the graph as it stood before the round, so degrees and walks are
    frozen for the round, and connects the top floor(t * |open pairs|)
    scored pairs; equal scores go in (i, j) order (:func:`_top_pairs`).
    The open pair codes are carried from round to round, minus the edges
    just added.  Raises ``ValueError`` when r or c overflow a score.

    A snapshot is simulated only when it is asked for, and the generator
    holds only the latest graph and its open codes (the next snapshot grows
    from them), so a caller that drops an earlier snapshot frees it.
    """
    if snapshots < 1:
        raise ValueError("snapshots must be >= 1")
    graph, sdnas = generate_population(cfg)
    open_codes = unconnected_codes(graph)
    for s in range(snapshots):
        if s > 0:
            sdnas = mutate(sdnas, cfg, derive_rng(cfg.seed, "mutate", s))
        selected, scores = _scored_selection(graph, sdnas, cfg, open_codes,
                                             derive_rng(cfg.seed, "socialise", s))
        added = _top_pairs(selected, scores, math.floor(cfg.t * len(open_codes)))
        del selected, scores  # not held while drop_pairs copies the open codes
        graph = graph.with_edges(decode_pairs(added, cfg.n))
        open_codes = drop_pairs(open_codes, added)
        yield graph, sdnas


_EVENT_MAX_RETRIES = 100


def emit_event_stream(cfg: SimConfig, events: int) -> list[tuple[int, tuple[int, int]]]:
    """Timestamped single-edge stream: each round connects the best-scoring
    selected pair (the first in (i, j) order among equal scores), then
    mutates.  The open pair codes are carried from round to round, minus
    the pair just connected.

    If a round's exploration draw selects no pair, it retries with fresh
    draws; the stream ends early once no open pair is left (or a
    pathological config exhausts the retry budget) and the shortfall is
    logged.
    """
    if events < 1:
        raise ValueError("events must be >= 1")
    graph, sdnas = generate_population(cfg)
    open_codes = unconnected_codes(graph)
    stream: list[tuple[int, tuple[int, int]]] = []
    for round_idx in range(events):
        if not len(open_codes):
            break
        added = None
        for attempt in range(_EVENT_MAX_RETRIES):
            selected, scores = _scored_selection(
                graph, sdnas, cfg, open_codes, derive_rng(cfg.seed, "events", round_idx, attempt))
            if len(selected):
                # argmax returns the first maximum: the first in (i, j) order
                best = int(np.argmax(scores))
                added = selected[best:best + 1]
                break
        if added is None:
            break
        pair = decode_pairs(added, cfg.n)
        graph = graph.with_edges(pair)
        open_codes = drop_pairs(open_codes, added)
        stream.append((round_idx, (int(pair[0, 0]), int(pair[0, 1]))))
        sdnas = mutate(sdnas, cfg, derive_rng(cfg.seed, "events-mutate", round_idx))
    if len(stream) < events:
        log.warning("event stream ended early: %d of %d events", len(stream), events)
    return stream
