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
connects the best-scoring fraction.  Mutating the sDNAs between rounds
drifts preferences, which is what makes successive snapshots a plausible
dynamic network rather than a forced re-run.
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

from .graph import SocialGraph, unconnected_pairs, walk_indicators
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

    @classmethod
    def from_dict(cls, d: dict) -> "Sdna":
        return cls(id=d["id"], w=d["w"], l=d["l"], d=d["d"], k=d["k"])


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
                and all(isinstance(x, numbers.Real) and math.isfinite(x) for x in self.c)):
            raise ValueError(f"c must be a list of finite numbers, got {self.c!r}")
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))
        for name in ("n", "f", "y", "q", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("p", "t", "r", "z"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.mutate_preference, bool):
            raise ValueError(f"mutate_preference must be true or false, "
                             f"got {self.mutate_preference!r}")
        if self.n < 1 or self.y < 1:
            raise ValueError("n and y must be at least 1")
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
    def from_json(cls, text: str) -> "SimConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "SimConfig":
        return cls.from_json(Path(path).read_text())


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
    currently holds; a socialise round passes the same frozen graph for all
    pairs."""
    di = sdnas[g.sdna_of[i]].d
    dj = sdnas[g.sdna_of[j]].d
    return float(g.degrees[j] * di + g.degrees[i] * dj)


def path_score(i: int, j: int, g: SocialGraph, sdnas: list[Sdna]) -> np.ndarray:
    """Per-walk-length score vector, component x-2 for walk length x in 2..q.

    A component is (k_i[x] + k_j[x]) when a walk of exactly x steps joins the
    pair and zero otherwise.
    """
    ki = sdnas[g.sdna_of[i]].k
    kj = sdnas[g.sdna_of[j]].k
    q = ki.size + 1
    indicators = walk_indicators(g, q)
    out = np.zeros(q - 1)
    for x in range(2, q + 1):
        if indicators[x - 2][i, j]:
            out[x - 2] = ki[x - 2] + kj[x - 2]
    return out


def pair_score(i: int, j: int, g: SocialGraph, sdnas: list[Sdna], cfg: SimConfig) -> float:
    """Final connection score: feature + r * popularity + c . path."""
    phi = feature_score(i, j, g, sdnas)
    delta = popularity_score(i, j, g, sdnas)
    pi = path_score(i, j, g, sdnas)
    return float(phi + cfg.r * delta + np.asarray(cfg.c) @ pi)


def _score_pair_block(
    g: SocialGraph, sdnas: list[Sdna], cfg: SimConfig, pairs: np.ndarray
) -> np.ndarray:
    """Vectorized pair_score over an (m, 2) pair array against a frozen graph."""
    if pairs.size == 0:
        return np.zeros(0)
    ii, jj = pairs[:, 0], pairs[:, 1]
    sid = g.sdna_of
    signed_w = np.stack([dna.w * dna.l for dna in sdnas])        # (y, f)
    attach = np.array([dna.d for dna in sdnas])                  # (y,)
    walk_w = np.stack([dna.k for dna in sdnas])                  # (y, q-1)

    diff = np.abs(g.features[ii] - g.features[jj])               # (m, f)
    phi = (diff * signed_w[sid[ii]]).sum(axis=1) + (diff * signed_w[sid[jj]]).sum(axis=1)

    deg = g.degrees.astype(np.float64)
    delta = deg[jj] * attach[sid[ii]] + deg[ii] * attach[sid[jj]]

    scores = phi + cfg.r * delta
    if len(g.edges):
        indicators = walk_indicators(g, cfg.q)
        for x in range(2, cfg.q + 1):
            hit = indicators[x - 2][ii, jj]
            scores = scores + cfg.c[x - 2] * hit * (
                walk_w[sid[ii], x - 2] + walk_w[sid[jj], x - 2]
            )
    return scores


def socialise(
    g: SocialGraph,
    sdnas: list[Sdna],
    cfg: SimConfig,
    rng: np.random.Generator | None = None,
    stopping_len: int | None = None,
) -> tuple[SocialGraph, np.recarray]:
    """One link-formation round.

    Every still-unconnected pair is scored with probability p (selection
    draws happen in deterministic lexicographic pair order on one stream);
    the scored pairs are sorted by score descending with a stable (i, j)
    tie-break, and the top floor(t * |unconnected pairs|) of them become
    edges.  Degrees and walk indicators are frozen for the whole round, so
    connection order cannot feed back into scores.

    Returns the grown graph and the audit: a record array with one row per
    scored pair, in rank order (best first), with fields ``i`` and ``j``
    (the pair, i < j, int64) and ``score`` (its pair score, float64).  The
    first ``min(stopping_len, len(audit))`` rows are the pairs connected.
    ``stopping_len`` overrides the t-derived cutoff (the event-stream mode
    forces it to 1).
    """
    if rng is None:
        rng = derive_rng(cfg.seed, "socialise")
    universe = unconnected_pairs(g)
    selected = universe[rng.random(len(universe)) < cfg.p]
    scores = _score_pair_block(g, sdnas, cfg, selected)
    if not np.all(np.isfinite(scores)):
        raise FloatingPointError("non-finite pair score")

    if stopping_len is None:
        stopping_len = int(math.floor(cfg.t * len(universe)))
    # selected is in (i, j) order, so a stable sort is the (i, j) tie-break
    order = np.argsort(-scores, kind="stable")
    ranked = selected[order]
    ranked_scores = scores[order]

    n_connect = min(stopping_len, len(ranked))
    grown = g.with_edges(ranked[:n_connect])
    audit = np.rec.fromarrays((ranked[:, 0], ranked[:, 1], ranked_scores), names="i,j,score")
    return grown, audit


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
    A snapshot is simulated only when it is asked for, and the generator
    holds only the latest graph (the next snapshot grows from it), so a
    caller that drops an earlier snapshot frees it, together with the
    adjacency that socialising its successor cached on it.
    """
    if snapshots < 1:
        raise ValueError("snapshots must be >= 1")
    graph, sdnas = generate_population(cfg)
    for s in range(snapshots):
        if s > 0:
            sdnas = mutate(sdnas, cfg, derive_rng(cfg.seed, "mutate", s))
        graph, _ = socialise(graph, sdnas, cfg, derive_rng(cfg.seed, "socialise", s))
        yield graph, sdnas


_EVENT_MAX_RETRIES = 100


def emit_event_stream(cfg: SimConfig, events: int) -> list[tuple[int, tuple[int, int]]]:
    """Timestamped single-edge stream: each round socialises with the cutoff
    forced to one edge, then mutates.

    If a round's exploration draw selects no pair, it retries with fresh
    draws; the stream ends early once the graph saturates (or a pathological
    config exhausts the retry budget) and the shortfall is logged.
    """
    if events < 1:
        raise ValueError("events must be >= 1")
    graph, sdnas = generate_population(cfg)
    stream: list[tuple[int, tuple[int, int]]] = []
    for round_idx in range(events):
        if len(graph.edges) == cfg.n * (cfg.n - 1) // 2:
            break
        connected = None
        for attempt in range(_EVENT_MAX_RETRIES):
            grown, audit = socialise(
                graph, sdnas, cfg,
                derive_rng(cfg.seed, "events", round_idx, attempt),
                stopping_len=1,
            )
            if len(audit):
                connected = (int(audit.i[0]), int(audit.j[0]))
                graph = grown
                break
        if connected is None:
            break
        stream.append((round_idx, connected))
        sdnas = mutate(sdnas, cfg, derive_rng(cfg.seed, "events-mutate", round_idx))
    if len(stream) < events:
        log.warning("event stream ended early: %d of %d events", len(stream), events)
    return stream
