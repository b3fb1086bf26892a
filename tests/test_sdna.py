import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socsim
from socsim.graph import SocialGraph, unconnected_pairs
from socsim.rng import derive_rng
from socsim.sdna import (
    Sdna,
    SimConfig,
    emit_event_stream,
    feature_score,
    feature_score_one_way,
    generate_population,
    iter_snapshots,
    mutate,
    pair_score,
    path_score,
    popularity_score,
    socialise,
)


def small_cfg(**kw):
    defaults = dict(n=8, f=3, y=2, q=3, p=1.0, t=0.2, r=0.5, c=(1.0, 0.5),
                    z=0.2, seed=123)
    defaults.update(kw)
    return SimConfig(**defaults)


def make_graph(n, edges, features, sdna_of):
    return SocialGraph(n=n, edges=edges,
                       features=np.asarray(features, dtype=float),
                       sdna_of=np.asarray(sdna_of))


# --- population -----------------------------------------------------------

def test_population_block_assignment():
    g, sdnas = generate_population(small_cfg(n=4, f=2, y=2))
    assert list(g.sdna_of) == [0, 0, 1, 1]
    assert len(sdnas) == 2
    assert len(g.edges) == 0


def test_population_round_robin_when_y_does_not_divide():
    g, _ = generate_population(small_cfg(n=5, f=2, y=2))
    assert list(g.sdna_of) == [0, 1, 0, 1, 0]


def test_population_deterministic():
    cfg = small_cfg(seed=99)
    g1, s1 = generate_population(cfg)
    g2, s2 = generate_population(cfg)
    assert np.array_equal(g1.features, g2.features)
    for a, b in zip(s1, s2):
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.l, b.l)
        assert a.d == b.d
        assert np.array_equal(a.k, b.k)


def test_walk_weights_strictly_decreasing():
    _, sdnas = generate_population(small_cfg(q=4, c=(1.0, 0.5, 0.25)))
    for dna in sdnas:
        assert dna.k.size == 3
        assert np.all(np.diff(dna.k) < 0)
        assert dna.k[-1] > 0


def test_sdna_invariants_enforced():
    with pytest.raises(ValueError):
        Sdna(id=0, w=[1.5], l=[1.0], d=0.5, k=[0.9])
    with pytest.raises(ValueError):
        Sdna(id=0, w=[0.5], l=[0.0], d=0.5, k=[0.9])
    with pytest.raises(ValueError):
        Sdna(id=0, w=[0.5], l=[1.0], d=0.5, k=[0.4, 0.6])


@pytest.mark.parametrize("kw", [dict(n=0, y=0), dict(n=-3, y=1), dict(y=0), dict(y=-1)])
def test_sim_config_rejects_empty_population(kw):
    with pytest.raises(ValueError, match="n and y must be at least 1"):
        small_cfg(**kw)


@pytest.mark.parametrize("name, value", [("n", 40.5), ("f", 3.0), ("y", 2.5)])
def test_sim_config_rejects_non_integer_sizes(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
        small_cfg(**{name: value})
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
        SimConfig.from_json(json.dumps(json.loads(small_cfg().to_json()) | {name: value}))


def test_sim_config_from_json_names_unknown_key():
    with pytest.raises(ValueError, match="unexpected keyword argument 'nodes'"):
        SimConfig.from_json('{"nodes": 5}')


# --- component scores -----------------------------------------------------

def test_feature_score_one_way_hand_case():
    dna = Sdna(id=0, w=[1.0, 0.5], l=[1.0, -1.0], d=0.0, k=[0.9, 0.4])
    # |0.2-0.5|*1 + |0.8-0.4|*(-0.5) = 0.3 - 0.2
    assert feature_score_one_way([0.2, 0.8], [0.5, 0.4], dna) == pytest.approx(0.1)


def test_feature_score_zero_cases():
    dna = Sdna(id=0, w=[0.3, 0.7], l=[1.0, -1.0], d=0.0, k=[0.9, 0.4])
    assert feature_score_one_way([0.1, 0.2], [0.1, 0.2], dna) == 0.0
    zero = Sdna(id=0, w=[0.0, 0.0], l=[1.0, 1.0], d=0.0, k=[0.9, 0.4])
    assert feature_score_one_way([0.9, 0.1], [0.0, 1.0], zero) == 0.0


def test_feature_score_length_mismatch():
    dna = Sdna(id=0, w=[0.3], l=[1.0], d=0.0, k=[0.9])
    with pytest.raises(ValueError):
        feature_score_one_way([0.1, 0.2], [0.1], dna)


def test_feature_score_same_sdna_doubles():
    g, sdnas = generate_population(small_cfg(n=4, y=2))
    one_way = feature_score_one_way(g.features[0], g.features[1], sdnas[0])
    assert feature_score(0, 1, g, sdnas) == 2.0 * one_way


def test_popularity_score_hand_case():
    sdnas = [
        Sdna(id=0, w=[0.1], l=[1.0], d=0.5, k=[0.9]),
        Sdna(id=1, w=[0.1], l=[1.0], d=0.2, k=[0.9]),
    ]
    # deg(1) = 3 via star edges, deg(0) = 0
    g = make_graph(5, [(1, 2), (1, 3), (1, 4)], np.zeros((5, 1)), [0, 1, 0, 0, 1])
    assert popularity_score(0, 1, g, sdnas) == pytest.approx(3 * 0.5 + 0 * 0.2)


def test_popularity_score_zero_cases():
    sdnas = [Sdna(id=0, w=[0.1], l=[1.0], d=0.7, k=[0.9])]
    empty = make_graph(3, [], np.zeros((3, 1)), [0, 0, 0])
    assert popularity_score(0, 1, empty, sdnas) == 0.0
    nod = [Sdna(id=0, w=[0.1], l=[1.0], d=0.0, k=[0.9])]
    g = make_graph(3, [(0, 1), (1, 2)], np.zeros((3, 1)), [0, 0, 0])
    assert popularity_score(0, 2, g, nod) == 0.0


def test_path_score_hand_cases():
    sdnas = [Sdna(id=0, w=[0.1], l=[1.0], d=0.0, k=[0.8, 0.4])]
    path = make_graph(3, [(0, 1), (1, 2)], np.zeros((3, 1)), [0, 0, 0])
    # 2-walk exists (0-1-2); no 3-walk between 0 and 2 on a path graph
    assert np.allclose(path_score(0, 2, path, sdnas), [1.6, 0.0])
    lonely = make_graph(4, [(0, 1)], np.zeros((4, 1)), [0, 0, 0, 0])
    assert np.allclose(path_score(2, 3, lonely, sdnas), [0.0, 0.0])


def test_path_score_triangle_two_walk():
    sdnas = [Sdna(id=0, w=[0.1], l=[1.0], d=0.0, k=[0.8])]
    tri = make_graph(3, [(0, 1), (1, 2), (0, 2)], np.zeros((3, 1)), [0, 0, 0])
    assert np.allclose(path_score(0, 1, tri, sdnas), [1.6])


def test_pair_score_composes_components():
    cfg = small_cfg(n=6, y=2)
    g0, sdnas = generate_population(cfg)
    g = g0.with_edges([(0, 1), (1, 2), (3, 4)])
    for (i, j) in [(0, 2), (2, 5), (0, 3)]:
        expected = (
            feature_score(i, j, g, sdnas)
            + cfg.r * popularity_score(i, j, g, sdnas)
            + np.asarray(cfg.c) @ path_score(i, j, g, sdnas)
        )
        assert pair_score(i, j, g, sdnas, cfg) == pytest.approx(expected, rel=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_pair_score_symmetric(seed):
    cfg = small_cfg(n=6, y=3, seed=seed)
    g0, sdnas = generate_population(cfg)
    rng = derive_rng(seed, "edges")
    extra = unconnected_pairs(g0)[rng.random(15) < 0.4]
    g = g0.with_edges(extra)
    for i, j in [(0, 1), (2, 5), (1, 4)]:
        assert pair_score(i, j, g, sdnas, cfg) == pair_score(j, i, g, sdnas, cfg)


def test_reduction_to_feature_score():
    cfg = small_cfg(n=6, y=2, r=0.0, c=(0.0, 0.0))
    g, sdnas = generate_population(cfg)
    g = g.with_edges([(0, 1), (1, 2)])
    assert pair_score(0, 2, g, sdnas, cfg) == pytest.approx(
        feature_score(0, 2, g, sdnas)
    )


# --- socialise ------------------------------------------------------------

def test_socialise_t_zero_adds_nothing():
    cfg = small_cfg(t=0.0)
    g, sdnas = generate_population(cfg)
    grown, audit = socialise(g, sdnas, cfg)
    assert len(grown.edges) == 0
    assert len(audit) == len(unconnected_pairs(g))


def test_socialise_full_cutoff_completes_graph():
    cfg = small_cfg(p=1.0, t=1.0)
    g, sdnas = generate_population(cfg)
    grown, audit = socialise(g, sdnas, cfg)
    assert len(grown.edges) == cfg.n * (cfg.n - 1) // 2


def test_socialise_connect_count():
    cfg = small_cfg(n=10, p=1.0, t=0.3)
    g, sdnas = generate_population(cfg)
    universe = len(unconnected_pairs(g))
    grown, audit = socialise(g, sdnas, cfg)
    assert len(grown.edges) == min(int(cfg.t * universe), len(audit))


def test_socialise_scores_sorted_and_audited():
    cfg = small_cfg(n=10, p=0.7, t=0.1)
    g, sdnas = generate_population(cfg)
    grown, audit = socialise(g, sdnas, cfg)
    assert audit.dtype.names == ("i", "j", "score")
    assert audit.i.dtype == np.int64 and audit.score.dtype == np.float64
    assert len(audit) > 0
    scores = audit.score.tolist()
    assert scores == sorted(scores, reverse=True)
    assert np.all(audit.i < audit.j)
    for i, j, score in audit.tolist():
        assert score == pytest.approx(pair_score(i, j, g, sdnas, cfg), rel=1e-9)
    # the connected pairs are the audit's head
    n_connect = len(grown.edges)
    assert n_connect > 0
    head = np.column_stack([audit.i[:n_connect], audit.j[:n_connect]])
    assert np.array_equal(grown.edges, np.unique(head, axis=0))


def test_socialise_breaks_score_ties_in_pair_order():
    # equal features and no edges: every scored pair has the score 0
    cfg = small_cfg(n=12, p=0.6, t=0.1)
    g, sdnas = generate_population(cfg)
    flat = make_graph(cfg.n, [], np.ones((cfg.n, cfg.f)), g.sdna_of)
    grown, audit = socialise(flat, sdnas, cfg)
    assert len(audit) > 1 and np.all(audit.score == 0.0)
    pairs = np.column_stack([audit.i, audit.j])
    assert pairs.tolist() == sorted(pairs.tolist())
    n_connect = int(cfg.t * len(unconnected_pairs(flat)))
    assert 0 < n_connect < len(audit)
    assert np.array_equal(grown.edges, pairs[:n_connect])


def test_socialise_deterministic():
    cfg = small_cfg(n=12, p=0.5, t=0.2)
    g, sdnas = generate_population(cfg)
    g1, a1 = socialise(g, sdnas, cfg)
    g2, a2 = socialise(g, sdnas, cfg)
    assert np.array_equal(g1.edges, g2.edges)
    assert np.array_equal(a1, a2)


# --- mutation ---------------------------------------------------------------

def test_mutate_zero_intensity_is_identity():
    cfg = small_cfg(z=0.0)
    _, sdnas = generate_population(cfg)
    mutated = mutate(sdnas, cfg)
    for before, after in zip(sdnas, mutated):
        assert np.array_equal(before.w, after.w)
        assert np.array_equal(before.l, after.l)
        assert before.d == after.d
        assert np.array_equal(before.k, after.k)


def test_mutate_full_intensity_resamples_everything():
    cfg = small_cfg(z=1.0, mutate_preference=True)
    _, sdnas = generate_population(cfg)
    mutated = mutate(sdnas, cfg)
    for before, after in zip(sdnas, mutated):
        after.validate()
        assert not np.array_equal(before.w, after.w)
        assert before.d != after.d
        assert not np.array_equal(before.k, after.k)


def test_mutate_preserves_invariants_many_rounds():
    # 500 rounds x 2 records = 1,000 record mutations
    cfg = small_cfg(z=0.5, q=4, c=(1.0, 0.5, 0.2))
    _, sdnas = generate_population(cfg)
    for round_idx in range(500):
        sdnas = mutate(sdnas, cfg, derive_rng(cfg.seed, "round", round_idx))
        for dna in sdnas:
            dna.validate()


def test_mutate_respects_preference_flag():
    cfg = small_cfg(z=1.0, mutate_preference=False)
    _, sdnas = generate_population(cfg)
    mutated = mutate(sdnas, cfg)
    for before, after in zip(sdnas, mutated):
        assert np.array_equal(before.l, after.l)


def test_mutate_fraction_matches_intensity():
    cfg = small_cfg(n=4, f=2500, y=4, z=0.5)
    _, sdnas = generate_population(cfg)
    mutated = mutate(sdnas, cfg)
    changed = sum(
        int((b.w != a.w).sum()) for b, a in zip(sdnas, mutated)
    )
    total = sum(dna.w.size for dna in sdnas)
    assert abs(changed / total - cfg.z) < 0.02


# --- dynamics ---------------------------------------------------------------

def test_run_dynamic_single_snapshot():
    cfg = small_cfg()
    snaps = [g for g, _ in iter_snapshots(cfg, 1)]
    assert len(snaps) == 1
    # snapshot 0 is one socialise round on the fresh population
    g0, sdnas = generate_population(cfg)
    expected, _ = socialise(g0, sdnas, cfg, derive_rng(cfg.seed, "socialise", 0))
    assert np.array_equal(snaps[0].edges, expected.edges)


def test_run_dynamic_monotone_growth():
    cfg = small_cfg(n=14, t=0.1, z=0.4)
    snaps = [g for g, _ in iter_snapshots(cfg, 4)]
    assert len(snaps) == 4
    for earlier, later in zip(snaps, snaps[1:]):
        assert np.all(later.adjacency[earlier.edges[:, 0], earlier.edges[:, 1]] == 1)
        assert np.array_equal(earlier.features, later.features)


def test_run_dynamic_grows_even_without_mutation():
    cfg = small_cfg(n=14, t=0.1, z=0.0)
    snaps = [g for g, _ in iter_snapshots(cfg, 2)]
    assert len(snaps[1].edges) > len(snaps[0].edges)


def test_run_dynamic_full_scale_shape():
    # the headline dataset shape: 3 snapshots of one 1000-node network,
    # 50 features, 4 equal-size label groups
    cfg = SimConfig(n=1000, f=50, y=4, q=3, p=0.3, t=0.005, r=0.25,
                    c=(1.0, 0.5), z=0.3, seed=1)
    snaps = [g for g, _ in iter_snapshots(cfg, 3)]
    assert len(snaps) == 3
    for g in snaps:
        assert g.features.shape == (1000, 50)
        assert np.all(np.bincount(g.sdna_of) == 250)
    assert len(snaps[0].edges) < len(snaps[1].edges) < len(snaps[2].edges)


def test_simulate_snapshots_sdna_drift():
    cfg = small_cfg(n=8, z=1.0)
    snaps = list(iter_snapshots(cfg, 2))
    (g0, s0), (g1, s1) = snaps
    assert any(not np.array_equal(a.w, b.w) for a, b in zip(s0, s1))


# --- event stream -----------------------------------------------------------

def test_event_stream_basic():
    cfg = small_cfg(n=4, p=0.5)
    stream = emit_event_stream(cfg, 3)
    assert [ts for ts, _ in stream] == [0, 1, 2]
    edges = {e for _, e in stream}
    assert len(edges) == 3


def test_event_stream_deterministic():
    cfg = small_cfg(n=6, p=0.5, z=0.0)
    assert emit_event_stream(cfg, 4) == emit_event_stream(cfg, 4)


def test_event_stream_saturates():
    cfg = small_cfg(n=3, p=1.0)
    stream = emit_event_stream(cfg, 5)
    assert len(stream) == 3  # triangle holds only 3 edges


# --- ER reduction -----------------------------------------------------------

def test_full_cutoff_connects_all_scored():
    cfg = small_cfg(n=20, p=0.4, t=1.0)
    g, sdnas = generate_population(cfg)
    grown, audit = socialise(g, sdnas, cfg)
    assert len(grown.edges) == len(audit)


def test_er_reduction_binomial():
    # with t=1 every scored pair connects, so edge count ~ Binomial(C(n,2), p)
    n, p, seeds = 30, 0.25, 60
    counts = []
    for seed in range(seeds):
        cfg = small_cfg(n=n, f=2, p=p, t=1.0, seed=seed)
        g, sdnas = generate_population(cfg)
        grown, _ = socialise(g, sdnas, cfg)
        counts.append(len(grown.edges))
    trials = n * (n - 1) // 2
    expected = trials * p
    tol = 3 * np.sqrt(trials * p * (1 - p) / seeds)
    assert abs(np.mean(counts) - expected) < tol
