import itertools
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socsim.graph import SocialGraph, shortest_path_matrix
from socsim.similarity import (
    auto_binarize,
    AUTO,
    SimilaritySpec,
    augment,
    build_representative,
    gg_matrix,
    katz_matrix,
    l2_row_normalize,
    load_representative_matrix,
    raw_gravity_scores,
    rpr_matrix,
    save_representative,
    save_representative_csv,
)


def make_graph(n, edges):
    return SocialGraph(n=n, edges=frozenset(edges), features=np.zeros((n, 1)),
                       sdna_of=np.zeros(n, dtype=np.int64))


def random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    return make_graph(n, [p for p in pairs if rng.random() < density])


PATH3 = make_graph(3, [(0, 1), (1, 2)])
TRIANGLE = make_graph(3, [(0, 1), (1, 2), (0, 2)])


# --- katz -------------------------------------------------------------------

def test_katz_single_power_is_scaled_adjacency():
    k = katz_matrix(PATH3, beta=0.3, max_power=1)
    assert np.array_equal(k, 0.3 * PATH3.adjacency)


def test_katz_two_hop_entry():
    k = katz_matrix(PATH3, beta=0.5, max_power=2)
    assert k[0, 2] == pytest.approx(0.25)


def test_katz_empty_graph_zero():
    g = make_graph(4, [])
    assert np.all(katz_matrix(g, beta=0.5, max_power=3) == 0)


def test_katz_matches_explicit_powers():
    for seed in range(20):
        g = random_graph(6, 0.5, seed)
        a = g.adjacency
        expected = np.zeros_like(a)
        for x in range(1, 6):
            expected = expected + 0.005 ** x * np.linalg.matrix_power(a, x)
        assert np.array_equal(katz_matrix(g, beta=0.005, max_power=5), expected)


def test_katz_matches_left_to_right_powers_on_hub_snapshot(hub_snapshot):
    # walk counts reach ~4e7 at the fifth power here, far below 2^53, so the
    # symmetric even-power products must give the very same bytes
    a = hub_snapshot.adjacency
    for max_power in (1, 2, 5):
        expected = np.zeros_like(a)
        power = np.eye(hub_snapshot.n)
        for x in range(1, max_power + 1):
            power = power @ a
            expected = expected + 0.005 ** x * power
        got = katz_matrix(hub_snapshot, beta=0.005, max_power=max_power)
        assert got.tobytes() == expected.tobytes()


# --- rooted pagerank ----------------------------------------------------------

def test_rpr_isolated_node_keeps_restart_mass():
    g = make_graph(1, [])
    assert np.array_equal(rpr_matrix(g, 0.85), [[1.0]])


def test_rpr_rows_stochastic():
    g = make_graph(2, [(0, 1)])
    r = rpr_matrix(g, 0.85)
    assert np.allclose(r.sum(axis=1), 1.0, atol=1e-10)
    for seed in range(5):
        g = random_graph(7, 0.4, seed)
        assert np.allclose(rpr_matrix(g, 0.85).sum(axis=1), 1.0, atol=1e-10)


def rpr_power_iteration(g, alpha, steps=10_000):
    n = g.n
    a = g.adjacency
    deg = a.sum(axis=1)
    trans = np.where(deg[:, None] > 0, a / np.maximum(deg, 1.0)[:, None], 0.0)
    trans[deg == 0] = np.eye(n)[deg == 0]
    r = np.eye(n)
    for _ in range(steps):
        r = alpha * np.eye(n) + (1 - alpha) * r @ trans
    return r


def test_rpr_matches_power_iteration():
    g = TRIANGLE
    exact = rpr_matrix(g, 0.85)
    iterated = rpr_power_iteration(g, 0.85, steps=200)
    assert np.all(np.abs(exact - iterated) < 1e-8)


# --- graph gravity ------------------------------------------------------------

def test_gravity_raw_score_path_graph():
    raw = raw_gravity_scores(PATH3)
    assert raw[0, 2] == pytest.approx(1 * 1 / 2 ** 2)


def test_gravity_complete_graph_is_adjacency():
    k4 = make_graph(4, list(itertools.combinations(range(4), 2)))
    assert np.array_equal(gg_matrix(k4), k4.adjacency)


def test_gravity_disconnected_components_zero():
    g = make_graph(4, [(0, 1), (2, 3)])
    m = gg_matrix(g)
    assert m[0, 2] == m[0, 3] == m[1, 2] == m[1, 3] == 0.0


def test_gravity_edges_exactly_one_and_range():
    for seed in range(10):
        g = random_graph(8, 0.3, seed)
        m = gg_matrix(g)
        a = g.adjacency
        assert np.all(m[a > 0] == 1.0)
        assert np.all((m >= 0) & (m <= 1))
        assert np.all(np.diag(m) == 0)


def test_gravity_matches_per_pair_formula():
    for seed in range(20):
        g = random_graph(6, 0.4, seed)
        raw = raw_gravity_scores(g)
        sp = shortest_path_matrix(g)
        a = g.adjacency
        for i in range(g.n):
            for j in range(g.n):
                if i != j and a[i, j] == 0 and np.isfinite(sp[i, j]):
                    expected = (g.degrees[i] * g.degrees[j]) / sp[i, j] ** 2
                    assert raw[i, j] == expected
                else:
                    assert raw[i, j] == 0.0


# --- augmentation --------------------------------------------------------------

def test_l2_row_normalization():
    # row norms 5, 0 and 0.005: a sub-unit row is scaled up to unit norm
    m = np.array([[3.0, 4.0], [0.0, 0.0], [0.003, 0.004]])
    out = l2_row_normalize(m)
    assert np.allclose(out[0], [0.6, 0.8])
    assert np.array_equal(out[1], [0.0, 0.0])
    assert np.allclose(out[2], [0.6, 0.8])


def test_augment_open_thresholds_only_normalizes():
    rng = np.random.default_rng(0)
    m = rng.random((5, 5)) * (rng.random((5, 5)) > 0.4)
    m = (m + m.T) / 2
    spec = SimilaritySpec(kind="katz", threshold_lo=0.0, threshold_hi=1.0)
    normalized = l2_row_normalize(m)
    expected = (normalized + normalized.T) / 2
    assert np.allclose(augment(m, spec), expected)


def test_augment_identity_on_normalized_symmetric():
    # fixed point: symmetric, rows unit (or zero) norm, thresholds open
    m = np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    spec = SimilaritySpec(kind="katz", threshold_lo=0.0, threshold_hi=1.0)
    once = augment(m, spec)
    assert np.array_equal(once, m)
    assert np.array_equal(augment(once, spec), once)


def test_auto_binarize_mean_rule_hand_case():
    # non-zero entries {0.2, 0.4, 0.6}: mean 0.4, only the largest survives
    m = np.array([[0.0, 0.2], [0.4, 0.6]])
    assert np.array_equal(auto_binarize(m), [[0.0, 0.0], [0.0, 1.0]])


def test_augment_auto_end_to_end_binary_symmetric():
    rng = np.random.default_rng(7)
    m = rng.random((6, 6)) * (rng.random((6, 6)) > 0.4)
    spec = SimilaritySpec(kind="katz", threshold_lo=AUTO, threshold_hi=AUTO)
    out = augment(m, spec)
    assert np.array_equal(out, out.T)
    assert set(np.unique(out)) <= {0.0, 1.0}


def test_augment_thresholds_clamp():
    m = np.array([[0.0, 0.3, 0.95], [0.3, 0.0, 0.2], [0.95, 0.2, 0.0]])
    m = l2_row_normalize(m)
    sym = (m + m.T) / 2
    spec = SimilaritySpec(kind="katz", threshold_lo=0.25, threshold_hi=0.9)
    out = augment(m, spec)
    assert np.all(out[(sym <= 0.25) & (out != 1.0)] == 0)
    assert np.all((out == 0) | (out == 1) | ((out > 0.25) & (out <= 0.9)))


def test_augment_rejects_negative():
    spec = SimilaritySpec(kind="katz")
    with pytest.raises(ValueError):
        augment(np.array([[-0.1]]), spec)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_augment_open_threshold_noop_property(seed):
    rng = np.random.default_rng(seed)
    m = rng.random((4, 4)) * (rng.random((4, 4)) > 0.3)
    open_spec = SimilaritySpec(kind="katz", threshold_lo=0.0, threshold_hi=1.0)
    normalized = l2_row_normalize(m)
    assert np.allclose(augment(m, open_spec), (normalized + normalized.T) / 2)


# --- representatives -------------------------------------------------------------

def test_representative_adjacency_k2():
    g = make_graph(2, [(0, 1)])
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    assert np.allclose(rep.matrix, [[0.5, 0.5], [0.5, 0.5]])


def test_representative_edgeless_identity():
    g = make_graph(3, [])
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    assert np.array_equal(rep.matrix, np.eye(3))


def test_representative_symmetric_bounded_spectrum():
    for kind in ("adjacency", "katz", "rpr", "gg"):
        for seed in range(4):
            g = random_graph(7, 0.35, seed)
            rep = build_representative(g, SimilaritySpec(kind=kind))
            m = rep.matrix
            assert np.all(np.abs(m - m.T) < 1e-12)
            assert np.all(np.isfinite(m)) and np.all(m >= 0)
            radius = np.max(np.abs(np.linalg.eigvalsh((m + m.T) / 2)))
            assert radius <= 1 + 1e-9


def test_representative_matches_renormalized_operator():
    g = random_graph(6, 0.4, 8)
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    a_tilde = g.adjacency + np.eye(6)
    d = np.diag(1 / np.sqrt(a_tilde.sum(axis=1)))
    assert np.allclose(rep.matrix, d @ a_tilde @ d, atol=1e-12)


@pytest.mark.parametrize("field, value, message", [
    ("katz_beta", 0.0, "katz_beta must be > 0"),
    ("katz_beta", -1.0, "katz_beta must be > 0"),
    ("katz_beta", float("nan"), "katz_beta must be > 0"),
    ("threshold_lo", float("nan"), "thresholds must be numbers"),
    ("threshold_hi", float("nan"), "thresholds must be numbers"),
])
def test_spec_rejects_bad_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        SimilaritySpec(kind="katz", **{field: value})


def test_spec_validation():
    with pytest.raises(ValueError):
        SimilaritySpec(kind="nope")
    with pytest.raises(ValueError):
        SimilaritySpec(kind="rpr", rpr_alpha=1.5)
    with pytest.raises(ValueError):
        SimilaritySpec(kind="katz", threshold_lo=0.8, threshold_hi=0.2)
    with pytest.raises(ValueError):
        SimilaritySpec(kind="katz", threshold_lo=AUTO, threshold_hi=0.5)
    with pytest.raises(ValueError):
        SimilaritySpec(kind="katz", katz_max_power=0)


def test_representative_file_round_trip(tmp_path):
    g = random_graph(5, 0.4, 1)
    rep = build_representative(g, SimilaritySpec(kind="katz"))
    out = tmp_path / "G.bin"
    save_representative(rep, out)
    assert np.array_equal(load_representative_matrix(out), rep.matrix)
    save_representative_csv(rep, tmp_path / "G.csv")
    assert np.allclose(np.loadtxt(tmp_path / "G.csv", delimiter=","), rep.matrix)


@pytest.mark.parametrize("spec", [
    SimilaritySpec(kind="adjacency"),
    SimilaritySpec(kind="katz", threshold_lo=0.0, threshold_hi=0.5),
    SimilaritySpec(kind="rpr", threshold_lo=0.1, threshold_hi=1.0),
    SimilaritySpec(kind="gg", threshold_lo=AUTO, threshold_hi=AUTO),
])
def test_every_built_representative_loads_back(tmp_path, spec):
    # a built representative is symmetric only to about an ulp
    rep = build_representative(random_graph(40, 0.15, 3), spec)
    save_representative(rep, tmp_path / "G.bin")
    assert np.array_equal(load_representative_matrix(tmp_path / "G.bin"), rep.matrix)


@pytest.mark.parametrize("entry, message", [
    (np.nan, "non-finite or negative entries"),
    (np.inf, "non-finite or negative entries"),
    (-0.25, "non-finite or negative entries"),
    (0.75, "not symmetric"),
])
def test_representative_file_bad_matrix_rejected(tmp_path, entry, message):
    rep = build_representative(random_graph(5, 0.4, 1), SimilaritySpec(kind="katz"))
    matrix = rep.matrix.copy()
    matrix[0, 1] = entry
    save_representative(replace(rep, matrix=matrix), tmp_path / "G.bin")
    with pytest.raises(ValueError, match=message):
        load_representative_matrix(tmp_path / "G.bin")


def test_representative_file_bad_magic(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_representative_matrix(bad)


def test_representative_file_truncated(tmp_path):
    g = random_graph(10, 0.4, 1)
    out = tmp_path / "G.bin"
    save_representative(build_representative(g, SimilaritySpec()), out)
    data = out.read_bytes()
    assert len(data) == 808
    out.write_bytes(data[:-9])
    with pytest.raises(ValueError, match="for n=10 must be 808 bytes, got 799"):
        load_representative_matrix(out)
    out.write_bytes(data + b"\x00")
    with pytest.raises(ValueError, match="must be 808 bytes, got 809"):
        load_representative_matrix(out)
    out.write_bytes(data[:6])
    with pytest.raises(ValueError, match="must be 8 bytes, got 6"):
        load_representative_matrix(out)


@given(st.integers(0, 6))
@settings(max_examples=7, deadline=None)
def test_representative_file_cut_at_every_length_rejected(n):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "G.bin"
        save_representative(build_representative(random_graph(n, 0.5, n), SimilaritySpec()), out)
        data = out.read_bytes()
        assert len(data) == 8 + 8 * n * n
        for cut in range(len(data)):
            out.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                load_representative_matrix(out)
