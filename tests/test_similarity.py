import itertools
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_representatives as reference
from socsim.graph import SocialGraph, dense_adjacency, shortest_path_matrix
from socsim.harness import default_model_grid, desk_sim_config, parse_cell
from socsim.sdna import iter_snapshots
from socsim.similarity import (
    AUTO,
    SimilaritySpec,
    _binarize_at_mean,
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
    assert np.array_equal(k, 0.3 * dense_adjacency(PATH3))


def test_katz_two_hop_entry():
    k = katz_matrix(PATH3, beta=0.5, max_power=2)
    assert k[0, 2] == pytest.approx(0.25)


def test_katz_empty_graph_zero():
    g = make_graph(4, [])
    assert np.all(katz_matrix(g, beta=0.5, max_power=3) == 0)


def test_katz_matches_explicit_powers():
    for seed in range(20):
        g = random_graph(6, 0.5, seed)
        a = dense_adjacency(g)
        expected = np.zeros_like(a)
        for x in range(1, 6):
            expected = expected + 0.005 ** x * np.linalg.matrix_power(a, x)
        assert np.array_equal(katz_matrix(g, beta=0.005, max_power=5), expected)


def test_katz_matches_left_to_right_powers_on_hub_snapshot(hub_snapshot):
    # walk counts reach ~4e7 at the fifth power here, far below 2^53, so the
    # symmetric even-power products must give the very same bytes
    a = dense_adjacency(hub_snapshot)
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
    a = dense_adjacency(g)
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
    assert np.array_equal(gg_matrix(k4), dense_adjacency(k4))


def test_gravity_disconnected_components_zero():
    g = make_graph(4, [(0, 1), (2, 3)])
    m = gg_matrix(g)
    assert m[0, 2] == m[0, 3] == m[1, 2] == m[1, 3] == 0.0


def test_gravity_edges_exactly_one_and_range():
    for seed in range(10):
        g = random_graph(8, 0.3, seed)
        m = gg_matrix(g)
        a = dense_adjacency(g)
        assert np.all(m[a > 0] == 1.0)
        assert np.all((m >= 0) & (m <= 1))
        assert np.all(np.diag(m) == 0)


def test_gravity_matches_per_pair_formula():
    for seed in range(20):
        g = random_graph(6, 0.4, seed)
        raw = raw_gravity_scores(g)
        sp = shortest_path_matrix(g)
        a = dense_adjacency(g)
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
    assert np.array_equal(reference.auto_binarize(m), [[0.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("seed", range(4))
def test_binarize_at_mean_equals_the_reference_bytes(seed):
    rng = np.random.default_rng(seed)
    m = rng.random((9, 9)) * (rng.random((9, 9)) > 0.5)
    want = reference.auto_binarize(m)
    _binarize_at_mean(m, np.empty(m.shape, dtype=bool))
    assert m.tobytes() == want.tobytes()


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
    a_tilde = dense_adjacency(g) + np.eye(6)
    d = np.diag(1 / np.sqrt(a_tilde.sum(axis=1)))
    assert np.allclose(rep.matrix, d @ a_tilde @ d, atol=1e-12)


# --- byte oracle: tests/reference_representatives.py ----------------------------

GRID_SPECS = tuple(dict.fromkeys(parse_cell(cell)[1] for cell in default_model_grid()))

ORACLE_GRAPHS = {
    "edgeless": make_graph(5, []),
    "isolated": make_graph(7, [(0, 1), (1, 2), (4, 5)]),
    "complete": make_graph(6, itertools.combinations(range(6), 2)),
    "single": make_graph(1, []),
    # every scorable pair is two leaves of the star: one distinct gravity score
    "one_gravity_score": make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
}


def assert_builds_match_reference(g, specs):
    adjacency, degrees = dense_adjacency(g).tobytes(), g.degrees.tobytes()
    for spec in specs:
        got = build_representative(g, spec).matrix
        want = reference.build_matrix(g, spec)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), spec
    assert dense_adjacency(g).tobytes() == adjacency and g.degrees.tobytes() == degrees


def test_grid_has_thirteen_distinct_specs():
    assert len(GRID_SPECS) == 13


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_every_grid_build_equals_the_reference_bytes(name):
    assert_builds_match_reference(ORACLE_GRAPHS[name], GRID_SPECS)


def test_every_grid_build_on_a_desk_snapshot_equals_the_reference_bytes():
    *_, (g, _) = iter_snapshots(desk_sim_config(5), 3)
    assert_builds_match_reference(g, GRID_SPECS)


def test_every_grid_build_on_hub_snapshot_equals_the_reference_bytes(hub_snapshot):
    assert_builds_match_reference(hub_snapshot, GRID_SPECS)


def test_one_distinct_gravity_score_maps_to_one():
    g = ORACLE_GRAPHS["one_gravity_score"]
    assert np.array_equal(gg_matrix(g), np.ones((5, 5)) - np.eye(5))


@pytest.mark.parametrize("spec", [
    SimilaritySpec(kind="katz", katz_beta=0.3, katz_max_power=power) for power in range(1, 8)
] + [
    SimilaritySpec(kind=kind, threshold_lo=lo, threshold_hi=hi)
    for kind in ("katz", "rpr", "gg") for lo, hi in ((-0.5, 1.0), (0.3, 0.3), (-1.0, -0.5))
] + [SimilaritySpec(kind="rpr", rpr_alpha=0.1)])
def test_off_grid_builds_equal_the_reference_bytes(spec):
    for seed in range(4):
        assert_builds_match_reference(random_graph(12, 0.25, seed), [spec])


def test_negative_zero_below_a_negative_threshold_becomes_positive():
    # this graph's rooted-PageRank matrix holds -0.0 at both (i, j) and
    # (j, i); it passes augment below a negative threshold, and the
    # reference's "+ np.eye(n)" turns it into +0.0
    g = make_graph(14, [(0, 11), (2, 3), (2, 4), (4, 10), (6, 8), (8, 11), (8, 13)])
    spec = SimilaritySpec(kind="rpr", rpr_alpha=0.15, threshold_lo=-0.5, threshold_hi=1.0)
    a_hat = augment(rpr_matrix(g, 0.15), spec)
    assert (np.signbit(a_hat) & (a_hat == 0)).any()
    assert_builds_match_reference(g, [spec])


@pytest.mark.parametrize("beta, finite", [(1e154, True), (1.5e154, False)])
def test_katz_row_norm_check_past_its_bound(beta, finite):
    # n * beta^2 is past half of float64's max either way, so the check
    # sums the squared rows: 1e308 is finite, 2.25e308 is not
    g = make_graph(2, [(0, 1)])
    spec = SimilaritySpec(kind="katz", katz_beta=beta, katz_max_power=1)
    if finite:
        assert_builds_match_reference(g, [spec])
    else:
        with pytest.raises(ValueError, match=re.escape(f"katz_beta={beta!r}")):
            build_representative(g, spec)


def test_public_builders_leave_their_inputs_unchanged():
    g = random_graph(9, 0.4, 2)
    adjacency = dense_adjacency(g).tobytes()
    katz_matrix(g, 0.1, 5)
    rpr_matrix(g, 0.85)
    gg_matrix(g)
    raw_gravity_scores(g)
    assert dense_adjacency(g).tobytes() == adjacency
    matrix = katz_matrix(g, 0.1, 5)
    before = matrix.copy()
    for spec in (SimilaritySpec(kind="katz"), SimilaritySpec(kind="katz", threshold_lo=0.2,
                                                             threshold_hi=0.4),
                 SimilaritySpec(kind="katz", threshold_lo=AUTO, threshold_hi=AUTO)):
        augment(matrix, spec)
        l2_row_normalize(matrix)
        assert matrix.tobytes() == before.tobytes()


@pytest.mark.parametrize("field, value, message", [
    ("katz_beta", 0.0, "katz_beta must be > 0"),
    ("katz_beta", -1.0, "katz_beta must be > 0"),
    ("katz_beta", float("nan"), "katz_beta must be > 0"),
    ("katz_beta", float("inf"), "katz_beta must be > 0 and finite, got inf"),
    ("threshold_lo", float("nan"), "thresholds must be numbers"),
    ("threshold_hi", float("nan"), "thresholds must be numbers"),
])
def test_spec_rejects_bad_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        SimilaritySpec(kind="katz", **{field: value})


@pytest.mark.parametrize("beta", [1e60, 1e62])
def test_katz_build_whose_sum_or_row_norms_overflow_rejected(beta):
    # at 1e62, beta ** 5 overflows; at 1e60 the sum is finite but its
    # squared row norms are not, which used to normalize every row to zero
    g = random_graph(8, 0.5, 3)
    message = f"katz_beta={beta!r} with katz_max_power=5 overflows the Katz sum or its row norms"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_representative(g, SimilaritySpec(kind="katz", katz_beta=beta))
    rep = build_representative(g, SimilaritySpec(kind="katz", katz_beta=1e10))
    assert np.count_nonzero(rep.matrix - np.diag(np.diag(rep.matrix))) > 0


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
