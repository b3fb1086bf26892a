import itertools
import pickle
import re

import numpy as np
import pytest

from reference_graph import dense_bfs, dense_walk_indicators
from socsim.graph import (
    SocialGraph,
    decode_pairs,
    dense_adjacency,
    drop_pairs,
    load_graph_dir,
    save_graph_dir,
    shortest_path_matrix,
    sorted_unique,
    unconnected_codes,
    walk_bit_rows,
)


def make_graph(n, edges, f=2):
    rng = np.random.default_rng(0)
    return SocialGraph(
        n=n, edges=edges, features=rng.random((n, f)),
        sdna_of=np.zeros(n, dtype=np.int64),
    )


TRIANGLE = [(0, 1), (1, 2), (0, 2)]
PATH3 = [(0, 1), (1, 2)]


def unpacked_walks(g, max_length):
    """The (n, n) boolean matrices of walk_bit_rows, unpacked here."""
    return [np.unpackbits(rows, axis=1, count=g.n).view(bool)
            for rows in walk_bit_rows(g, max_length)]


def open_pairs(g):
    return decode_pairs(unconnected_codes(g), g.n)


def test_degree_empty_graph():
    assert make_graph(3, []).degrees.tolist() == [0, 0, 0]


def test_degree_triangle_and_path():
    assert make_graph(3, TRIANGLE).degrees.tolist() == [2, 2, 2]
    assert make_graph(4, [(0, 1), (1, 2), (2, 3)]).degrees.tolist() == [1, 2, 2, 1]


def test_no_self_loops():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="self-loop on node 2"):
        make_graph(4, np.array([[0, 1], [2, 2]]))


def test_duplicate_and_reversed_edges_collapse():
    pairs = [(2, 3), (0, 1), (1, 0), (0, 1), (3, 2)]
    g = make_graph(4, np.array(pairs))
    assert g.edges.dtype == np.int64
    assert g.edges.tolist() == [[0, 1], [2, 3]]
    assert not g.edges.flags.writeable
    with pytest.raises(ValueError):
        g.edges[0, 0] = 1
    assert np.array_equal(make_graph(4, pairs).edges, g.edges)
    assert np.array_equal(make_graph(4, frozenset(pairs)).edges, g.edges)
    assert make_graph(4, []).edges.shape == (0, 2)


@pytest.mark.parametrize("values", [
    [],
    [5, 5, 5],
    [9, 2, 7, 2, 9, 0, 7],
    [3, -1, 2**62, -2**62, 3],
    [[4, 1], [1, 0], [4, 4]],  # flattened, as np.unique does
])
def test_sorted_unique_is_byte_equal_to_np_unique(values):
    values = np.array(values, dtype=np.int64)
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pairs", [
    [],
    [(0, 1), (0, 1), (1, 0), (2, 3), (3, 2), (2, 3)],
    [(4, 3), (3, 1), (2, 0), (1, 0), (4, 0)],
])
def test_edges_are_the_np_unique_pair_codes(pairs):
    g = make_graph(5, pairs)
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    keys = np.unique(arr.min(axis=1) * 5 + arr.max(axis=1))
    want = np.column_stack([keys // 5, keys % 5])
    assert g.edges.shape == want.shape and g.edges.tobytes() == want.tobytes()


def test_degrees_are_read_only():
    g = make_graph(4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        g.degrees[3] = 1
    assert g.degrees.tolist() == [1, 2, 1, 0]


def test_with_edges_merges_into_canonical_array():
    g = make_graph(5, [(0, 1), (3, 4)])
    grown = g.with_edges(np.array([[2, 1], [1, 0], [4, 3], [0, 4]]))
    assert grown.edges.tolist() == [[0, 1], [0, 4], [1, 2], [3, 4]]
    assert not grown.edges.flags.writeable
    assert g.edges.tolist() == [[0, 1], [3, 4]]
    assert grown.degrees.tolist() == [2, 2, 1, 1, 2]
    assert grown.features is g.features


def test_walk_bits_path_graph():
    two, three = unpacked_walks(make_graph(3, PATH3), 3)
    assert two[0, 2]
    assert not three[0, 2]  # brute force: A^3[0,2] = 0


def test_walk_bits_triangle_two_walk():
    two, = unpacked_walks(make_graph(3, TRIANGLE), 2)
    assert two[0, 1]  # walk 0-2-1


def test_walk_bits_symmetric_on_small_graphs():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = [p for p in pairs if rng.random() < 0.4]
        for power in unpacked_walks(make_graph(n, chosen), 4):
            assert np.array_equal(power, power.T)


def brute_force_walks(adj, i, j, length):
    """Enumerate all walks of the exact length; oracle for the boolean powers."""
    n = adj.shape[0]
    frontier = [i]
    walks = [[i]]
    for _ in range(length):
        walks = [w + [nxt] for w in walks for nxt in range(n) if adj[w[-1], nxt]]
    return any(w[-1] == j for w in walks)


def test_walk_bits_match_walk_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        pairs = list(itertools.combinations(range(n), 2))
        g = make_graph(n, [p for p in pairs if rng.random() < 0.5])
        adj = dense_adjacency(g)
        for x, power in enumerate(unpacked_walks(g, 3), start=2):
            for i, j in itertools.product(range(n), repeat=2):
                assert power[i, j] == brute_force_walks(adj, i, j, x)


def floyd_warshall(adj):
    n = adj.shape[0]
    dist = np.where(adj > 0, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return dist


def test_shortest_paths_basics():
    sp = shortest_path_matrix(make_graph(3, PATH3))
    assert sp[0, 2] == 2
    sp = shortest_path_matrix(make_graph(2, []))
    assert np.isinf(sp[0, 1])
    k4 = make_graph(4, list(itertools.combinations(range(4), 2)))
    sp = shortest_path_matrix(k4)
    off = ~np.eye(4, dtype=bool)
    assert np.all(sp[off] == 1)


def test_shortest_paths_match_floyd_warshall():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 50))
        pairs = list(itertools.combinations(range(n), 2))
        g = make_graph(n, [p for p in pairs if rng.random() < 0.1])
        assert np.array_equal(shortest_path_matrix(g), floyd_warshall(dense_adjacency(g)))


def assert_walks_match_dense(g, max_length):
    got = unpacked_walks(g, max_length)
    want = dense_walk_indicators(dense_adjacency(g), max_length)
    assert len(got) == len(want) == max_length - 1
    for x, (a, b) in enumerate(zip(got, want), start=2):
        assert a.dtype == np.bool_ and a.shape == (g.n, g.n), x
        assert np.array_equal(a, b), x


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65, 130])
def test_walk_bits_match_dense_powers(n):
    # sizes around the byte and word boundaries of the packed rows
    rng = np.random.default_rng(n)
    pairs = list(itertools.combinations(range(n), 2))
    for density in (0.0, 0.05, 0.3):
        g = make_graph(n, [p for p in pairs if rng.random() < density])
        for q in (2, 3, 4):
            assert_walks_match_dense(g, q)


def test_walk_bits_isolated_nodes_and_no_edges():
    g = make_graph(11, [(1, 4), (4, 9), (2, 3)])  # 0, 5-8 and 10 isolated
    assert_walks_match_dense(g, 4)
    assert not unpacked_walks(g, 4)[0][[0, 5, 10]].any()
    for power in unpacked_walks(make_graph(13, []), 4):
        assert power.shape == (13, 13) and not power.any()
    assert walk_bit_rows(g, 1) == []


def test_walk_bits_and_bfs_match_dense_on_hub_snapshot(hub_snapshot):
    g = hub_snapshot
    assert g.n == 800 and g.degrees.max() > 400 and (g.degrees <= 2).any()
    assert_walks_match_dense(g, 4)
    sp = shortest_path_matrix(g)
    assert sp.tobytes() == dense_bfs(dense_adjacency(g)).tobytes()


def test_shortest_paths_match_dense_bfs_on_sparse_graphs():
    rng = np.random.default_rng(21)
    for n in (1, 9, 64, 100):
        pairs = list(itertools.combinations(range(n), 2))
        for density in (0.0, 0.02, 0.2):
            g = make_graph(n, [p for p in pairs if rng.random() < density])
            assert np.array_equal(shortest_path_matrix(g), dense_bfs(dense_adjacency(g)))


def test_open_pairs_ordering_and_counts():
    universe = open_pairs(make_graph(3, []))
    assert universe.dtype == np.int64
    assert universe.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert open_pairs(make_graph(3, TRIANGLE)).shape == (0, 2)
    g = make_graph(4, [(0, 1)])
    universe = open_pairs(g)
    assert len(universe) == 5
    assert [0, 1] not in universe.tolist()


def test_pair_universe_indexing():
    universe = open_pairs(make_graph(3, []))
    assert universe.shape == (3, 2)
    assert universe[1].tolist() == [0, 2]
    universe = open_pairs(make_graph(4, [(0, 1)]))
    assert universe[0].tolist() == [0, 2]
    assert universe[[1, 4]].tolist() == [[0, 3], [2, 3]]


def test_unconnected_codes_complement_identity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        pairs = list(itertools.combinations(range(n), 2))
        g = make_graph(n, [p for p in pairs if rng.random() < 0.3])
        assert len(unconnected_codes(g)) + len(g.edges) == n * (n - 1) // 2


def triu_open_pairs(g):
    """The open pairs the way the code used to find them: np.triu_indices
    gathered from the dense adjacency."""
    iu, ju = np.triu_indices(g.n, k=1)
    open_ = dense_adjacency(g)[iu, ju] == 0
    return np.column_stack([iu[open_], ju[open_]]).astype(np.int64)


@pytest.mark.parametrize("n, edges", [
    (1, []),
    (2, []),
    (2, [(0, 1)]),
    (5, itertools.combinations(range(5), 2)),  # complete: nothing is open
    (7, [(0, 6), (2, 3), (5, 6)]),
    (40, [(i, i + 1) for i in range(39)]),
])
def test_unconnected_codes_decode_to_the_triu_oracle(n, edges):
    g = make_graph(n, list(edges))
    codes = unconnected_codes(g)
    want = triu_open_pairs(g)
    assert codes.dtype == np.int64 and codes.shape == (len(want),)
    assert np.all(np.diff(codes) > 0)
    assert codes.tobytes() == (want[:, 0] * n + want[:, 1]).tobytes()
    assert decode_pairs(codes, n).tobytes() == want.tobytes()


def test_pair_and_walk_code_cache_nothing_on_the_graph():
    g = make_graph(9, [(0, 1), (1, 2), (4, 8)])
    unconnected_codes(g)
    walk_bit_rows(g, 3)
    shortest_path_matrix(g)
    assert set(vars(g)) <= {"n", "edges", "features", "sdna_of", "degrees"}


def test_dense_adjacency_is_a_fresh_scatter_of_the_edges():
    g = make_graph(5, [(0, 1), (1, 4), (2, 3)])
    a = dense_adjacency(g)
    assert a.dtype == np.float64 and a.flags.writeable
    want = np.zeros((5, 5))
    for i, j in [(0, 1), (1, 4), (2, 3)]:
        want[i, j] = want[j, i] = 1.0
    assert a.tobytes() == want.tobytes()
    assert np.array_equal(dense_adjacency(g, bool), want > 0)
    a[0, 0] = 7.0
    assert dense_adjacency(g)[0, 0] == 0.0


def test_drop_pairs_leaves_the_codes_still_open():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        g = make_graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.2])
        codes = unconnected_codes(g)
        added = codes[rng.random(len(codes)) < rng.random()]
        kept = drop_pairs(codes, added)
        assert kept.dtype == np.int64
        assert np.array_equal(kept, unconnected_codes(g.with_edges(decode_pairs(added, n))))
    codes = unconnected_codes(make_graph(6, [(1, 2)]))
    assert np.array_equal(drop_pairs(codes, codes[:0]), codes)
    assert drop_pairs(codes, codes).shape == (0,)


@pytest.mark.parametrize("features, edges", [
    # awkward floats: no short decimal, subnormal, the smallest subnormal, zero
    (np.array([[0.1, 1 / 3], [1e-300, 5e-324], [0.0, 0.75]]), [(0, 1), (1, 2)]),
    (np.array([[0.5], [2.0], [-0.0]]), []),
    (np.zeros((3, 0)), [(0, 2)]),
])
def test_graph_dir_files_are_the_bytes_savetxt_writes(tmp_path, features, edges):
    g = SocialGraph(n=3, edges=edges, features=features, sdna_of=np.array([2, 0, 1]))
    save_graph_dir(g, tmp_path / "snap")
    want = tmp_path / "want"
    want.mkdir()
    np.savetxt(want / "edges.tsv", g.edges, fmt="%d", delimiter="\t")
    np.savetxt(want / "features.csv", g.features, fmt="%.17g", delimiter=",")
    np.savetxt(want / "labels.csv", np.column_stack([np.arange(3), g.sdna_of]), fmt="%d",
               delimiter=",", newline="\r\n")
    for name in ("edges.tsv", "features.csv", "labels.csv"):
        assert (tmp_path / "snap" / name).read_bytes() == (want / name).read_bytes(), name
    assert (want / "labels.csv").read_bytes() == b"0,2\r\n1,0\r\n2,1\r\n"


def test_graph_dir_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    g = SocialGraph(
        n=5, edges=[(0, 1), (2, 4)], features=rng.random((5, 3)),
        sdna_of=np.array([0, 0, 1, 1, 2]),
    )
    save_graph_dir(g, tmp_path / "snap")
    back = load_graph_dir(tmp_path / "snap")
    assert back.n == g.n
    assert np.array_equal(back.edges, g.edges)
    assert np.array_equal(back.features, g.features)
    assert np.array_equal(back.sdna_of, g.sdna_of)


def test_pickled_graph_is_rebuilt_without_its_cached_views():
    g = SocialGraph(n=4, edges=[(0, 1), (1, 3)], features=np.eye(4)[:, :2],
                    sdna_of=np.array([0, 1, 0, 1]))
    degrees = g.degrees
    back = pickle.loads(pickle.dumps(g))
    assert "degrees" not in vars(back)
    assert back.n == 4
    assert np.array_equal(back.edges, g.edges) and not back.edges.flags.writeable
    assert np.array_equal(back.features, g.features)
    assert np.array_equal(back.sdna_of, g.sdna_of)
    assert np.array_equal(back.degrees, degrees)


def test_features_shape_validated():
    with pytest.raises(ValueError):
        SocialGraph(n=3, edges=[], features=np.zeros((2, 2)),
                    sdna_of=np.zeros(3, dtype=np.int64))
    for bad, message in [([(0, 5)], "out of range"), ([(-1, 2)], "out of range"),
                         (np.array([[0, 1, 2]]), "node pairs")]:
        with pytest.raises(ValueError, match=message):
            SocialGraph(n=3, edges=bad, features=np.zeros((3, 2)),
                        sdna_of=np.zeros(3, dtype=np.int64))


def test_graph_dir_file_format(tmp_path):
    g = SocialGraph(n=3, edges=[(2, 0), (0, 1)], features=np.zeros((3, 1)),
                    sdna_of=np.array([4, 0, 7]))
    save_graph_dir(g, tmp_path / "snap")
    assert (tmp_path / "snap" / "edges.tsv").read_text() == "0\t1\n0\t2\n"
    assert (tmp_path / "snap" / "labels.csv").read_bytes() == b"0,4\r\n1,0\r\n2,7\r\n"
    save_graph_dir(make_graph(3, []), tmp_path / "empty")
    assert (tmp_path / "empty" / "edges.tsv").read_text() == ""
    assert load_graph_dir(tmp_path / "empty").edges.shape == (0, 2)


@pytest.mark.parametrize("labels", [
    "0,1\n2,1\n",             # node 1 missing
    "0,1\n1,1\n1,0\n",        # node 1 twice, node 2 missing
    "0,1\n1,1\n2,1\n3,0\n",   # node 3 does not exist
    "",                       # no labels at all
])
def test_load_graph_dir_rejects_incomplete_labels(tmp_path, labels):
    save_graph_dir(make_graph(3, [(0, 1)]), tmp_path / "snap")
    (tmp_path / "snap" / "labels.csv").write_text(labels)
    with pytest.raises(ValueError, match="labels.csv: must name every node 0..2 exactly once"):
        load_graph_dir(tmp_path / "snap")


@pytest.mark.parametrize("edges", ["0\t1\n1\tx\n", "0\t1\n2\n", "0\t1\t2\n", "0 1\n"])
def test_load_graph_dir_rejects_malformed_edge_rows(tmp_path, edges):
    save_graph_dir(make_graph(3, []), tmp_path / "snap")
    (tmp_path / "snap" / "edges.tsv").write_text(edges)
    with pytest.raises(ValueError, match="edges.tsv: every row must be two tab-separated integers"):
        load_graph_dir(tmp_path / "snap")


@pytest.mark.parametrize("edges, message", [
    ("0\t1\n2\t2\n", "edges.tsv: self-loop on node 2"),
    ("0\t1\n1\t9000\n", "edges.tsv: edge (1,9000) out of range for n=3"),
    ("-1\t1\n", "edges.tsv: edge (-1,1) out of range for n=3"),
])
def test_load_graph_dir_names_edges_tsv_in_edge_errors(tmp_path, edges, message):
    save_graph_dir(make_graph(3, []), tmp_path / "snap")
    (tmp_path / "snap" / "edges.tsv").write_text(edges)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_graph_dir(tmp_path / "snap")


@pytest.mark.parametrize("name, content, message", [
    ("features.csv", "", "features.csv: no feature rows"),
    ("features.csv", " \n", "features.csv: no feature rows"),
    ("labels.csv", "0,1\n1,-1\n2,0\n", "labels.csv: sdna ids must be >= 0"),
])
def test_load_graph_dir_rejects_empty_features_and_negative_labels(tmp_path, name, content,
                                                                   message):
    save_graph_dir(make_graph(3, [(0, 1)]), tmp_path / "snap")
    (tmp_path / "snap" / name).write_text(content)
    with pytest.raises(ValueError, match=message):
        load_graph_dir(tmp_path / "snap")
