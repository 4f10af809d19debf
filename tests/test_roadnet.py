"""Adjacency construction, hop distances, and reachability-mask properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tglrn import roadnet
from tglrn.errors import DataError


def floyd_warshall(a_sp):
    """Independent all-pairs shortest hop oracle (self-loops ignored)."""
    n = a_sp.shape[0]
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i in range(n):
        for j in range(n):
            if i != j and a_sp[i, j]:
                d[i, j] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def random_digraph(rng, n):
    density = rng.uniform(0.05, 0.5)
    edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.uniform() < density]
    return edges


class TestBuildAsp:
    def test_two_edge_chain(self):
        net = roadnet.build_asp([(0, 1), (1, 2)], 3)
        np.testing.assert_array_equal(net.a_sp, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])

    def test_no_edges_gives_identity(self):
        net = roadnet.build_asp([], 2)
        np.testing.assert_array_equal(net.a_sp, np.eye(2))

    def test_pems08_scale_nonzero_count(self):
        # 170 sensors, 295 distinct directed connections
        rng = np.random.default_rng(8)
        edges = set()
        while len(edges) < 295:
            i, j = rng.integers(0, 170, size=2)
            if i != j:
                edges.add((int(i), int(j)))
        net = roadnet.build_asp(sorted(edges), 170)
        assert np.count_nonzero(net.a_sp) == 170 + 295

    def test_out_of_range_edge(self):
        with pytest.raises(DataError):
            roadnet.build_asp([(0, 5)], 3)

    def test_duplicate_edges_idempotent(self):
        edges = [(0, 1), (1, 2), (0, 1)]
        a = roadnet.build_asp(edges, 3)
        b = roadnet.build_asp(edges + edges, 3)
        np.testing.assert_array_equal(a.a_sp, b.a_sp)
        assert a.edges == b.edges


class TestHopDistances:
    def test_directed_chain(self):
        net = roadnet.build_asp([(0, 1), (1, 2), (2, 3)], 4)
        d = roadnet.hop_distances(net)
        assert d[0, 3] == 3
        assert d[3, 0] == np.inf

    def test_symmetrized_chain(self):
        net = roadnet.build_asp([(0, 1), (1, 2), (2, 3)], 4)
        d = roadnet.hop_distances(net, symmetrize=True)
        assert d[3, 0] == 3

    def test_self_loop_edge_does_not_change_distances(self):
        plain = roadnet.build_asp([(0, 1)], 2)
        looped = roadnet.build_asp([(0, 1), (0, 0)], 2)
        np.testing.assert_array_equal(
            roadnet.hop_distances(plain), roadnet.hop_distances(looped)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_floyd_warshall(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        net = roadnet.build_asp(random_digraph(rng, n), n)
        np.testing.assert_array_equal(roadnet.hop_distances(net), floyd_warshall(net.a_sp))


class TestStructureInfo:
    def test_chain_two_hops(self):
        net = roadnet.build_asp([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        mask = roadnet.structure_info(roadnet.hop_distances(net), 2)
        np.testing.assert_array_equal(mask[0], [1, 1, 1, 0, 0])

    def test_saturation_at_diameter(self):
        rng = np.random.default_rng(17)
        n = 8
        net = roadnet.build_asp(random_digraph(rng, n), n)
        dist = roadnet.hop_distances(net)
        reachable = np.isfinite(dist).astype(np.float64)
        mask = roadnet.structure_info(dist, n)  # >= diameter over reachable pairs
        np.testing.assert_array_equal(mask, reachable)

    def test_k1_equals_asp_support(self):
        rng = np.random.default_rng(4)
        n = 7
        net = roadnet.build_asp(random_digraph(rng, n), n)
        mask = roadnet.structure_info(roadnet.hop_distances(net), 1)
        np.testing.assert_array_equal(mask, net.a_sp)

    def test_k_below_one_rejected(self):
        net = roadnet.build_asp([(0, 1)], 2)
        with pytest.raises(DataError):
            roadnet.structure_info(roadnet.hop_distances(net), 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_brute_force_path_enumeration(self, seed):
        # walk enumeration over A^sp without self-loops, up to k steps
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 13))
        net = roadnet.build_asp(random_digraph(rng, n), n)
        adj = net.a_sp.copy()
        np.fill_diagonal(adj, 0.0)
        dist = roadnet.hop_distances(net)
        for k in (1, 2, 3):
            reach = np.eye(n)
            power = np.eye(n)
            for _ in range(k):
                power = (power @ adj > 0).astype(np.float64)
                reach = np.maximum(reach, power)
            np.testing.assert_array_equal(roadnet.structure_info(dist, k), (reach > 0))


class TestStructureGroup:
    def test_singleton(self):
        net = roadnet.build_asp([(0, 1)], 2)
        masks = roadnet.structure_group(roadnet.hop_distances(net), 1)
        assert masks.shape == (1, 2, 2)

    def test_chain_full_reach_at_l5(self):
        net = roadnet.build_asp([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        masks = roadnet.structure_group(roadnet.hop_distances(net), 5)
        np.testing.assert_array_equal(masks[-1][0], np.ones(5))

    @pytest.mark.parametrize("levels", [5, 7, 10, 15])
    def test_tuning_set_levels(self, levels):
        net = roadnet.build_asp([(i, i + 1) for i in range(19)], 20)
        masks = roadnet.structure_group(roadnet.hop_distances(net), levels)
        assert masks.shape == (levels, 20, 20) and masks.dtype == np.float64

    @given(st.integers(0, 1000), st.integers(1, 6))
    def test_nesting_and_diagonal(self, seed, levels):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        net = roadnet.build_asp(random_digraph(rng, n), n)
        dist = roadnet.hop_distances(net)
        masks = roadnet.structure_group(dist, levels)
        for k in range(levels - 1):
            assert np.all(masks[k] <= masks[k + 1])
        for k, mask in enumerate(masks, start=1):
            np.testing.assert_array_equal(np.diag(mask), np.ones(n))
            np.testing.assert_array_equal(mask, roadnet.structure_info(dist, k))


class TestEdgeCsv:
    def test_loads_with_extra_columns(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("from,to,cost\n0,1,3.5\n1,2,1.0\n")
        assert roadnet.load_edges(path) == [(0, 1), (1, 2)]

    def test_headerless(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("0,1\n1,2\n")
        assert roadnet.load_edges(path) == [(0, 1), (1, 2)]

    def test_bad_id(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("from,to\nx,1\n")
        with pytest.raises(DataError, match="line 2"):
            roadnet.load_edges(path)

    @pytest.mark.parametrize("cell", ["inf", "1e400", "nan", "1.5", "-inf"])
    def test_id_that_is_not_a_finite_whole_number_names_its_line(self, tmp_path, cell):
        path = tmp_path / "edges.csv"
        path.write_text(f"from,to\n0,1\n1,{cell}\n")
        with pytest.raises(DataError, match=f"line 3: node id '{cell}'"):
            roadnet.load_edges(path)

    def test_whole_float_id_is_read(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("3.0,1\n")
        assert roadnet.load_edges(path) == [(3, 1)]

    def test_bom_before_the_header(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("\ufefffrom,to\n0,1\n", encoding="utf-8")
        assert roadnet.load_edges(path) == [(0, 1)]

    def test_undecodable_file_is_data_error(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_bytes(b"from,to\n0,1\n\xff,2\n")
        with pytest.raises(DataError, match="cannot open"):
            roadnet.load_edges(path)

    def test_missing_file(self):
        with pytest.raises(DataError):
            roadnet.load_edges("/nonexistent/edges.csv")
