import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dowg import _hooks
from dowg.mesh import SIDE_NORMALS, build_mesh, classify_edges


class TestBuildMesh:
    def test_coarse_grid(self):
        m = build_mesh(1)
        assert m.n_cells == 4
        assert m.n_edges == 12
        assert m.h == 0.5

    def test_level3(self):
        m = build_mesh(3)
        assert m.n_cells == 64
        assert m.h == 1 / 8

    def test_edge_counts(self):
        m = build_mesh(2)
        n = m.n
        assert np.count_nonzero(m.boundary_side < 0) == 2 * n * (n - 1)
        assert len(m.boundary_edges) == 4 * n

    def test_refinement(self):
        for lv in (1, 2, 3):
            a, b = build_mesh(lv), build_mesh(lv + 1)
            assert b.n_cells == 4 * a.n_cells
            assert b.h == a.h / 2

    def test_area_sum(self):
        m = build_mesh(3)
        corners = m.cell_corners
        dx = corners[:, 1, 0] - corners[:, 0, 0]
        dy = corners[:, 3, 1] - corners[:, 0, 1]
        assert_allclose(np.sum(dx * dy), 1.0, atol=1e-14)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            build_mesh(0)
        with pytest.raises(ValueError):
            build_mesh(11)

    def test_incidence(self):
        m = build_mesh(2)
        # interior edges: two incident cells, opposite sides, consistent
        # with the cell_edges lookup table
        for e in np.nonzero(m.boundary_side < 0)[0]:
            (c1, c2), (s1, s2) = m.edge_cells[e], m.edge_sides[e]
            assert c1 >= 0 and c2 >= 0
            assert {s1, s2} in ({0, 1}, {2, 3})
            assert m.cell_edges[c1, s1] == e
            assert m.cell_edges[c2, s2] == e
            # stored normal is outward for the first cell, inward for the second
            assert_allclose(m.edge_normals[e], SIDE_NORMALS[s1])
            assert_allclose(-m.edge_normals[e], SIDE_NORMALS[s2])
        for e in m.boundary_edges:
            assert m.edge_cells[e, 1] == -1
            assert_allclose(m.edge_normals[e], SIDE_NORMALS[m.edge_sides[e, 0]])
        assert np.all(m.cell_edges >= 0)

    def test_flux_identity(self):
        # sum over cell edges of (s.n)|e| vanishes for any direction
        m = build_mesh(2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.uniform(0, 2 * np.pi)
            s = np.array([np.cos(a), np.sin(a)])
            sn = SIDE_NORMALS @ s
            for c in range(m.n_cells):
                total = sum(sn[side] * m.h for side in range(4))
                assert abs(total) <= 1e-14

    def test_dump(self):
        m = build_mesh(1)
        buf = io.StringIO()
        m.dump(buf)
        text = buf.getvalue()
        assert text.count("cell ") == 4
        assert "(0.500000,0.500000)" in text


class TestClassifyEdges:
    def test_axis_aligned(self):
        m = build_mesh(2)
        sets = classify_edges(m, np.array([1.0, 0.0]))
        # inflow boundary is the left side of the domain
        assert len(sets.inflow_boundary) == m.n
        assert np.all(m.boundary_side[sets.inflow_boundary] == 0)
        # horizontal sides have s.n = 0: outflow by the tie rule
        assert sets.inflow_sides == (0,)
        assert set(sets.outflow_sides) == {1, 2, 3}

    def test_diagonal(self):
        m = build_mesh(1)
        s = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
        sets = classify_edges(m, s)
        assert len(sets.inflow_boundary) == 4  # left + bottom
        assert set(m.boundary_side[sets.inflow_boundary]) == {0, 2}
        assert sets.inflow_sides == (0, 2)

    def test_partition_covers(self):
        m = build_mesh(2)
        sets = classify_edges(m, np.array([np.cos(1.0), np.sin(1.0)]))
        assert sorted(sets.inflow_sides + sets.outflow_sides) == [0, 1, 2, 3]
        # every boundary edge lands in exactly one of the boundary lists
        both = np.concatenate([sets.inflow_boundary, sets.outflow_boundary])
        assert sorted(both) == sorted(m.boundary_edges)

    def test_direction_object(self):
        from dowg.angular import build_circle_trapezoid

        m = build_mesh(1)
        q = build_circle_trapezoid(4)
        sets = classify_edges(m, q.nodes[1])  # theta = pi/2
        assert np.all(m.boundary_side[sets.inflow_boundary] == 2)

    def test_sn_first(self):
        m = build_mesh(2)
        s = np.array([0.8, -0.6])
        sets = classify_edges(m, s)
        assert_allclose(sets.sn_first, m.edge_normals @ s)

    def test_tie_break_hook(self):
        m = build_mesh(1)
        sets = classify_edges(m, np.array([1.0, 0.0]))
        assert 2 not in sets.inflow_sides and 3 not in sets.inflow_sides
        with _hooks.inject("tie_break_inflow"):
            mutated = classify_edges(m, np.array([1.0, 0.0]))
        assert 2 in mutated.inflow_sides and 3 in mutated.inflow_sides

    def test_rejects_bad_direction(self):
        m = build_mesh(1)
        with pytest.raises(ValueError):
            classify_edges(m, np.array([1.0, 0.0, 0.0]))
