import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dowg import _hooks
from dowg.mesh import OPPOSITE_SIDE, SIDE_NORMALS, build_mesh, classify_edges


class TestBuildMesh:
    def test_coarse_grid(self):
        m = build_mesh(1)
        assert m.n_cells == 4
        assert m.h == 0.5
        # 4 interior faces, each seen from both cells, and 8 boundary faces
        assert np.count_nonzero(m.neighbours >= 0) == 8
        assert np.count_nonzero(m.neighbours < 0) == 8

    def test_edge_counts(self):
        m = build_mesh(2)
        n = m.n
        faces = m.interior_faces()
        assert sum(len(cells) for _, _, cells, _ in faces) == 2 * n * (n - 1)
        assert sum(len(m.boundary_cells(s)) for s in range(4)) == 4 * n

    def test_level3(self):
        m = build_mesh(3)
        assert m.n_cells == 64
        assert m.h == 1 / 8

    def test_refinement(self):
        for lv in (1, 2, 3):
            a, b = build_mesh(lv), build_mesh(lv + 1)
            assert b.n_cells == 4 * a.n_cells
            assert b.h == a.h / 2

    def test_area_sum(self):
        m = build_mesh(3)
        x, y = m.points([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        dx = x[:, 1] - x[:, 0]
        dy = y[:, 3] - y[:, 0]
        assert_allclose(np.sum(dx * dy), 1.0, atol=1e-14)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_points_map_reference_corners(self, level):
        # cell c = j*n + i maps the reference point r to (h*i, h*j) + h*r
        m = build_mesh(level)
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        for cells in (slice(None), np.arange(m.n_cells)[1::3]):
            j, i = np.divmod(np.arange(m.n_cells)[cells], m.n)
            x, y = m.points(ref, cells)
            assert x.shape == y.shape == (len(i), 4)
            assert_array_equal(x, m.h * i[:, None] + m.h * ref[:, 0])
            assert_array_equal(y, m.h * j[:, None] + m.h * ref[:, 1])

    @pytest.mark.parametrize("level", [1, 3, 7])
    def test_points_of_some_cells_are_rows_of_all(self, level):
        # only the requested cells are mapped, bit for bit as in the full map
        m = build_mesh(level)
        ref = np.random.default_rng(level).random((5, 2))
        X, Y = m.points(ref)
        for cells in (slice(1, None, 3), np.arange(m.n_cells)[::-5],
                      *(m.boundary_cells(s) for s in range(4))):
            x, y = m.points(ref, cells)
            assert x.tobytes() == X[cells].tobytes() and y.tobytes() == Y[cells].tobytes()

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            build_mesh(0)
        with pytest.raises(ValueError):
            build_mesh(11)

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_neighbour_contract(self, level):
        m = build_mesh(level)
        n, nbr = m.n, m.neighbours
        assert nbr.shape == (m.n_cells, 4)
        # a neighbour sees the cell back across the opposite side, one
        # cell away along that side's normal: (column i, row j) of cell
        # j*n + i step by the normal
        for c, s in zip(*np.nonzero(nbr >= 0)):
            assert nbr[nbr[c, s], OPPOSITE_SIDE[s]] == c
            step = np.subtract(divmod(nbr[c, s], n), divmod(c, n))[::-1]
            assert_array_equal(step, SIDE_NORMALS[s])
        assert np.count_nonzero(nbr < 0) == 4 * n
        # each domain side has n boundary cells, in ascending order along it
        for s in range(4):
            cells = m.boundary_cells(s)
            assert_array_equal(cells, np.nonzero(nbr[:, s] < 0)[0])
            # row j runs along a vertical side, column i along a horizontal one
            j, i = np.divmod(cells, n)
            along, across = (j, i) if s < 2 else (i, j)
            assert_array_equal(along, np.arange(n))
            assert_array_equal(across, 0 if s % 2 == 0 else n - 1)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_interior_faces(self, level):
        m = build_mesh(level)
        n = m.n
        # every interior face once, line by line: vertical lines x = i h
        # left to right, each bottom to top, then horizontal lines y = j h,
        # each left to right
        faces = m.interior_faces()
        assert [(s1, s2) for s1, s2, _, _ in faces] == [(1, 0), (3, 2)]
        keys = (lambda c: (c % n, c // n), lambda c: (c // n, c % n))
        for (s1, s2, cells, nbrs), key in zip(faces, keys):
            assert len(cells) == n * (n - 1)
            assert_array_equal(nbrs, m.neighbours[cells, s1])
            assert_array_equal(m.neighbours[nbrs, s2], cells)
            assert [key(c) for c in cells] == sorted(key(c) for c in cells)
        assert 2 * sum(len(f[2]) for f in faces) == np.count_nonzero(m.neighbours >= 0)

    def test_incidence(self):
        m = build_mesh(2)
        # interior faces: two incident cells across opposite sides,
        # consistent with the neighbour table both ways
        for s1, s2, cells, nbrs in m.interior_faces():
            assert {s1, s2} in ({0, 1}, {2, 3})
            assert_allclose(SIDE_NORMALS[s1], -SIDE_NORMALS[s2])
            assert np.all(cells >= 0) and np.all(nbrs >= 0)
            assert_array_equal(m.neighbours[cells, s1], nbrs)
            assert_array_equal(m.neighbours[nbrs, s2], cells)
        for s in range(4):
            assert np.all(m.neighbours[m.boundary_cells(s), s] == -1)
        assert np.all(m.neighbours >= -1)

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


class TestClassifyEdges:
    def test_axis_aligned(self):
        m = build_mesh(2)
        sets = classify_edges(np.array([1.0, 0.0]))
        # inflow boundary is the left side of the domain
        assert sets.inflow_sides == (0,)
        inflow = m.boundary_cells(0)
        assert len(inflow) == m.n
        assert np.all(inflow % m.n == 0)  # column i = 0, at x = 0
        # horizontal sides have s.n = 0: outflow by the tie rule
        assert set(sets.outflow_sides) == {1, 2, 3}

    def test_diagonal(self):
        m = build_mesh(1)
        s = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
        sets = classify_edges(s)
        assert sets.inflow_sides == (0, 2)  # left + bottom
        assert sum(len(m.boundary_cells(b)) for b in sets.inflow_sides) == 4
        assert sorted(sets.inflow_sides + sets.outflow_sides) == [0, 1, 2, 3]

    def test_partition_covers(self):
        m = build_mesh(2)
        sets = classify_edges(np.array([np.cos(1.0), np.sin(1.0)]))
        assert sorted(sets.inflow_sides + sets.outflow_sides) == [0, 1, 2, 3]
        # every boundary side of every cell lands in exactly one of the lists
        both = [(c, b) for b in sets.inflow_sides + sets.outflow_sides
                for c in m.boundary_cells(b)]
        assert sorted(both) == sorted(zip(*np.nonzero(m.neighbours < 0)))

    def test_direction_object(self):
        from dowg.angular import build_circle_trapezoid

        q = build_circle_trapezoid(4)
        sets = classify_edges(q.vectors[1])  # theta = pi/2
        assert sets.inflow_sides == (2,)

    def test_tie_break_hook(self):
        sets = classify_edges(np.array([1.0, 0.0]))
        assert 2 not in sets.inflow_sides and 3 not in sets.inflow_sides
        with _hooks.inject("tie_break_inflow"):
            mutated = classify_edges(np.array([1.0, 0.0]))
        assert 2 in mutated.inflow_sides and 3 in mutated.inflow_sides

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            classify_edges(np.array([1.0, 0.0, 0.0]))
