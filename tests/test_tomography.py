"""Acquisition geometry, exact ray tracing, linear forward map, noise."""

import json

import numpy as np
import pytest
import scipy.sparse as sp  # the reference for forward's sums

from latent_abcss.gp_prior import Grid
from latent_abcss.rng_linalg import RngStream
from latent_abcss.tomography import (
    NoiseModel,
    add_noise,
    assemble_matrix,
    build_geometry,
    forward,
    load_ray_matrix,
    save_ray_matrix,
    trace_ray,
)
from latent_abcss.workflows import PipelineConfig

GRID = Grid()  # 50 x 40 cells of 0.1 m
TRIPLE = np.dtype([("ray", "<u4"), ("cell", "<u4"), ("length", "<f8")])  # one stored entry of a ray matrix file


def geometry(**change):
    """The default pipeline's borehole geometry on GRID, with ``change`` applied."""
    defaults = PipelineConfig()
    args = {k: getattr(defaults, k) for k in ("n_src", "n_rcv", "depth_min", "depth_max", "separation")}
    return build_geometry(GRID, **{**args, **change})


class TestBuildGeometry:
    def test_defaults(self):
        geom = geometry()
        assert geom.source_x == pytest.approx(0.05)
        assert geom.receiver_x == pytest.approx(3.95)
        assert geom.separation == pytest.approx(3.9)
        np.testing.assert_allclose(geom.source_depths, np.arange(0.5, 4.51, 0.5))
        assert geom.n_rays == 81

    def test_single_degenerate_depth(self):
        geom = geometry(n_src=1, n_rcv=1, depth_min=2.0, depth_max=2.0)
        np.testing.assert_array_equal(geom.source_depths, [2.0])

    def test_separation_exceeding_width(self):
        with pytest.raises(ValueError, match="separation"):
            geometry(separation=4.5)

    def test_depths_outside_grid(self):
        with pytest.raises(ValueError, match="depth"):
            geometry(depth_min=0.5, depth_max=5.5)


class TestTraceRay:
    def test_axis_aligned_crossing(self):
        grid = Grid(1, 3, 0.1)
        cells, lengths = trace_ray(grid, (0.0, 0.05), (0.3, 0.05))
        np.testing.assert_array_equal(cells, [0, 1, 2])
        np.testing.assert_allclose(lengths, [0.1, 0.1, 0.1])

    def test_segment_within_one_cell(self):
        grid = Grid(3, 3, 0.1)
        cells, lengths = trace_ray(grid, (0.11, 0.11), (0.16, 0.11))
        np.testing.assert_array_equal(cells, [4])
        np.testing.assert_allclose(lengths, [0.05])

    def test_diagonal_across_one_cell(self):
        grid = Grid(1, 1, 0.1)
        cells, lengths = trace_ray(grid, (0.0, 0.0), (0.1, 0.1))
        np.testing.assert_array_equal(cells, [0])
        np.testing.assert_allclose(lengths, [0.1 * np.sqrt(2.0)], rtol=1e-12)

    def test_length_conservation_random_segments(self):
        grid = Grid(7, 5, 0.13)
        rng = np.random.default_rng(11)
        for _ in range(200):
            p0 = rng.uniform([0, 0], [grid.width, grid.height])
            p1 = rng.uniform([0, 0], [grid.width, grid.height])
            _, lengths = trace_ray(grid, p0, p1)
            np.testing.assert_allclose(lengths.sum(), np.linalg.norm(p1 - p0), rtol=1e-9)

    def test_endpoint_outside_grid(self):
        with pytest.raises(ValueError, match="outside"):
            trace_ray(Grid(2, 2, 0.1), (0.0, 0.0), (0.3, 0.1))


class TestAssembleMatrix:
    def test_default_shape(self):
        a = assemble_matrix(GRID, geometry())
        assert a.shape == (81, 2000) and a.dtype == np.float64

    def test_single_pair(self):
        a = assemble_matrix(GRID, geometry(n_src=1, n_rcv=1, depth_min=1.0, depth_max=1.0))
        assert a.shape[0] == 1

    def test_row_sums_equal_euclidean_lengths(self):
        geom = geometry()
        a = assemble_matrix(GRID, geom)
        exact = np.array(
            [
                np.hypot(geom.separation, rz - sz)
                for sz in geom.source_depths
                for rz in geom.receiver_depths
            ]
        )
        np.testing.assert_allclose(a.sum(axis=1), exact, rtol=1e-9)
        # corner ray: first source to last receiver
        assert exact[8] == pytest.approx(np.sqrt(3.9**2 + 4.0**2))
        assert exact[8] == pytest.approx(5.5866, abs=2e-4)

    def test_extreme_ray_lengths(self):
        geom = geometry()
        a = assemble_matrix(GRID, geom)
        lengths = a.sum(axis=1)
        assert lengths.min() == pytest.approx(3.9)
        assert lengths.max() == pytest.approx(np.sqrt(3.9**2 + 4.0**2))


class TestForward:
    def setup_method(self):
        self.geom = geometry()
        self.a = assemble_matrix(GRID, self.geom)

    def test_uniform_slowness_gives_ray_lengths(self):
        y = forward(self.a, np.ones(2000))
        np.testing.assert_allclose(y, self.a.sum(axis=1), rtol=1e-12)
        # horizontal ray (source 1 to receiver 1) crosses the full separation
        assert y[0] == pytest.approx(3.9)

    def test_zero_field(self):
        np.testing.assert_array_equal(forward(self.a, np.zeros(2000)), np.zeros(81))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal(2000)
        x2 = rng.standard_normal(2000)
        lhs = forward(self.a, x1 + x2)
        rhs = forward(self.a, x1) + forward(self.a, x2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
        np.testing.assert_allclose(forward(self.a, 3.0 * x1), 3.0 * forward(self.a, x1), rtol=1e-12)

    def test_field_object_and_batch(self):
        x = np.full(2000, 0.5)
        y1 = forward(self.a, x)
        batch = forward(self.a, np.tile(x, (3, 1)))
        assert batch.shape == (3, 81)
        np.testing.assert_array_equal(batch[1], y1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            forward(self.a, np.ones(7))


# the desk-scale acquisition of tests/test_acceptance.py: 25 rays over 20 x 16 cells
DESK_GRID = Grid(20, 16, 0.1)
OPERATORS = {
    "desk": assemble_matrix(DESK_GRID, build_geometry(DESK_GRID, 5, 5, 0.2, 1.8, 1.5)),
    "default": assemble_matrix(GRID, geometry()),
}


class TestForwardIsTheSparseProduct:
    """``forward`` sums each ray as scipy's CSR product does, so datasets keep their bits."""

    @staticmethod
    def sparse_product(a, x):
        csr = sp.csr_matrix(a)
        return csr @ x if x.ndim == 1 else (csr @ x.T).T

    @pytest.mark.parametrize("geom", OPERATORS)
    @pytest.mark.parametrize("rows", [None, 1, 40, 1000])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_for_bit(self, geom, rows, order):
        a = OPERATORS[geom]
        shape = (a.shape[1],) if rows is None else (rows, a.shape[1])
        x = np.asarray(0.5 + 0.2 * np.random.default_rng(5).standard_normal(shape), order=order)
        y, ref = forward(a, x), self.sparse_product(a, x)
        assert y.shape == ref.shape
        # the same memory order too: metric reductions over a batch follow it
        assert (y.flags.c_contiguous, y.flags.f_contiguous) == (ref.flags.c_contiguous, ref.flags.f_contiguous)
        np.testing.assert_array_equal(y, ref)

    @pytest.mark.parametrize("geom", OPERATORS)
    def test_zero_field_gives_exact_zeros(self, geom):
        a = OPERATORS[geom]
        y = forward(a, np.zeros((3, a.shape[1])))
        assert not np.signbit(y).any()
        np.testing.assert_array_equal(y, 0.0)

    def test_non_finite_cells_reach_only_their_rays(self):
        a = OPERATORS["desk"]
        x = np.full(a.shape[1], 0.5)
        x[0] = np.inf
        y = forward(a, x)
        np.testing.assert_array_equal(y, self.sparse_product(a, x))
        assert np.isinf(y).sum() == np.count_nonzero(a[:, 0]) < y.size


class TestAddNoise:
    def test_zero_std_identity(self):
        y = np.arange(5.0)
        out = add_noise(y, NoiseModel(std=0.0), RngStream(1))
        np.testing.assert_array_equal(out, y)

    def test_empirical_std(self):
        y = np.zeros(20_000)
        out = add_noise(y, NoiseModel(std=0.5), RngStream(2))
        assert np.std(out - y) == pytest.approx(0.5, rel=0.1)

    def test_large_noise_scenario(self):
        y = np.zeros(20_000)
        out = add_noise(y, NoiseModel(std=2.5), RngStream(3))
        assert np.std(out - y) == pytest.approx(2.5, rel=0.1)

    def test_deterministic(self):
        y = np.ones(10)
        a = add_noise(y, NoiseModel(std=1.0), RngStream(4, 1))
        b = add_noise(y, NoiseModel(std=1.0), RngStream(4, 1))
        np.testing.assert_array_equal(a, b)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(std=-1.0)


class TestRayMatrixArtifacts:
    def test_roundtrip(self, tmp_path):
        grid = Grid(6, 5, 0.1)
        a = assemble_matrix(grid, build_geometry(grid, 3, 3, 0.1, 0.5, 0.4))
        path = str(tmp_path / "rays.bin")
        save_ray_matrix(path, a)
        b = load_ray_matrix(path)
        with open(path + ".json") as fh:
            header = json.load(fh)
        assert isinstance(b, np.ndarray) and b.dtype == np.float64
        assert b.shape == a.shape == (header["n_rays"], header["n_cells"]) == (9, 30)
        np.testing.assert_array_equal(b, a)

    def test_resave_is_byte_identical(self, tmp_path):
        a = OPERATORS["default"]
        first, second = str(tmp_path / "first.bin"), str(tmp_path / "second.bin")
        save_ray_matrix(first, a, {"seed": 1})
        save_ray_matrix(second, load_ray_matrix(first), {"seed": 1})
        for suffix in ("", ".json"):
            assert open(first + suffix, "rb").read() == open(second + suffix, "rb").read()

    @pytest.mark.parametrize("field, bound", [("ray", 9), ("cell", 30)])
    def test_index_outside_the_header_shape(self, tmp_path, field, bound):
        path = self.saved(tmp_path)
        packed = np.fromfile(path, dtype=TRIPLE)
        packed[field][0] = bound
        packed.tofile(path)
        refusal = f"rays.bin has {field} index {bound}, outside its header's {bound} {field}s"
        with pytest.raises(ValueError, match=refusal):
            load_ray_matrix(path)

    def test_repeated_pair(self, tmp_path):
        # a sparse matrix would sum the two lengths; save_ray_matrix never writes one
        path = self.saved(tmp_path)
        packed = np.fromfile(path, dtype=TRIPLE)
        packed[1] = packed[0]
        packed.tofile(path)
        with pytest.raises(ValueError, match="rays.bin stores a \\(ray, cell\\) pair twice"):
            load_ray_matrix(path)

    def test_shape_too_large_to_allocate(self, tmp_path):
        # 728 TiB: the allocation fails at once, touching no memory
        path = self.saved(tmp_path)
        header = json.load(open(path + ".json"))
        header.update(n_rays=10**7, n_cells=10**7)
        json.dump(header, open(path + ".json", "w"))
        with pytest.raises(ValueError, match="rays.bin declares shape \\(10000000, 10000000\\), too large to hold"):
            load_ray_matrix(path)

    @staticmethod
    def saved(tmp_path):
        grid = Grid(6, 5, 0.1)
        path = str(tmp_path / "rays.bin")
        save_ray_matrix(path, assemble_matrix(grid, build_geometry(grid, 3, 3, 0.1, 0.5, 0.4)))
        return path

    @pytest.mark.parametrize("trim", [-5, 5])
    def test_file_size_checked_against_header(self, tmp_path, trim):
        # 5 stray bytes are less than one 16-byte record, so counting
        # whole records alone would accept the padded file
        grid = Grid(6, 5, 0.1)
        a = assemble_matrix(grid, build_geometry(grid, 3, 3, 0.1, 0.5, 0.4))
        path = str(tmp_path / "rays.bin")
        save_ray_matrix(path, a)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:trim] if trim < 0 else blob + b"\0" * trim)
        with pytest.raises(ValueError, match="rays.bin"):
            load_ray_matrix(path)
