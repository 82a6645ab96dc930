"""Seeded streams, Cholesky, MVN sampling, array and CSV artifacts."""

import ast
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import latent_abcss
from latent_abcss import rng_linalg
from latent_abcss.rng_linalg import (
    NotPositiveDefiniteError,
    RngStream,
    add_jitter,
    cholesky,
    load_array,
    read_csv_columns,
    sample_mvn,
    save_array,
    write_csv,
    write_json,
)


class TestRngStream:
    def test_identical_streams_identical_draws(self):
        a = RngStream(123, 4).generator().standard_normal(100)
        b = RngStream(123, 4).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RngStream(123, 4).generator().standard_normal(100)
        b = RngStream(123, 5).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_split_children_are_independent_and_reproducible(self):
        parent = RngStream(9, 0)
        c1 = parent.split(0).generator().standard_normal(50)
        c2 = parent.split(1).generator().standard_normal(50)
        assert not np.array_equal(c1, c2)
        np.testing.assert_array_equal(c1, parent.split(0).generator().standard_normal(50))

    def test_split_is_pure(self):
        parent = RngStream(9, 0)
        parent.split(3)
        np.testing.assert_array_equal(
            parent.generator().standard_normal(10),
            RngStream(9, 0).generator().standard_normal(10),
        )

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)


class TestCholesky:
    def test_scalar_square_root(self):
        np.testing.assert_allclose(cholesky([[4.0]]), [[2.0]])

    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(2)), np.eye(2))

    def test_two_by_two_reconstructs(self):
        m = np.array([[4.0, 2.0], [2.0, 5.0]])
        low = cholesky(m)
        np.testing.assert_allclose(low, [[2.0, 0.0], [1.0, 2.0]])
        np.testing.assert_allclose(low @ low.T, m, rtol=1e-12)

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = rng.standard_normal((8, 8))
            m = b @ b.T + 8 * np.eye(8)
            low = cholesky(m)
            err = np.linalg.norm(low @ low.T - m) / np.linalg.norm(m)
            assert err < 1e-8

    def test_roundtrip_on_lower_factors(self):
        # cholesky(L L') recovers L when L has a positive diagonal
        rng = np.random.default_rng(1)
        low = np.tril(rng.standard_normal((6, 6)))
        low[np.diag_indices(6)] = np.abs(low[np.diag_indices(6)]) + 0.5
        rec = cholesky(low @ low.T)
        np.testing.assert_allclose(rec, low, rtol=1e-8, atol=1e-10)

    def test_not_positive_definite_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky([[1.0, 2.0], [2.0, 1.0]])
        assert err.value.pivot == 1
        assert "not positive definite" in str(err.value)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("gap, error", [(5e-5, NotPositiveDefiniteError), (2e-4, ValueError)])
    def test_symmetry_tolerance_scales_with_the_largest_magnitude(self, gap, error):
        # the largest entry in magnitude is negative: the tolerance is 1e-10 * 1e6
        with pytest.raises(error, match="pivot 1" if error is NotPositiveDefiniteError else "symmetric"):
            cholesky([[1.0, -1e6], [-1e6 + gap, 1.0]])

    def test_failed_pivot_is_named_in_a_cold_interpreter(self):
        # scipy.linalg is imported only in the failure branch, so a process
        # that has not loaded it still gets the failing pivot
        code = (
            "import sys\n"
            "from latent_abcss.rng_linalg import NotPositiveDefiniteError, cholesky\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy.linalg')))\n"
            "try:\n"
            "    cholesky([[4.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])\n"
            "except NotPositiveDefiniteError as err:\n"
            "    print(err.pivot)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(latent_abcss.__file__))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.stdout.splitlines() == ["[]", "2"], out.stderr

    def test_empty_and_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            cholesky(np.ones((2, 3)))


def scipy_linalg_uses(path):
    """Each scipy LAPACK/BLAS import, and each ``.linalg`` not on numpy, in a module."""
    def is_scipy_linalg(name):
        parts = name.split(".")
        return parts[0] == "scipy" and "linalg" in parts

    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if is_scipy_linalg(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [n for n in (f"{node.module}.{a.name}" for a in node.names) if is_scipy_linalg(n)]
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            base = node.value
            if not (isinstance(base, ast.Name) and base.id in ("np", "numpy")):
                found.append(f"{ast.unparse(base)}.linalg")
    return found


def test_scipy_lapack_only_names_the_failed_pivot():
    # scipy links its own OpenBLAS, a second thread pool beside numpy's; once
    # a call wakes it, its idle workers spin while numpy's GEMMs need the same
    # cores. So every BLAS/LAPACK call of a successful run goes through numpy,
    # and scipy's dpotrf runs only in cholesky's failure branch.
    src = os.path.dirname(latent_abcss.__file__)
    found = {
        (os.path.basename(path), name)
        for path in sorted(glob.glob(os.path.join(src, "*.py")))
        for name in scipy_linalg_uses(path)
    }
    assert found == {("rng_linalg.py", "scipy.linalg.lapack.dpotrf")}


class TestSampleMvn:
    def test_standard_normal_mean(self):
        draws = sample_mvn(np.zeros(2), np.eye(2), 200_000, RngStream(5))
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.02)

    def test_degenerate_factor_returns_mean(self):
        mu = np.array([1.5, -2.0])
        draws = sample_mvn(mu, np.zeros((2, 2)), 64, RngStream(6))
        np.testing.assert_array_equal(draws, np.tile(mu, (64, 1)))

    def test_empirical_covariance(self):
        m = np.array([[4.0, 2.0], [2.0, 5.0]])
        draws = sample_mvn(np.zeros(2), cholesky(m), 100_000, RngStream(7))
        emp = np.cov(draws.T)
        np.testing.assert_allclose(emp, m, rtol=0.05)

    def test_deterministic_per_stream(self):
        a = sample_mvn(np.zeros(3), np.eye(3), 10, RngStream(8, 2))
        b = sample_mvn(np.zeros(3), np.eye(3), 10, RngStream(8, 2))
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sample_mvn(np.zeros(3), np.eye(2), 5, RngStream(0))


class TestJitterAndArtifacts:
    def test_add_jitter_targets_trace(self, monkeypatch):
        monkeypatch.setattr(rng_linalg, "_JITTER_REL", 1e-2)
        m = np.diag([1.0, 3.0])
        out = add_jitter(m)
        np.testing.assert_allclose(np.diag(out), [1.02, 3.02])
        assert m[0, 0] == 1.0  # input untouched

    @pytest.mark.parametrize(
        "m, match",
        [
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
            (np.diag([1.0, np.inf]), "non-finite"),
            (np.ones((2, 3)), "equal length"),
            (np.ones(3), "at least 2-d"),
        ],
    )
    def test_jittered_bad_matrix_rejected_before_lapack(self, m, match, monkeypatch):
        # cholesky checks the jittered matrix; add_jitter does not check it twice
        def lapack(a):
            raise AssertionError("LAPACK reached")

        monkeypatch.setattr(np.linalg, "cholesky", lapack)
        with pytest.raises(ValueError, match=match):
            cholesky(add_jitter(m))

    def test_array_roundtrip(self, tmp_path):
        arr = np.arange(12.0).reshape(3, 4)
        path = str(tmp_path / "m.f64")
        save_array(path, arr)
        np.testing.assert_array_equal(load_array(path), arr)
        sidecar = (tmp_path / "m.f64.json").read_text()
        assert '"shape"' in sidecar and '"f64"' in sidecar

    def test_vector_roundtrip(self, tmp_path):
        vec = np.linspace(0, 1, 7)
        path = str(tmp_path / "v.f64")
        save_array(path, vec)
        np.testing.assert_array_equal(load_array(path), vec)

    def test_scalar_roundtrip_keeps_its_shape(self, tmp_path):
        path = str(tmp_path / "s.f64")
        save_array(path, np.float64(2.5))
        back = load_array(path)
        assert back.shape == ()
        assert back == 2.5
        assert json.loads((tmp_path / "s.f64.json").read_text())["shape"] == []

    def test_transposed_array_roundtrip(self, tmp_path):
        arr = np.arange(12.0).reshape(3, 4).T
        path = str(tmp_path / "t.f64")
        save_array(path, arr)
        np.testing.assert_array_equal(load_array(path), arr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_json_refuses_non_finite_and_writes_nothing(self, tmp_path, bad):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            write_json(str(path), {"ok": 1.0, "nested": {"bad": [bad]}})
        assert not path.exists()

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "bad.f64")
        save_array(path, np.ones(4))
        with open(path, "wb") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(ValueError, match="bytes"):
            load_array(path)


class TestCsv:
    def test_floats_roundtrip_exactly(self, tmp_path):
        gen = np.random.default_rng(9)
        a = gen.standard_normal(50) * 10.0 ** gen.integers(-300, 300, 50)
        b = np.array([0.1, 1 / 3, 2.0**-1074, np.finfo(float).max, -0.0])
        path = write_csv(
            str(tmp_path / "t.csv"),
            ["a", "b"],
            ([x, b[i] if i < b.size else None] for i, x in enumerate(a)),
        )
        cols = read_csv_columns(path)
        np.testing.assert_array_equal(cols["a"], a)
        np.testing.assert_array_equal(cols["b"], b)
        assert np.signbit(cols["b"][-1])

    def test_ragged_row_refused_with_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        for rows, refusal in (
            ("0,0.5,0.25,9.9\n", "line 2 has 4 cells"),
            ("0,0.5,0.25\n1,0.7\n", "line 3 has 2 cells"),
        ):
            path.write_text("sample,a,b\n" + rows)
            with pytest.raises(ValueError, match=f"^{path} {refusal}, its header 3$"):
                read_csv_columns(str(path))

    def test_cell_rules(self, tmp_path):
        path = write_csv(
            str(tmp_path / "t.csv"), ("s", "n", "x", "f", "none"), [("lbl", 3, np.float64(0.5), 2, None)]
        )
        with open(path) as fh:
            assert fh.read() == "s,n,x,f,none\nlbl,3,0.5,2,\n"
