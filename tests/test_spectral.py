import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdecontrol.errors import CapacityError, ConfigurationError
from spdecontrol.spectral import (DENSE_TRANSFORM_MAX_MODES, DomainKind, _dst_to_coeffs,
                                  _dst_to_field, eigenpairs, make_domain,
                                  regularity_threshold, semigroup_apply,
                                  ultracontractivity_witness, weyl_count)


def fine_sine_grid_matrix(domain, factor=4):
    """Eigenfunction values on an interior uniform grid factor x finer."""
    m = domain.n_modes_per_axis * factor
    pts_axis = np.arange(1, m + 1) * (math.pi / (m + 1))
    grids = np.meshgrid(*([pts_axis] * domain.dimension), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return domain.evaluate_modes(pts), (math.pi / (m + 1)) ** domain.dimension


class TestEigenpairs:
    def test_first_mode_1d(self):
        dom = make_domain(1, 8)
        (k, mu, e) = eigenpairs(dom, 1)[0]
        assert k == (1,)
        assert mu == 1.0
        xi = 0.7
        assert e(np.array([xi])) == pytest.approx(math.sqrt(2 / math.pi) * math.sin(xi))

    def test_first_mode_2d(self):
        dom = make_domain(2, 4)
        (k, mu, _) = eigenpairs(dom, 1)[0]
        assert k == (1, 1)
        assert mu == 2.0

    def test_e2_at_quarter_pi(self):
        dom = make_domain(1, 8)
        e2 = eigenpairs(dom, 2)[1][2]
        assert e2(np.array([math.pi / 4])) == pytest.approx(math.sqrt(2 / math.pi))

    def test_capacity_error(self):
        dom = make_domain(1, 4)
        with pytest.raises(CapacityError):
            eigenpairs(dom, 5)

    def test_eigenvalues_sorted_with_lex_ties(self):
        dom = make_domain(2, 3)
        assert np.all(np.diff(dom.eigenvalues) >= 0)
        # the degenerate pair mu=5 must appear as (1,2) before (2,1)
        idx = np.where(dom.eigenvalues == 5.0)[0]
        assert [tuple(k) for k in dom.mode_indices[idx]] == [(1, 2), (2, 1)]

    def test_dimension_guard(self):
        with pytest.raises(ConfigurationError):
            make_domain(4, 2)


class TestSemigroup:
    def test_identity_at_zero(self):
        dom = make_domain(1, 6)
        c = np.arange(1.0, 7.0)
        assert np.array_equal(semigroup_apply(dom, 0.0, c), c)

    def test_mode_two_decay(self):
        dom = make_domain(1, 6)
        c = np.zeros(6)
        c[1] = 1.0
        out = semigroup_apply(dom, 0.5, c)
        assert out[1] == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_zero_vector(self):
        dom = make_domain(1, 6)
        assert np.all(semigroup_apply(dom, 0.3, np.zeros(6)) == 0.0)

    def test_negative_time_rejected(self):
        dom = make_domain(1, 6)
        with pytest.raises(ValueError):
            semigroup_apply(dom, -0.1, np.zeros(6))

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
    @example(s=0.4526993403893692, t=0.3)
    def test_semigroup_property(self, s, t):
        dom = make_domain(1, 32)
        c = np.linspace(1.0, 2.0, 32)
        a = semigroup_apply(dom, s, semigroup_apply(dom, t, c))
        b = semigroup_apply(dom, s + t, c)
        assert np.allclose(a, b, rtol=1e-13, atol=1e-280)

    def test_contraction(self):
        dom = make_domain(2, 5)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(dom.n_modes)
        for t in (0.0, 0.01, 0.5, 3.0):
            assert np.linalg.norm(semigroup_apply(dom, t, c)) <= np.linalg.norm(c) + 1e-15


class TestUltracontractivity:
    def test_single_mode_bound(self):
        dom = make_domain(1, 8)
        probe = np.zeros(8)
        probe[0] = 1.0
        for t in (0.1, 0.5, 1.0):
            ratio = ultracontractivity_witness(dom, t, probe)
            assert ratio <= math.sqrt(2 / math.pi) * math.exp(-t) + 1e-12

    @pytest.mark.parametrize("d,modes,envelope_const", [(1, 256, 0.64), (2, 48, 0.40)])
    def test_dyadic_sweep_envelope_and_slope(self, d, modes, envelope_const):
        # ratio <= C t^(-lambda) with the heat-kernel constant at every t of
        # the dyadic sweep; the probe-averaged log-log slope of the small-t
        # tail sits near -d/4 (slightly steeper from the sqrt(log 1/t)
        # correction of Gaussian suprema)
        dom = make_domain(d, modes)
        ts = np.array([2.0 ** (-k) for k in range(1, 10)])
        lam = d / 4.0
        mean_ratios = np.zeros(ts.size)
        for seed in range(32):
            probe = np.random.default_rng(seed).standard_normal(dom.n_modes)
            ratios = np.array([ultracontractivity_witness(dom, t, probe) for t in ts])
            assert np.all(ratios * ts**lam <= envelope_const)
            mean_ratios += ratios / 32
        slope = np.polyfit(np.log(ts[4:]), np.log(mean_ratios[4:]), 1)[0]
        assert -1.6 * lam <= slope <= -0.8 * lam

    def test_zero_probe_rejected(self):
        dom = make_domain(1, 8)
        with pytest.raises(ValueError):
            ultracontractivity_witness(dom, 0.5, np.zeros(8))


class TestWeylCount:
    def test_examples(self):
        assert weyl_count(make_domain(1, 8), 10.0) == 3
        assert weyl_count(make_domain(2, 4), 5.0) == 3
        assert weyl_count(make_domain(1, 8), 0.5) == 0

    def test_gauss_circle_density(self):
        dom = make_domain(2, 32)
        for mu in (200.0, 300.0, 400.0, 500.0):
            ratio = weyl_count(dom, mu) * 4.0 / (math.pi * mu)
            assert 0.7 <= ratio <= 1.3


class TestRegularityThreshold:
    def test_hypercube_d2(self):
        assert regularity_threshold(2, DomainKind.HYPERCUBE, 0.1) == pytest.approx(0.1)

    def test_ball_d2(self):
        assert regularity_threshold(2, DomainKind.BALL_FORMULA, 0.1) == pytest.approx(0.35)

    def test_hypercube_d1(self):
        assert regularity_threshold(1, "interval_or_hypercube", 0.25) == pytest.approx(0.0)

    def test_alpha_domain(self):
        for bad in (0.0, 0.5, -0.2, 0.7):
            with pytest.raises(ValueError):
                regularity_threshold(2, DomainKind.HYPERCUBE, bad)


class TestTransforms:
    @pytest.mark.parametrize("d,m", [(1, 16), (2, 6), (3, 3)])
    def test_orthonormality_gram(self, d, m):
        dom = make_domain(d, m)
        mat, weight = fine_sine_grid_matrix(dom, factor=4)
        gram = weight * (mat.T @ mat)
        assert np.max(np.abs(gram - np.eye(dom.n_modes))) < 1e-8

    # (1, 256) is the largest dense-matrix size; (1, 512) and (3, 8) use the DST
    @pytest.mark.parametrize("d,m", [(1, 32), (2, 8), (1, 256), (1, 512), (3, 8)])
    def test_roundtrip(self, d, m):
        dom = make_domain(d, m)
        c = np.random.default_rng(1).standard_normal(dom.n_modes)
        assert np.max(np.abs(dom.to_coeffs(dom.to_field(c)) - c)) < 1e-13

    def test_sup_bound_uniform_in_k(self):
        # hypercube eigenfunctions are uniformly bounded, so the worst-case
        # growth estimate sup|e_k| <= mu_k^((d-1)/4) holds with constant 1
        dom = make_domain(2, 5)
        mat, _ = fine_sine_grid_matrix(dom, factor=8)
        sups = np.max(np.abs(mat), axis=0)
        bound = (2 / math.pi) ** (dom.dimension / 2)
        assert np.all(sups <= bound + 1e-12)
        assert np.all(sups <= dom.eigenvalues ** ((dom.dimension - 1) / 4.0) + 1e-12)

    def test_ball_kind_has_no_grid(self):
        dom = make_domain(2, 4, DomainKind.BALL_FORMULA)
        with pytest.raises(ConfigurationError):
            dom.to_field(np.zeros(dom.n_modes))
        with pytest.raises(ConfigurationError):
            dom.to_coeffs(np.zeros(dom.n_modes))

    @pytest.mark.parametrize("d,m", [(1, 16), (1, 256), (2, 8), (3, 4)])
    @pytest.mark.parametrize("batch", [(), (1,), (37,), (3, 4)])
    def test_dense_matches_dst(self, d, m, batch):
        dom = make_domain(d, m)
        assert dom.n_modes <= DENSE_TRANSFORM_MAX_MODES
        shape = batch + (dom.n_modes,)
        x = np.random.default_rng(d * 1000 + m).standard_normal(shape)
        for dense, reference in ((dom.to_field(x), _dst_to_field(dom, x)),
                                 (dom.to_coeffs(x), _dst_to_coeffs(dom, x))):
            assert dense.shape == shape
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(dense - reference)) <= 1e-12 * scale

    def test_dense_matrix_only_up_to_crossover(self):
        assert make_domain(1, DENSE_TRANSFORM_MAX_MODES)._synthesis is not None
        assert make_domain(1, DENSE_TRANSFORM_MAX_MODES + 1)._synthesis is None
        assert make_domain(2, 48)._synthesis is None
        assert make_domain(2, 4, DomainKind.BALL_FORMULA)._synthesis is None


_TRANSFORM_HASHES = """
import hashlib
import numpy as np
from spdecontrol.spectral import make_domain
for d, m, rows in [(1, 16, 500), (1, 64, 200), (2, 8, 200), (3, 4, 200), (1, 64, None)]:
    dom = make_domain(d, m)
    shape = (dom.n_modes,) if rows is None else (rows, dom.n_modes)
    x = np.random.default_rng(7).standard_normal(shape)
    for out in (dom.to_field(x), dom.to_coeffs(x)):
        print(d, m, rows, hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest())
"""


def test_transform_bytes_independent_of_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _TRANSFORM_HASHES], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        hashes.append(run.stdout.splitlines())
    assert len(hashes[0]) == 10
    assert hashes[0] == hashes[1]
