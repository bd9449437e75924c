import math

import numpy as np
import pytest

import spdecontrol.noise as noise_module
from spdecontrol.errors import ConfigurationError
from spdecontrol.noise import (NoiseModel, aggregate_increments, convolution_increments,
                               factorization_prefactor, factorization_reconstruct,
                               ou_factors, ou_paths, sample_convolution, sample_singular_process,
                               series_condition_v, supnorm_moment_study, trace_summand,
                               wiener_normals)
from spdecontrol.rng import seed_sequence
from spdecontrol.spectral import DomainKind, make_domain, regularity_threshold


class TestTraceSummand:
    def test_rapid_coloring_tail(self):
        # direct summation: with gamma = 5 everything beyond mode 10 is dust
        d20 = make_domain(1, 20)
        d40 = make_domain(1, 40)
        s20 = trace_summand(d20, NoiseModel(d20, 5.0, 0.25, 1), 1.0)
        s40 = trace_summand(d40, NoiseModel(d40, 5.0, 0.25, 1), 1.0)
        assert 0 <= s40 - s20 < 1e-6
        d10 = make_domain(1, 10)
        assert s40 - trace_summand(d10, NoiseModel(d10, 5.0, 0.25, 1), 1.0) < 1e-6

    def test_zero_time(self):
        dom = make_domain(1, 8)
        assert trace_summand(dom, NoiseModel(dom, 0.5, 0.25, 1), 0.0) == 0.0

    def test_single_mode_infinite_horizon(self):
        dom = make_domain(1, 1)
        assert trace_summand(dom, NoiseModel(dom, 0.0, 0.25, 1), np.inf) == pytest.approx(0.5)

    def test_monotone_in_mode_count(self):
        small, big = make_domain(2, 4), make_domain(2, 8)
        s1 = trace_summand(small, NoiseModel(small, 0.4, 0.25, 1), 0.7)
        s2 = trace_summand(big, NoiseModel(big, 0.4, 0.25, 1), 0.7)
        assert s2 >= s1


class TestSeriesCondition:
    def test_hypercube_d2_converges(self):
        dom = make_domain(2, 4)
        assert series_condition_v(dom, NoiseModel(dom, 0.2, 0.1, 1))["converges"] is True

    def test_ball_d2_diverges(self):
        dom = make_domain(2, 4, DomainKind.BALL_FORMULA)
        assert series_condition_v(dom, NoiseModel(dom, 0.2, 0.1, 1))["converges"] is False

    def test_white_noise_d1_near_half(self):
        dom = make_domain(1, 8)
        verdict = series_condition_v(dom, NoiseModel(dom, 0.0, 0.49, 1))
        assert verdict["exponent"] == pytest.approx(-0.02)
        assert verdict["converges"] is False
        # partial sums of k^(2a-2g-2... the summand with exponent -0.02 keep growing
        k = np.arange(1.0, 10.0**5 + 1)
        partial = np.cumsum(k ** (2 * (2 * 0.49 - 1.0) / 2.0))
        assert partial[10**4 - 1] > 1.05 * partial[10**3 - 1]
        assert partial[10**5 - 1] > 1.05 * partial[10**4 - 1]

    def test_verdict_matches_threshold_everywhere(self):
        for d in (1, 2, 3):
            for kind in DomainKind:
                for alpha in (0.05, 0.15, 0.25, 0.35, 0.45):
                    for gamma in (0.0, 0.2, 0.45, 0.8, 1.5):
                        dom = make_domain(d, 3, kind)
                        got = series_condition_v(dom, NoiseModel(dom, gamma, alpha, 1))
                        expected = gamma > regularity_threshold(d, kind, alpha)
                        assert got["converges"] == expected


class TestConvolutionSampling:
    def test_zero_covariance_path(self):
        # on a d=2 domain all eigenvalues exceed 1, so gamma = inf kills b_k
        dom = make_domain(2, 3)
        noise = NoiseModel(dom, np.inf, 0.25, 5)
        assert np.all(noise.b_coeffs == 0.0)
        sample = sample_convolution(dom, noise, 16, 1.0, (5, "wiener", 0))
        assert np.all(sample.mode_coeffs == 0.0)

    def test_starts_at_zero_and_deterministic(self):
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 42)
        a = sample_convolution(dom, noise, 32, 1.0, (42, "wiener", 3))
        b = sample_convolution(dom, noise, 32, 1.0, (42, "wiener", 3))
        c = sample_convolution(dom, noise, 32, 1.0, (42, "wiener", 4))
        assert np.all(a.mode_coeffs[0] == 0.0)
        assert np.array_equal(a.mode_coeffs, b.mode_coeffs)
        assert not np.array_equal(a.mode_coeffs, c.mode_coeffs)

    def test_single_mode_variance_against_closed_form(self):
        dom = make_domain(1, 1)
        noise = NoiseModel(dom, 0.0, 0.25, 7)
        n_paths, n_steps = 10_000, 16
        dt = 1.0 / n_steps
        decay, sd = ou_factors(dom.eigenvalues, dt)
        w = np.zeros(n_paths)
        for i in range(n_paths):
            rng = np.random.default_rng(seed_sequence(7, "wiener", i))
            xi = rng.standard_normal(n_steps)
            path = 0.0
            for n in range(n_steps):
                path = decay[0] * path + sd[0] * xi[n]
            w[i] = path
        target = (1.0 - math.exp(-2.0)) / 2.0
        stderr = target * math.sqrt(2.0 / n_paths)
        assert abs(w.var(ddof=1) - target) < 3 * stderr

    def test_stationary_variance_limit(self):
        # by horizon 4 the slowest mode is within 3e-4 of its stationary law
        dom = make_domain(1, 3)
        noise = NoiseModel(dom, 0.5, 0.25, 29)
        n_paths, n_steps = 10_000, 16
        dt = 4.0 / n_steps
        decay, sd = ou_factors(dom.eigenvalues, dt)
        scale = noise.b_coeffs * sd
        w = np.zeros((n_paths, 3))
        for i in range(n_paths):
            rng = np.random.default_rng(seed_sequence(29, "wiener", i))
            xi = rng.standard_normal((n_steps, 3))
            path = np.zeros(3)
            for n in range(n_steps):
                path = decay * path + scale * xi[n]
            w[i] = path
        target = noise.b_coeffs**2 / (2.0 * dom.eigenvalues)
        z = np.abs(w.var(axis=0, ddof=1) - target) / (target * math.sqrt(2.0 / n_paths))
        assert np.all(z < 4.0)

    def test_cross_mode_independence(self):
        dom = make_domain(1, 4)
        noise = NoiseModel(dom, 0.3, 0.25, 11)
        n_paths = 4000
        finals = np.empty((n_paths, 4))
        for i in range(n_paths):
            finals[i] = sample_convolution(dom, noise, 8, 1.0, (11, "wiener", i)).mode_coeffs[-1]
        cov = np.cov(finals.T)
        for a in range(4):
            for b in range(a + 1, 4):
                stderr = math.sqrt(cov[a, a] * cov[b, b] / n_paths)
                assert abs(cov[a, b]) < 4 * stderr

    def test_aggregated_increments_reproduce_coarse_path(self):
        dom = make_domain(1, 6)
        noise = NoiseModel(dom, 0.5, 0.25, 9)
        n_fine, ratio = 64, 8
        dt_fine = 1.0 / n_fine
        normals = wiener_normals((9, "wiener", 0), n_fine, 6)
        incr_fine = convolution_increments(dom, noise, normals, dt_fine)
        fine = np.zeros((n_fine + 1, 6))
        decay_f = np.exp(-dom.eigenvalues * dt_fine)
        for n in range(n_fine):
            fine[n + 1] = decay_f * fine[n] + incr_fine[n]
        incr_coarse = aggregate_increments(incr_fine, dom.eigenvalues, dt_fine, ratio)
        coarse = np.zeros(6)
        decay_c = np.exp(-dom.eigenvalues * dt_fine * ratio)
        for m in range(n_fine // ratio):
            coarse = decay_c * coarse + incr_coarse[m]
        assert np.allclose(coarse, fine[-1], atol=1e-14)


class TestMomentStudy:
    def test_subcritical_d2_grows_with_truncation(self):
        dom = make_domain(2, 32)
        noise = NoiseModel(dom, 0.0, 0.25, 21)   # gamma below the d=2 threshold
        rows = supnorm_moment_study(dom, noise, [8, 16, 32], n_paths=100,
                                    n_steps=16, horizon=1.0)
        estimates = [r["estimate"] for r in rows]
        assert estimates[0] < estimates[1] < estimates[2]
        # growth clears the Monte Carlo noise floor by a wide margin
        assert estimates[2] - estimates[0] > 4 * max(r["stderr"] for r in rows)

    def test_regular_d1_stabilizes(self):
        dom = make_domain(1, 64)
        noise = NoiseModel(dom, 1.0, 0.25, 22)
        rows = supnorm_moment_study(dom, noise, [32, 64], n_paths=100,
                                    n_steps=16, horizon=1.0)
        rel_change = abs(rows[1]["estimate"] - rows[0]["estimate"]) / rows[0]["estimate"]
        assert rel_change < 0.10

    def test_zero_noise(self):
        dom = make_domain(2, 4)
        noise = NoiseModel(dom, np.inf, 0.25, 1)
        rows = supnorm_moment_study(dom, noise, [2, 4], n_paths=10, n_steps=4)
        assert all(r["estimate"] == 0.0 for r in rows)

    @staticmethod
    def per_path_reference(domain, noise, truncations, n_paths, p, n_steps, horizon):
        """The study one path at a time, each path's whole OU path built by ``ou_paths``."""
        d, dt, m_max = domain.dimension, horizon / n_steps, max(truncations)
        sups = {m: np.zeros(n_paths) for m in truncations}
        for i in range(n_paths):
            rng = np.random.default_rng(seed_sequence(noise.seed, "moment", i))
            normals = rng.standard_normal((n_steps,) + (m_max,) * d)
            for m in truncations:
                sub = make_domain(d, m)
                xi = normals[(slice(None),) + (slice(0, m),) * d].reshape(n_steps, -1)
                incr = convolution_increments(sub, NoiseModel(sub, noise.gamma, noise.alpha,
                                                              noise.seed),
                                              xi[:, sub._tensor_index], dt)
                sups[m][i] = np.max(sub.sup_norm(ou_paths(sub.eigenvalues, dt, incr)[1:]))
        return [{"truncation": m ** d, "modes_per_axis": m, "paths": n_paths, "p": p,
                 "estimate": float((sups[m] ** p).mean()),
                 "stderr": float((sups[m] ** p).std(ddof=1) / math.sqrt(n_paths))}
                for m in truncations]

    # 1-D and 2-D on the dense transform, and 300 modes on the DST-I path
    @pytest.mark.parametrize("dimension, modes, truncations",
                             [(1, 32, [8, 16, 32]), (2, 8, [2, 4, 8]), (1, 300, [75, 300])],
                             ids=["1d", "2d", "dst"])
    @pytest.mark.parametrize("block_paths", [None, 3], ids=["default-blocks", "3-path-blocks"])
    def test_blocked_rows_equal_the_per_path_study(self, monkeypatch, dimension, modes,
                                                   truncations, block_paths):
        dom = make_domain(dimension, modes)
        noise = NoiseModel(dom, 0.5, 0.25, 23)
        n_paths, n_steps = 10, 12
        if block_paths is not None:
            # 10 paths in blocks of 3; the one-path tail joins the last block
            monkeypatch.setattr(noise_module, "MOMENT_BLOCK_BYTES",
                                block_paths * 8 * n_steps * max(truncations) ** dimension)
        rows = supnorm_moment_study(dom, noise, truncations, n_paths=n_paths, p=3.0,
                                    n_steps=n_steps, horizon=0.5)
        assert rows == self.per_path_reference(dom, noise, truncations, n_paths, 3.0,
                                               n_steps, 0.5)

    def test_moment_order_guard(self):
        dom = make_domain(1, 4)
        with pytest.raises(ConfigurationError):
            supnorm_moment_study(dom, NoiseModel(dom, 1.0, 0.25, 1), [2, 4], p=1.0)


class TestFactorization:
    def test_prefactor_limit(self):
        assert factorization_prefactor(0.5) == pytest.approx(1.0 / math.pi)

    def test_zero_noise_reconstruction(self):
        dom = make_domain(2, 3)
        noise = NoiseModel(dom, np.inf, 0.25, 1)
        y = sample_singular_process(dom, noise, 20, 1.0, (1, "wiener", 0))
        rec = factorization_reconstruct(dom, noise, y, 0.25)
        assert np.all(rec.mode_coeffs == 0.0)

    def test_alpha_domain_guard(self):
        dom = make_domain(1, 2)
        noise = NoiseModel(dom, 0.5, 0.25, 1)
        y = sample_singular_process(dom, noise, 8, 1.0, (1, "wiener", 0))
        with pytest.raises(ValueError):
            factorization_reconstruct(dom, noise, y, 0.6)

    def test_pathwise_agreement_rate(self):
        # same driving increments; the quadrature error should decay at the
        # kernel rate alpha = min(alpha, 1 - alpha) for alpha < 1/2
        dom = make_domain(1, 1)
        alpha = 0.25
        noise = NoiseModel(dom, 0.0, alpha, 5)
        errs = []
        for dt in (1e-2, 5e-3):
            n = int(round(1.0 / dt))
            y = sample_singular_process(dom, noise, n, 1.0, (5, "wiener", 0))
            rec = factorization_reconstruct(dom, noise, y, alpha)
            direct = sample_convolution(dom, noise, n, 1.0, (5, "wiener", 0))
            errs.append(np.max(np.abs(rec.mode_coeffs - direct.mode_coeffs)))
        predicted = 2.0 ** min(alpha, 1.0 - alpha)
        assert predicted / 2.0 <= errs[0] / errs[1] <= predicted * 2.0


class TestNoiseModelInvariants:
    def test_b_coeffs_exact(self):
        dom = make_domain(2, 4)
        noise = NoiseModel(dom, 0.7, 0.25, 1)
        assert np.array_equal(noise.b_coeffs, dom.eigenvalues ** -0.7)

    def test_parameter_guards(self):
        dom = make_domain(1, 4)
        with pytest.raises(ConfigurationError):
            NoiseModel(dom, -0.1, 0.25, 1)
        with pytest.raises(ConfigurationError):
            NoiseModel(dom, 0.5, 0.5, 1)
