import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdecontrol.errors import ConfigurationError, NumericError
from spdecontrol.nonlinearity import (ControlSpace, NemytskiiDrift, apply_drift,
                                      apply_drift_jacobian, bistable_drift, cubic_drift,
                                      drift_from_config, linear_drift, yosida_drift,
                                      yosida_resolvent)

ZERO_DRIFT = NemytskiiDrift(
    f=lambda s, u: np.zeros_like(np.asarray(s, dtype=float)),
    f_prime=lambda s, u: np.zeros_like(np.asarray(s, dtype=float)),
    growth_degree=0, growth_const=1.0,
    dissipativity_bound=0.0, quasi_dissipativity_shift=1.0, name="zero")


def bisect_root(g, lo, hi, tol=1e-13):
    """Plain bisection; the independent root oracle for the resolvent tests."""
    assert g(lo) <= 0.0 <= g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestApplyDrift:
    def test_cubic_values(self):
        drift = cubic_drift(a=1.0, b=1.0)
        assert np.all(apply_drift(drift, np.zeros(5), 0.0) == 0.0)
        assert np.all(apply_drift(drift, np.ones(5), 0.0) == 0.0)
        assert np.all(apply_drift(drift, np.full(5, 2.0), 1.0) == -5.0)

    def test_nonfinite_carries_index(self):
        drift = cubic_drift()
        bad = np.zeros(4)
        bad[2] = np.nan
        with pytest.raises(NumericError) as err:
            apply_drift(drift, bad, 0.0)
        assert err.value.index == (2,)

    def test_jacobian_multiplier(self):
        drift = cubic_drift(a=1.0, b=1.0)
        direction = np.array([1.0, -2.0, 0.5])
        out = apply_drift_jacobian(drift, np.zeros(3), 0.0, direction)
        assert np.allclose(out, direction)          # f'(0) = 1
        out = apply_drift_jacobian(drift, np.ones(3), 0.0, direction)
        assert np.allclose(out, -2.0 * direction)   # f'(1) = -2
        assert np.all(apply_drift_jacobian(drift, np.ones(3), 0.0, np.zeros(3)) == 0.0)


class TestDriftCatalog:
    @pytest.mark.parametrize("drift", [cubic_drift(), linear_drift(), bistable_drift()])
    def test_growth_and_dissipativity_spot_checks(self, drift):
        sigmas = np.linspace(-3.0, 3.0, 41)
        for u in (-1.0, 0.0, 1.0):
            f = np.abs(drift.f(sigmas, u))
            fp = drift.f_prime(sigmas, u)
            bound = drift.growth_const * (1.0 + np.abs(sigmas) ** drift.growth_degree)
            assert np.all(f + np.abs(fp) <= bound)
            assert np.all(fp <= drift.dissipativity_bound + 1e-12)

    @pytest.mark.parametrize("drift", [cubic_drift(), bistable_drift()])
    def test_derivative_by_finite_differences(self, drift):
        sigmas = np.array([-1.7, -0.3, 0.0, 0.4, 2.1])
        errs = []
        for h in (1e-3, 5e-4):
            fd = (drift.f(sigmas + h, 0.3) - drift.f(sigmas - h, 0.3)) / (2 * h)
            errs.append(np.max(np.abs(fd - drift.f_prime(sigmas, 0.3))))
        assert errs[0] < 1e-4
        assert errs[1] < errs[0] / 3.0   # O(h^2) central differences

    @pytest.mark.parametrize("drift", [cubic_drift(), bistable_drift()])
    def test_cube_by_multiplication_matches_power(self, drift):
        # both drifts cube as s * s * s and have linear part s at u = 0;
        # removing it leaves -s**3 to rounding (|s| >= 1.5 keeps that
        # subtraction from cancelling)
        rng = np.random.default_rng(17)
        s = rng.choice([-1.0, 1.0], (200, 64)) * rng.uniform(1.5, 25.0, (200, 64))
        assert np.any(s < 0) and np.any(np.abs(s) > 10)
        np.testing.assert_allclose(drift.f(s, 0.0) - s, -s**3, rtol=1e-15, atol=0)

    def test_quasi_dissipativity_inner_product(self):
        drift = cubic_drift()
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(64)
            h = rng.standard_normal(64)
            lhs = float(np.sum(drift.f_prime(x, 0.5) * h * h))
            assert lhs <= drift.dissipativity_bound * float(np.sum(h * h)) + 1e-12

    def test_jacobian_growth_bound(self):
        drift = bistable_drift()
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = 3.0 * rng.standard_normal(32)
            sup = np.max(np.abs(drift.f_prime(x, 0.0)))
            assert sup <= drift.growth_const * (1.0 + np.max(np.abs(x)) ** drift.growth_degree)

    def test_config_lookup(self):
        drift = drift_from_config({"kind": "cubic", "a": 2.0, "b": 0.5})
        assert drift.dissipativity_bound == 2.0
        with pytest.raises(ConfigurationError):
            drift_from_config({"kind": "nope"})


class TestYosida:
    def test_cubic_fixed_point(self):
        # oracle: bisection of r -> 0.1 r^3 + 0.9 r - 1 on [0, 2] gives r = 1
        drift = cubic_drift(a=1.0, b=1.0)
        oracle = bisect_root(lambda r: 0.1 * r**3 + 0.9 * r - 1.0, 0.0, 2.0)
        assert oracle == pytest.approx(1.0, abs=1e-12)
        assert yosida_resolvent(drift, 0.1, 1.0, 0.0) == pytest.approx(oracle, abs=1e-12)

    def test_zero_drift_identity(self):
        for sigma in (-2.0, 0.0, 3.7):
            assert yosida_resolvent(ZERO_DRIFT, 0.5, sigma, 0.0) == pytest.approx(sigma, abs=1e-12)
            assert yosida_drift(ZERO_DRIFT, 0.5, sigma, 0.0) == 0.0

    def test_linear_solve(self):
        assert yosida_resolvent(linear_drift(), 0.5, 3.0, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_alpha_beta_guard(self):
        with pytest.raises(ConfigurationError):
            yosida_resolvent(bistable_drift(), 1.5, 0.0, 0.0)   # beta = 1

    def test_drift_value_at_fixed_point(self):
        drift = cubic_drift(a=1.0, b=1.0)
        assert yosida_drift(drift, 0.1, 1.0, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_uniform_convergence_on_compacts(self):
        drift = cubic_drift(a=1.0, b=1.0)
        sigmas = np.linspace(-2.0, 2.0, 81)
        sups = []
        for alpha in (0.1, 0.05, 0.025):
            vals = np.array([yosida_drift(drift, alpha, s, 0.0) for s in sigmas])
            sups.append(np.max(np.abs(vals - drift.f(sigmas, 0.0))))
        assert sups[0] > sups[1] > sups[2]

    @settings(max_examples=30, deadline=None)
    @given(s1=st.floats(-3.0, 3.0), s2=st.floats(-3.0, 3.0),
           alpha=st.floats(0.01, 0.9))
    def test_resolvent_nonexpansive_when_decreasing(self, s1, s2, alpha):
        drift = cubic_drift(a=0.0, b=0.0)   # beta = 0
        r1 = yosida_resolvent(drift, alpha, s1, 0.0)
        r2 = yosida_resolvent(drift, alpha, s2, 0.0)
        assert abs(r1 - r2) <= abs(s1 - s2) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(sigma=st.floats(-4.0, 4.0), alpha=st.floats(0.01, 0.4))
    def test_resolvent_residual(self, sigma, alpha):
        drift = bistable_drift()
        r = yosida_resolvent(drift, alpha, sigma, 0.2)
        assert abs(r - alpha * drift.f(r, 0.2) - sigma) < 1e-10


class TestControlSpace:
    def test_interval_sampling_inside(self):
        space = ControlSpace(kind="interval", lower=-1.0, upper=1.0)
        vals = space.sample(21)
        assert vals.size == 21
        assert np.all((vals >= -1.0) & (vals <= 1.0))
        assert space.contains(0.3) and not space.contains(1.5)

    def test_finite_set(self):
        space = ControlSpace(kind="finite_set", elements=np.array([-1.0, 0.0, 2.0]))
        vals = space.sample(5)
        assert all(space.contains(v) for v in vals)
        assert space.project(1.2) == 2.0

    def test_projection_clips(self):
        space = ControlSpace(kind="interval", lower=-1.0, upper=1.0)
        assert np.all(space.project(np.array([-3.0, 0.2, 9.0])) == [-1.0, 0.2, 1.0])
