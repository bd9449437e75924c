import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from spdecontrol.errors import ConfigurationError
from spdecontrol.nonlinearity import (_CATALOG, ControlSpace, NemytskiiDrift, bistable_drift,
                                      cubic_drift, drift_from_config, linear_drift)

ROOT = Path(__file__).resolve().parents[1]


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


    @pytest.mark.parametrize("kind", sorted(_CATALOG))
    def test_every_traced_drift_callable_is_set(self, kind):
        # perfbench/tracer.py wraps these fields of each built problem's drift by name, and
        # the benchmark expects a per-layer metric for each; read from its source unimported
        tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
        names = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets] == ["DRIFT_CALLABLES"])
        fields = {f.name for f in dataclasses.fields(NemytskiiDrift)}
        drift = _CATALOG[kind]()
        assert names and all(name in fields and callable(getattr(drift, name)) for name in names)


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
