"""Classical geometry anchors: Schwarzschild/Reissner-Nordstrom closed forms,
Riemann symmetries, Bianchi identities, Maxwell residuals, stress-energy."""

import math

import numpy as np
import pytest

from tbgrav import base_geom as bg
from tbgrav import verify
from tbgrav.base_geom import BaseGeometry
from tbgrav.errors import UsageError
from tbgrav.jet_arrays import JetArray
from tbgrav.jets import MAX_ORDER, Jet
from tbgrav.spacetime import CATALOG_NAMES, catalog, metric_jet, metric_values, potential_jet

SCHW = catalog("schwarzschild", {"M": 1.0})
RN = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
MINK = catalog("minkowski")
UNI = catalog("uniform_field", {"E0": 0.1})
X_SCHW = [0.0, 10.0, math.pi / 2, 0.3]
X_RN = [0.0, 5.0, math.pi / 2, 0.3]
X_FLAT = [0.0, 2.0, -1.0, 0.5]


def _chart_points(model, rng, n):
    pts = []
    for _ in range(n):
        if model.coords[1] == "r":
            pts.append([rng.uniform(-1, 1), rng.uniform(4, 20), rng.uniform(0.4, 2.7), rng.uniform(0, 6.2)])
        else:
            v = rng.uniform(-1, 1, size=4)
            if model.name == "weak_field":
                v[1:] = rng.uniform(3, 8, size=3)
            pts.append(v.tolist())
    return pts


def test_christoffel_minkowski_zero():
    gam = BaseGeometry(MINK, X_FLAT, 2).gamma
    assert np.max(np.abs(gam.values)) == 0.0


def test_christoffel_schwarzschild_closed_form():
    gam = BaseGeometry(SCHW, X_SCHW, 2).gamma
    # gamma^r_tt = (M/r^2)(1 - 2M/r)
    assert gam[1, 0, 0].values[0] == pytest.approx(0.008, rel=1e-12)
    # gamma^r_rr = -M/(r^2 f), gamma^th_{r th} = 1/r
    assert gam[1, 1, 1].values[0] == pytest.approx(-0.01 / 0.8, rel=1e-12)
    assert gam[2, 1, 2].values[0] == pytest.approx(0.1, rel=1e-12)


def test_christoffel_symmetry_random_model():
    rng = np.random.default_rng(3)
    for x in _chart_points(RN, rng, 3):
        gam = BaseGeometry(RN, x, 2).gamma
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert gam[i, j, k].values[0] == gam[i, k, j].values[0]


def test_riemann_ricci_minkowski_zero():
    geo = BaseGeometry(MINK, X_FLAT, 2)
    assert np.max(np.abs(geo.riemann.values)) == 0.0
    assert np.max(np.abs(geo.ricci.values)) == 0.0


def test_schwarzschild_vacuum():
    geo = BaseGeometry(SCHW, X_SCHW, 2)
    assert np.max(np.abs(geo.ricci.values)) <= 1e-10
    assert abs(geo.ricci_scalar) <= 1e-10


def test_rn_trace_free_source():
    geo = BaseGeometry(RN, X_RN, 2)
    assert abs(geo.ricci_scalar) <= 1e-10
    assert np.max(np.abs(geo.ricci.values)) > 1e-4


def test_riemann_symmetries_and_first_bianchi():
    rng = np.random.default_rng(5)
    for model in (SCHW, RN, catalog("weak_field", {"M": 1.0})):
        for x in _chart_points(model, rng, 10):
            geo = BaseGeometry(model, x, 2)
            g, riem_mixed = geo.g.values[0], geo.riemann.values[0]
            rlow = np.einsum("im,mjkl->ijkl", g, riem_mixed)
            scale = np.max(np.abs(rlow)) + 1.0
            assert np.max(np.abs(rlow + np.swapaxes(rlow, 0, 1))) <= 1e-10 * scale
            assert np.max(np.abs(rlow + np.swapaxes(rlow, 2, 3))) <= 1e-10 * scale
            assert np.max(np.abs(rlow - np.transpose(rlow, (2, 3, 0, 1)))) <= 1e-10 * scale
            cyclic = rlow + np.transpose(rlow, (0, 2, 3, 1)) + np.transpose(rlow, (0, 3, 1, 2))
            assert np.max(np.abs(cyclic)) <= 1e-10 * scale


def test_contracted_bianchi():
    rng = np.random.default_rng(8)
    for model in (SCHW, RN):
        for x in _chart_points(model, rng, 3):
            geo = BaseGeometry(model, x, 3)
            div = bg.covariant_divergence(geo, bg.raise_both_indices(geo.einstein, geo.ginv))
            assert np.max(np.abs(div)) <= 1e-8


def test_faraday_uniform_field():
    f_low, f_mix = BaseGeometry(UNI, X_FLAT, 2).faraday
    fl = f_low.values[0]
    assert fl[0, 1] == pytest.approx(0.1)
    assert fl[1, 0] == pytest.approx(-0.1)
    assert np.max(np.abs(fl)) == pytest.approx(0.1)
    assert f_mix.values[0, 1, 0] == pytest.approx(0.1)


def test_faraday_rn():
    f_low, _ = BaseGeometry(RN, X_RN, 2).faraday
    assert f_low[0, 1].values[0] == pytest.approx(0.3 / 25.0, rel=1e-12)


def test_faraday_zero_potential():
    f_low, f_mix = BaseGeometry(SCHW, X_SCHW, 2).faraday
    assert np.max(np.abs(f_low.values)) == 0.0
    assert np.max(np.abs(f_mix.values)) == 0.0


def test_faraday_antisymmetric_exactly():
    fl = BaseGeometry(RN, X_RN, 2).faraday[0].values[0]
    assert np.array_equal(fl, -fl.T)


@pytest.mark.parametrize("model,x", [(MINK, X_FLAT), (UNI, X_FLAT), (SCHW, X_SCHW), (RN, X_RN)])
def test_maxwell_homogeneous_identity(model, x):
    h = bg.maxwell_cyclic_residual(model, x)
    assert np.max(np.abs(h)) <= 1e-11


def test_maxwell_source_free_models():
    j_rn = bg.maxwell_current(RN, X_RN)
    assert np.max(np.abs(j_rn)) <= 1e-10
    j_uni = bg.maxwell_current(UNI, X_FLAT)
    assert np.max(np.abs(j_uni)) <= 1e-12


def test_maxwell_current_builds_no_christoffel(monkeypatch):
    # J uses the densitized form; only the cyclic residual needs gamma
    def forbidden(*args, **kwargs):
        raise AssertionError("christoffel_jets called")

    monkeypatch.setattr(bg, "christoffel_jets", forbidden)
    assert np.max(np.abs(bg.maxwell_current(RN, X_RN))) <= 1e-10
    with pytest.raises(AssertionError, match="christoffel_jets"):
        bg.maxwell_cyclic_residual(RN, X_RN)


def test_stress_energy_zero_potential():
    t = BaseGeometry(SCHW, X_SCHW, 1).em_stress
    assert np.max(np.abs(t.values)) == 0.0


def test_stress_energy_trace_free():
    rng = np.random.default_rng(9)
    for x in _chart_points(RN, rng, 5):
        t = BaseGeometry(RN, x, 1).em_stress.values[0]
        ginv = np.linalg.inv(metric_values(RN, x))
        assert abs(np.einsum("ij,ij->", ginv, t)) <= 1e-11


def test_stress_energy_rn_closed_form():
    # independent closed-form oracle: T^f_00 = f Q^2 / (8 pi r^4)
    q, r = 0.3, 5.0
    f = 1 - 2 / r + q**2 / r**2
    t = BaseGeometry(RN, X_RN, 1).em_stress
    assert t[0, 0].values[0] == pytest.approx(f * q**2 / (8 * math.pi * r**4), rel=1e-12)


def test_cem_minkowski_zero():
    assert np.max(np.abs(BaseGeometry(MINK, X_FLAT, 2).einstein_maxwell.values)) == 0.0


def test_cem_rn_electrovacuum():
    rng = np.random.default_rng(12)
    for x in _chart_points(RN, rng, 5):
        cem = BaseGeometry(RN, x, 2).einstein_maxwell.values
        assert np.max(np.abs(cem)) <= 1e-9


def test_cem_schwarzschild_reduces_to_einstein():
    cem = BaseGeometry(SCHW, X_SCHW, 2).einstein_maxwell.values
    assert np.max(np.abs(cem)) <= 1e-9


def test_geometry_functions_return_jet_arrays():
    # one jet array each, 4 along every axis; mirrored entries of a symmetric
    # tensor hold the same bytes, so it is symmetric by construction
    geo = BaseGeometry(RN, X_RN, 2)
    arrays = {
        "metric_jet": metric_jet(RN, X_RN, order=1),
        "potential_jet": potential_jet(RN, X_RN, order=1),
        "ginv": geo.ginv,
        "gamma": geo.gamma,
        "riemann": geo.riemann,
        "ricci": geo.ricci,
        "faraday_low": geo.faraday[0],
        "faraday_mixed": geo.faraday[1],
        "em_stress": geo.em_stress,
        "einstein": geo.einstein,
        "einstein_maxwell": geo.einstein_maxwell,
    }
    for name, arr in arrays.items():
        assert isinstance(arr, JetArray), name
        assert arr.ndim >= 1 and all(n == 4 for n in arr.shape), name
        assert all(isinstance(jet, Jet) for jet in arr.flat), name
    for name in ("metric_jet", "em_stress", "einstein", "einstein_maxwell"):
        a = arrays[name]
        assert all(a[i, j].c.tobytes() == a[j, i].c.tobytes() for i in range(4) for j in range(4)), name
    gam = arrays["gamma"]
    assert all(gam[i, j, k].c.tobytes() == gam[i, k, j].c.tobytes() for i, j, k in np.ndindex(4, 4, 4))


CATALOG_PARAMS = {"uniform_field": {"E0": 0.1}, "schwarzschild": {"M": 1.0},
                  "reissner_nordstrom": {"M": 1.0, "Q": 0.3}, "weak_field": {"M": 1.0}}
# (object, lowest carrier order that holds it)
BASE_OBJECTS = (("g", 0), ("ginv", 0), ("a_pot", 0), ("gamma", 1), ("faraday", 1), ("em_stress", 1),
                ("riemann", 2), ("ricci", 2), ("ricci_scalar", 2), ("einstein", 2), ("einstein_maxwell", 2))


def _value_bytes(geo, attr):
    value = getattr(geo, attr)
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, tuple):
        return b"".join(v.values.tobytes() for v in value)
    return value.values.tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_base_values_independent_of_carrier_order(name):
    """Callers build a BaseGeometry at the lowest carrier order they read, and
    the bundle reads it at MAX_ORDER: every order that holds an object gives
    the MAX_ORDER bytes (the sign of every zero as well)."""
    model = catalog(name, CATALOG_PARAMS.get(name))
    rng = np.random.default_rng(33)
    for x in verify.sample_points(model, rng, 3):
        full = BaseGeometry(model, x, MAX_ORDER)
        for order in range(MAX_ORDER):
            geo = BaseGeometry(model, x, order)
            for attr, lowest in BASE_OBJECTS:
                if order >= lowest:
                    assert _value_bytes(geo, attr) == _value_bytes(full, attr), (attr, order)


def test_divergence_of_inverse_metric_vanishes():
    geo = BaseGeometry(SCHW, X_SCHW, 2)
    div = bg.covariant_divergence(geo, geo.ginv)
    assert np.max(np.abs(div)) <= 1e-12


def test_divergence_of_em_stress_on_rn():
    rng = np.random.default_rng(13)
    for x in _chart_points(RN, rng, 3):
        geo = BaseGeometry(RN, x, 3)
        div = bg.covariant_divergence(geo, bg.raise_both_indices(geo.em_stress, geo.ginv))
        assert np.max(np.abs(div)) <= 1e-8


def test_divergence_of_cem_on_rn():
    geo = BaseGeometry(RN, X_RN, 3)
    div = bg.covariant_divergence(geo, bg.raise_both_indices(geo.einstein_maxwell, geo.ginv))
    assert np.max(np.abs(div)) <= 1e-8


def test_divergence_rejects_bad_handle():
    geo = BaseGeometry(SCHW, X_SCHW, 2)
    with pytest.raises(UsageError, match="4x4 array of jets"):
        bg.covariant_divergence(geo, np.zeros((4, 4)))
    geo = BaseGeometry(SCHW, X_SCHW, 0)
    with pytest.raises(UsageError, match="derivative level"):
        bg.covariant_divergence(geo, geo.ginv)


def test_lorentz_rhs_neutral_flat():
    a = bg.classical_lorentz_rhs(MINK, X_FLAT, [1, 0, 0, 0], 0.0)
    assert np.max(np.abs(a)) == 0.0


def test_lorentz_rhs_uniform_field():
    a = bg.classical_lorentz_rhs(UNI, X_FLAT, [1, 0, 0, 0], 1.0)
    assert a[1] == pytest.approx(0.1)
    assert np.max(np.abs(np.delete(a, 1))) <= 1e-15


def test_lorentz_force_orthogonal_to_velocity():
    rng = np.random.default_rng(17)
    g = np.diag([1.0, -1.0, -1.0, -1.0])
    for _ in range(5):
        y = np.array([rng.uniform(1.5, 2.5), *rng.uniform(-0.5, 0.5, size=3)])
        a = bg.classical_lorentz_rhs(UNI, X_FLAT, y, 0.7)  # flat: pure Lorentz force
        assert abs(a @ g @ y) <= 1e-14
