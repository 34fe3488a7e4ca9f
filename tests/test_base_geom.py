"""Classical geometry anchors: Schwarzschild/Reissner-Nordstrom closed forms,
Riemann symmetries, Bianchi identities, Maxwell residuals, stress-energy."""

import math

import numpy as np
import pytest

from tbgrav import base_geom as bg
from tbgrav.jets import Jet, jet_values
from tbgrav.spacetime import catalog, metric_jet, metric_values, potential_jet

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
    gam = bg.christoffel(MINK, X_FLAT)
    assert np.max(np.abs(jet_values(gam))) == 0.0


def test_christoffel_schwarzschild_closed_form():
    gam = bg.christoffel(SCHW, X_SCHW)
    # gamma^r_tt = (M/r^2)(1 - 2M/r)
    assert gam[1, 0, 0].value == pytest.approx(0.008, rel=1e-12)
    # gamma^r_rr = -M/(r^2 f), gamma^th_{r th} = 1/r
    assert gam[1, 1, 1].value == pytest.approx(-0.01 / 0.8, rel=1e-12)
    assert gam[2, 1, 2].value == pytest.approx(0.1, rel=1e-12)


def test_christoffel_symmetry_random_model():
    rng = np.random.default_rng(3)
    for x in _chart_points(RN, rng, 3):
        gam = bg.christoffel(RN, x)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert gam[i, j, k].value == gam[i, k, j].value


def test_riemann_ricci_minkowski_zero():
    assert np.max(np.abs(jet_values(bg.riemann(MINK, X_FLAT)))) == 0.0
    assert np.max(np.abs(jet_values(bg.ricci(MINK, X_FLAT)))) == 0.0


def test_schwarzschild_vacuum():
    assert np.max(np.abs(jet_values(bg.ricci(SCHW, X_SCHW)))) <= 1e-10
    assert abs(bg.ricci_scalar(SCHW, X_SCHW)) <= 1e-10


def test_rn_trace_free_source():
    assert abs(bg.ricci_scalar(RN, X_RN)) <= 1e-10
    assert np.max(np.abs(jet_values(bg.ricci(RN, X_RN)))) > 1e-4


def test_riemann_symmetries_and_first_bianchi():
    rng = np.random.default_rng(5)
    for model in (SCHW, RN, catalog("weak_field", {"M": 1.0})):
        for x in _chart_points(model, rng, 10):
            g = jet_values(metric_jet(model, x, order=2))
            riem_mixed = jet_values(bg.riemann(model, x))
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
            div = bg.covariant_divergence(model, x, bg.einstein_upper_field, order=3)
            assert np.max(np.abs(div)) <= 1e-8


def test_faraday_uniform_field():
    f_low, f_mix = bg.faraday(UNI, X_FLAT)
    fl = jet_values(f_low)
    assert fl[0, 1] == pytest.approx(0.1)
    assert fl[1, 0] == pytest.approx(-0.1)
    assert np.max(np.abs(fl)) == pytest.approx(0.1)
    assert jet_values(f_mix)[1, 0] == pytest.approx(0.1)


def test_faraday_rn():
    f_low, _ = bg.faraday(RN, X_RN)
    assert f_low[0, 1].value == pytest.approx(0.3 / 25.0, rel=1e-12)


def test_faraday_zero_potential():
    f_low, f_mix = bg.faraday(SCHW, X_SCHW)
    assert np.max(np.abs(jet_values(f_low))) == 0.0
    assert np.max(np.abs(jet_values(f_mix))) == 0.0


def test_faraday_antisymmetric_exactly():
    fl = jet_values(bg.faraday(RN, X_RN)[0])
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
    t = bg.em_stress_energy(SCHW, X_SCHW)
    assert np.max(np.abs(jet_values(t))) == 0.0


def test_stress_energy_trace_free():
    rng = np.random.default_rng(9)
    for x in _chart_points(RN, rng, 5):
        t = jet_values(bg.em_stress_energy(RN, x))
        ginv = np.linalg.inv(metric_values(RN, x))
        assert abs(np.einsum("ij,ij->", ginv, t)) <= 1e-11


def test_stress_energy_rn_closed_form():
    # independent closed-form oracle: T^f_00 = f Q^2 / (8 pi r^4)
    q, r = 0.3, 5.0
    f = 1 - 2 / r + q**2 / r**2
    t = bg.em_stress_energy(RN, X_RN)
    assert t[0, 0].value == pytest.approx(f * q**2 / (8 * math.pi * r**4), rel=1e-12)


def test_cem_minkowski_zero():
    assert np.max(np.abs(jet_values(bg.classical_einstein_maxwell(MINK, X_FLAT)))) == 0.0


def test_cem_rn_electrovacuum():
    rng = np.random.default_rng(12)
    for x in _chart_points(RN, rng, 5):
        cem = jet_values(bg.classical_einstein_maxwell(RN, x))
        assert np.max(np.abs(cem)) <= 1e-9


def test_cem_schwarzschild_reduces_to_einstein():
    cem = jet_values(bg.classical_einstein_maxwell(SCHW, X_SCHW))
    assert np.max(np.abs(cem)) <= 1e-9


def test_geometry_functions_return_jet_arrays():
    # bare object arrays of jets, 4 along every axis; symmetric tensors share
    # one jet between mirrored entries, so they are symmetric by construction
    arrays = {
        "metric_jet": metric_jet(RN, X_RN, order=1),
        "potential_jet": potential_jet(RN, X_RN, order=1),
        "christoffel": bg.christoffel(RN, X_RN),
        "riemann": bg.riemann(RN, X_RN),
        "ricci": bg.ricci(RN, X_RN),
        "faraday_low": bg.faraday(RN, X_RN)[0],
        "faraday_mixed": bg.faraday(RN, X_RN)[1],
        "em_stress_energy": bg.em_stress_energy(RN, X_RN),
        "classical_einstein_maxwell": bg.classical_einstein_maxwell(RN, X_RN),
    }
    for name, arr in arrays.items():
        assert isinstance(arr, np.ndarray) and arr.dtype == object, name
        assert arr.ndim >= 1 and all(n == 4 for n in arr.shape), name
        assert all(isinstance(jet, Jet) for jet in arr.flat), name
    for name in ("metric_jet", "em_stress_energy", "classical_einstein_maxwell"):
        a = arrays[name]
        assert all(a[i, j] is a[j, i] for i in range(4) for j in range(4)), name
    gam = arrays["christoffel"]
    assert all(gam[i, j, k] is gam[i, k, j] for i, j, k in np.ndindex(4, 4, 4))


def test_divergence_of_inverse_metric_vanishes():
    div = bg.covariant_divergence(SCHW, X_SCHW, bg.inverse_metric_field, order=2)
    assert np.max(np.abs(div)) <= 1e-12


def test_divergence_of_em_stress_on_rn():
    rng = np.random.default_rng(13)
    for x in _chart_points(RN, rng, 3):
        div = bg.covariant_divergence(RN, x, bg.em_stress_upper_field, order=3)
        assert np.max(np.abs(div)) <= 1e-8


def test_divergence_of_cem_on_rn():
    div = bg.covariant_divergence(RN, X_RN, bg.cem_upper_field, order=3)
    assert np.max(np.abs(div)) <= 1e-8


def test_divergence_rejects_bad_handle():
    with pytest.raises(Exception):
        bg.covariant_divergence(SCHW, X_SCHW, lambda m, x, o: np.zeros((4, 4)), order=2)


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
