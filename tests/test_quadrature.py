"""Sphere quadrature: closed-form moments, Monte Carlo cross-check, panel
helpers, the shared Gauss-Legendre rules, the bump profile, and the
resolution guard."""
import math

import numpy as np
import pytest

from helpers import run_bounded
from qres.currents.forms import bump
from qres.currents import quadrature
from qres.currents.quadrature import (MAX_ETA_ORDER, MAX_RAYS,
                                      build_quadrature,
                                      gauss_legendre, gauss_panels,
                                      geometric_edges, graded_eta_panels,
                                      phase_grid, sphere_integral)
from qres.errors import RuleTooLarge, TooCoarse

AREA = 2 * math.pi ** 2  # unit 3-sphere


def test_total_area():
    rule = build_quadrature(32, 64)
    got = sphere_integral(rule, lambda e, x1, x2: np.ones_like(e))
    assert abs(got - AREA) < 1e-10


def test_area_already_tight_at_modest_resolution():
    rule = build_quadrature(8, 16)
    got = sphere_integral(rule, lambda e, x1, x2: np.ones_like(e))
    assert abs(got - AREA) < 1e-12


def test_first_modulus_moment():
    # integral of |z1|^2 over the unit sphere is half the area
    rule = build_quadrature(32, 64)
    got = sphere_integral(rule, lambda e, x1, x2: np.cos(e) ** 2)
    assert abs(got - AREA / 2) < 1e-10


def test_odd_monomials_integrate_to_zero():
    rule = build_quadrature(32, 64)
    def mono(e, x1, x2):
        z1 = np.cos(e) * np.exp(1j * x1)
        z2 = np.sin(e) * np.exp(1j * x2)
        return z1 ** 2 * np.conj(z2)
    assert abs(sphere_integral(rule, mono)) < 1e-12


def test_matches_monte_carlo_on_mixed_moment():
    rule = build_quadrature(32, 64)
    def mixed(e, x1, x2):
        z1 = np.cos(e) * np.exp(1j * x1)
        z2 = np.sin(e) * np.exp(1j * x2)
        return (np.abs(z1) * np.abs(z2)) ** 2 + np.real(z1 * np.conj(z1)) ** 2
    got = sphere_integral(rule, mixed)

    rng = np.random.default_rng(1234)
    v = rng.normal(size=(400000, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    z1 = v[:, 0] + 1j * v[:, 1]
    z2 = v[:, 2] + 1j * v[:, 3]
    samples = (np.abs(z1) * np.abs(z2)) ** 2 + np.real(z1 * np.conj(z1)) ** 2
    mc = AREA * samples.mean()
    se = AREA * samples.std() / math.sqrt(len(samples))
    assert abs(got - mc) < 4 * se


def test_too_coarse_guard():
    with pytest.raises(TooCoarse):
        build_quadrature(3, 64)
    with pytest.raises(TooCoarse):
        build_quadrature(32, 4)


def test_eta_orders_beyond_the_bound_are_refused_before_their_nodes(
        monkeypatch):
    # numpy's leggauss costs O(n^3) time and O(n^2) memory: order 16384
    # fits the ray cap at n_xi = 8, so the order bound alone must stop it,
    # and before any node is computed
    orders = []
    real = quadrature.gauss_legendre
    monkeypatch.setattr(quadrature, "gauss_legendre",
                        lambda n: orders.append(n) or real(n))
    for n_eta in (16384, MAX_ETA_ORDER + 1):
        with pytest.raises(RuleTooLarge, match=f"at most {MAX_ETA_ORDER}"):
            build_quadrature(n_eta, 8)
    assert orders == []
    build_quadrature(64, 8)
    assert orders == [64]


@pytest.mark.parametrize("n_eta", [4096, 2])
def test_rules_beyond_the_ray_cap_are_refused_before_their_nodes(
        monkeypatch, n_eta):
    # 4096^2 phase rays per eta node: refused for its rays before the eta
    # order (4096) or the coarse rule (2) is looked at, and before any node
    def nodes(order):
        raise AssertionError("Gauss-Legendre nodes were computed")

    monkeypatch.setattr(quadrature, "gauss_legendre", nodes)
    with pytest.raises(RuleTooLarge, match=f"at most {MAX_RAYS} are"):
        build_quadrature(n_eta, 4096)


def test_rule_shape():
    rule = build_quadrature(10, 24)
    assert len(rule.eta_nodes) == 10
    assert rule.n_xi == 24
    xi, xi_w = phase_grid(rule.n_xi)
    assert len(xi) == 24
    assert xi_w == pytest.approx(2 * math.pi / 24)
    assert np.all(rule.eta_nodes > 0) and np.all(rule.eta_nodes < math.pi / 2)


def test_gauss_panels_integrate_polynomials_exactly():
    nodes, weights = gauss_panels([0.0, 0.4, 1.0], 6)
    got = (weights * nodes ** 3).sum()
    assert got == pytest.approx(0.25, abs=1e-14)
    got2 = (weights * nodes ** 7).sum()
    assert got2 == pytest.approx(1 / 8, abs=1e-14)


def test_gauss_panels_take_one_interval_per_entry():
    # array edges: one panel per entry, nodes down the leading axis; the
    # same nodes and weights as the panel of each entry alone
    a = np.array([0.1, 0.25, 0.5])
    b = np.array([0.2, 0.75, 0.5])
    nodes, weights = gauss_panels([a, b], 12)
    assert nodes.shape == weights.shape == (12, 3)
    for k in range(3):
        n_k, w_k = gauss_panels([a[k], b[k]], 12)
        assert np.array_equal(nodes[:, k], n_k)
        assert np.array_equal(weights[:, k], w_k)
    assert np.allclose((weights * nodes ** 5).sum(axis=0),
                       (b ** 6 - a ** 6) / 6, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("order", [4, 12, 24, 32])
def test_gauss_legendre_rule_is_shared_and_read_only(order):
    x, w = gauss_legendre(order)
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
    again = gauss_legendre(order)
    assert again[0] is x and again[1] is w
    for a in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def masked_bump(t):
    """The bump through a mask of |t| < 1, as it was first written."""
    out = np.zeros(t.shape)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def test_bump_is_bit_identical_to_the_masked_formula():
    one = 1.0
    edges = [0.0, one, np.nextafter(one, 0.0), np.nextafter(one, 2.0),
             np.inf, np.nan]
    special = np.array(edges + [-e for e in edges])
    rng = np.random.default_rng(23)
    t = np.concatenate([special, rng.normal(scale=0.7, size=20_000),
                        rng.uniform(-1.0, 1.0, 20_000)])
    got = bump(t)
    assert got.tobytes() == masked_bump(t).tobytes()
    # just inside 1 the exponent is about -2^52
    assert got[:len(special)].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0] * 2
    # a scalar in, a float out
    assert isinstance(bump(0.5), float)
    assert bump(0.5) == masked_bump(np.array([0.5]))[0]


def test_geometric_edges_cover_interval():
    edges = geometric_edges(0.01, 1.0, 0.01)
    assert edges[0] == pytest.approx(0.01)
    assert edges[-1] == pytest.approx(1.0)
    assert all(b > a for a, b in zip(edges, edges[1:]))
    steps = np.diff(edges)
    assert all(s2 >= s1 * 0.99 for s1, s2 in zip(steps, steps[1:]))


def test_graded_eta_panels_resolve_both_poles():
    nodes, weights = graded_eta_panels(0.05, 1.0)
    assert weights.sum() == pytest.approx(math.pi / 2, abs=1e-12)
    assert np.all(nodes > 0) and np.all(nodes < math.pi / 2)
    # the refinement scale is proportional to eps: there must be nodes
    # within it at both ends
    delta = (math.pi / 2) * min(0.05, 0.2 * 0.05)
    assert nodes.min() < delta
    assert nodes.max() > math.pi / 2 - delta


def test_graded_eta_panels_integrate_area_exactly():
    nodes, weights = graded_eta_panels(0.1, 1.0)
    got = (weights * np.sin(nodes) * np.cos(nodes)).sum() * (2 * math.pi) ** 2
    assert got == pytest.approx(AREA, rel=1e-12)


@pytest.mark.parametrize("call", [
    "geometric_edges(1.0, 2.0, 0.0)",
    "graded_eta_panels(0.0, 1.0)",
    # positive eps, but 0.2 * eps / support underflows
    "graded_eta_panels(1e-310, 1e15)",
])
def test_panel_helpers_refuse_a_first_width_that_is_not_positive(call):
    # a zero first width never grows: the helpers once doubled it forever,
    # appending an edge per step
    res = run_bounded(["-c", "from qres.currents.quadrature import *; "
                       + call])
    assert res.returncode == 1
    assert res.stderr.splitlines()[-1].endswith("is not positive")
