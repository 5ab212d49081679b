"""Symbolic polynomials/rationals: evaluation homomorphisms, derivative
oracles by finite differences, and exact structure."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_crat, rand_point, rand_poly, rand_quat, seeded
from qres.errors import PoleError
from qres.qcore import CRat, Quat
from qres.symfun import (ConjPoly, ConjRational, QFunction, numeric_jet,
                         poly_vanishing_order, vanishing_order,
                         vanishing_order_pair)

Z1, C1, Z2, C2 = (ConjPoly.var(v) for v in ("z1", "c1", "z2", "c2"))


def wirtinger_fd(fn, z1, z2, var, h=1e-5):
    """Central finite-difference Wirtinger derivative, independent of the
    package's own jet code."""
    if var in ("z1", "c1"):
        fx = (fn(z1 + h, z2) - fn(z1 - h, z2)) / (2 * h)
        fy = (fn(z1 + 1j * h, z2) - fn(z1 - 1j * h, z2)) / (2 * h)
    else:
        fx = (fn(z1, z2 + h) - fn(z1, z2 - h)) / (2 * h)
        fy = (fn(z1, z2 + 1j * h) - fn(z1, z2 - 1j * h)) / (2 * h)
    sign = -1j if var.startswith("z") else 1j
    return 0.5 * (fx + sign * fy)


def test_eval_exact_matches_manual_substitution():
    p = Z1 ** 2 * C2 - Z2 * CRat(Fraction(0), Fraction(3)) + ConjPoly.const(CRat(5))
    z1 = CRat(Fraction(1), Fraction(2))
    z2 = CRat(Fraction(-1), Fraction(1))
    want = (complex(z1) ** 2 * complex(z2).conjugate()
            - 3j * complex(z2) + 5)
    got = complex(p.eval_exact(z1, z2))
    assert got == pytest.approx(want, abs=1e-12)


def test_conjugate_variable_tracks_point_conjugate():
    rng = seeded(10)
    for _ in range(20):
        p = rand_poly(rng)
        z1, z2 = rand_crat(rng), rand_crat(rng)
        direct = p.eval_exact(z1, z2)
        swapped = p.conjugate().eval_exact(z1, z2)
        assert swapped == direct.conjugate()


def test_conjugate_is_an_involution_and_ring_map():
    rng = seeded(11)
    for _ in range(10):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@settings(max_examples=30, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_ring_distributivity(ca, cb, cc):
    a = Z1 * CRat(Fraction(ca)) + C2 ** 2
    b = Z2 * CRat(Fraction(cb)) + ConjPoly.const(CRat(1))
    c = C1 * CRat(Fraction(cc)) + Z1 * Z2
    assert a * (b + c) == a * b + a * c


def test_wirtinger_against_finite_differences():
    rng = seeded(12)
    for _ in range(12):
        p = rand_poly(rng, deg=3, n_terms=4)
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        fn = lambda a, b: complex(p.eval_numeric(a, b))
        for var in ("z1", "c1", "z2", "c2"):
            sym = complex(p.wirtinger(var).eval_numeric(z1, z2))
            fd = wirtinger_fd(fn, z1, z2, var)
            assert sym == pytest.approx(fd, rel=2e-5, abs=2e-5)


def test_wirtinger_commutes_with_conjugation():
    rng = seeded(13)
    for _ in range(10):
        p = rand_poly(rng)
        lhs = p.wirtinger("z1").conjugate()
        rhs = p.conjugate().wirtinger("c1")
        assert lhs == rhs
        lhs2 = p.wirtinger("c2").conjugate()
        rhs2 = p.conjugate().wirtinger("z2")
        assert lhs2 == rhs2


def test_shifted_recenters_evaluation():
    rng = seeded(14)
    for _ in range(10):
        p = rand_poly(rng)
        a, b = rand_crat(rng, 3), rand_crat(rng, 3)
        z1, z2 = rand_crat(rng, 3), rand_crat(rng, 3)
        assert p.shifted(a, b).eval_exact(z1, z2) == p.eval_exact(z1 + a, z2 + b)


def test_numeric_jet_matches_symbolic_derivatives():
    rng = seeded(15)
    f = QFunction.from_polys(rand_poly(rng, 3, 4), rand_poly(rng, 3, 4))
    for _ in range(8):
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        jet = numeric_jet(f.eval_numeric, z1, z2)
        for var in ("z1", "c1", "z2", "c2"):
            want1 = complex(f.f1.wirtinger(var).eval_numeric(z1, z2))
            want2 = complex(f.f2.wirtinger(var).eval_numeric(z1, z2))
            assert jet.partial(1, var) == pytest.approx(want1, rel=1e-7, abs=1e-7)
            assert jet.partial(2, var) == pytest.approx(want2, rel=1e-7, abs=1e-7)


def test_qfunction_product_is_pointwise_quaternion_product():
    rng = seeded(16)
    for _ in range(15):
        f = QFunction.from_polys(rand_poly(rng), rand_poly(rng))
        g = QFunction.from_polys(rand_poly(rng), rand_poly(rng))
        q = rand_quat(rng, 3)
        assert (f * g).eval(q) == f.eval(q) * g.eval(q)
        assert (f + g).eval(q) == f.eval(q) + g.eval(q)


def test_qfunction_conj_is_pointwise_conjugation():
    rng = seeded(17)
    for _ in range(10):
        f = QFunction.from_polys(rand_poly(rng), rand_poly(rng))
        q = rand_quat(rng, 3)
        assert f.conj().eval(q) == f.eval(q).conj()


def test_qfunction_product_associative_exact():
    rng = seeded(18)
    for _ in range(6):
        f = QFunction.from_polys(rand_poly(rng, 2, 2), rand_poly(rng, 2, 2))
        g = QFunction.from_polys(rand_poly(rng, 2, 2), rand_poly(rng, 2, 2))
        h = QFunction.from_polys(rand_poly(rng, 2, 2), rand_poly(rng, 2, 2))
        assert ((f * g) * h).f1 == (f * (g * h)).f1
        assert ((f * g) * h).f2 == (f * (g * h)).f2


def test_rational_arithmetic_and_pole_error():
    den = Z1 * C1 + Z2 * C2
    r = ConjRational(Z1, den)
    z1, z2 = CRat(1), CRat(Fraction(0), Fraction(2))
    got = r.eval_exact(z1, z2)
    assert got == CRat(Fraction(1, 5))
    with pytest.raises(PoleError):
        r.eval_exact(CRat(0), CRat(0))


def test_rational_denominator_must_be_real_valued():
    with pytest.raises(ValueError):
        ConjRational(ConjPoly.one(), Z1)


def test_rational_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        ConjRational(Z1, ConjPoly.zero())


def test_symmetric_monomial_content_cancels():
    rho1 = Z1 * C1
    r = ConjRational(Z1 ** 2 * C1, rho1)
    assert r.is_polynomial
    assert r.num == Z1
    # cancelling z1 alone would leave a non-real denominator; it must stay
    r2 = ConjRational(Z1, rho1)
    assert not r2.is_polynomial


def test_rational_quotient_rules_exact():
    rng = seeded(19)
    rho = Z1 * C1 + Z2 * C2
    a = ConjRational(rand_poly(rng), rho)
    b = ConjRational(rand_poly(rng), rho * rho)
    p1, p2 = CRat(Fraction(1, 2)), CRat(Fraction(1), Fraction(1))
    va = a.eval_exact(p1, p2)
    vb = b.eval_exact(p1, p2)
    assert (a + b).eval_exact(p1, p2) == va + vb
    assert (a * b).eval_exact(p1, p2) == va * vb
    assert (a - b).eval_exact(p1, p2) == va - vb


def test_rational_wirtinger_quotient_rule_against_fd():
    rho = Z1 * C1 + Z2 * C2
    r = ConjRational(Z1 ** 2 + C2, rho)
    fn = lambda a, b: complex(r.eval_numeric(a, b))
    z1, z2 = 0.7 - 0.2j, 0.3 + 0.4j
    for var in ("z1", "c1", "z2", "c2"):
        sym = complex(r.wirtinger(var).eval_numeric(z1, z2))
        fd = wirtinger_fd(fn, z1, z2, var)
        assert sym == pytest.approx(fd, rel=3e-5, abs=3e-5)


def test_vanishing_orders():
    p = Z1 ** 2 * C2
    origin = CRat(0), CRat(0)
    assert poly_vanishing_order(p, *origin) == 3
    assert poly_vanishing_order(ConjPoly.const(CRat(2)), *origin) == 0
    assert poly_vanishing_order(Z1 + Z2, *origin) == 1
    rho = Z1 * C1 + Z2 * C2
    r = ConjRational(Z1 ** 2, rho)
    assert vanishing_order(r, *origin) == 0
    f = QFunction.from_polys(Z1 * Z2, C2 ** 3)
    assert vanishing_order_pair(f, Quat(CRat(0), CRat(0))) == 2


def test_eval_numeric_vectorizes():
    p = Z1 * C2 + ConjPoly.const(CRat(1))
    z1 = np.array([1.0 + 0j, 2.0 + 1j])
    z2 = np.array([0.5j, 1.0 + 0j])
    out = p.eval_numeric(z1, z2)
    want = z1 * np.conj(z2) + 1
    assert np.allclose(out, want)


def test_str_round_trip_through_parser():
    from qres.parsing import parse_poly
    rng = seeded(20)
    for _ in range(20):
        p = ConjPoly.zero()
        for _ in range(3):
            t = ConjPoly.const(CRat(Fraction(rng.randrange(-4, 5)),
                                    Fraction(rng.randrange(-4, 5))))
            for _ in range(rng.randrange(3)):
                t = t * rng.choice((Z1, C1, Z2, C2))
            p = p + t
        assert parse_poly(str(p)) == p
