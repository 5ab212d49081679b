"""Named function catalogue: declared flags against computed classification,
zero sets against a dense grid scan, and the resolver syntax."""
from fractions import Fraction

import numpy as np
import pytest

from qres.catalogue import NAMES, builtin, resolve
from qres.errors import ParseError, UnknownName
from qres.operators import classify
from qres.qcore import CRat, Quat


def test_catalogue_names_are_pinned():
    assert NAMES == ("conj", "cauchy_kernel", "F", "prop34", "holo", "q_conj")


def test_declared_flags_match_computed_classification():
    for name in NAMES:
        entry = builtin(name)
        c = classify(entry.f)
        assert c.hyperholomorphic == entry.known_flags.hyperholomorphic, name
        assert c.hypermeromorphic == entry.known_flags.hypermeromorphic, name


def _grid(n=41, lo=-1.0, hi=1.0):
    xs = np.linspace(lo, hi, n)
    x1, y1, x2, y2 = np.meshgrid(xs, xs, xs, xs, indexing="ij", sparse=True)
    return x1 + 1j * y1, x2 + 1j * y2


def test_zero_sets_of_point_vanishing_entries():
    z1, z2 = _grid()
    nq = np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2)
    for name in ("conj", "q_conj", "F"):
        f = builtin(name).f
        mag = np.sqrt(np.abs(f.f1.eval_numeric(z1, z2)) ** 2
                      + np.abs(f.f2.eval_numeric(z1, z2)) ** 2)
        off = nq > 0.1
        assert mag[off].min() > 0.099, name
        origin = f.eval(Quat(CRat(0), CRat(0)))
        assert origin.norm() == 0.0, name


def test_order_three_kernel_never_vanishes():
    z1, z2 = _grid()
    nq = np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2)
    f = builtin("cauchy_kernel").f
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.sqrt(np.abs(f.f1.eval_numeric(z1, z2)) ** 2
                      + np.abs(f.f2.eval_numeric(z1, z2)) ** 2)
    ok = nq > 0.2
    # |value| = |q|^-3 so the grid minimum sits at the largest radius
    assert mag[ok].min() > (nq.max() ** -3) * 0.999


def test_affine_family_vanishes_on_its_plane_exactly():
    f = builtin("prop34", (1, 2)).f
    # plane: x1 = 1/4, x2 = -3/4 with both imaginary parts free
    for y1, y2 in ((0, 0), (Fraction(1, 3), -2), (5, Fraction(-7, 2))):
        q = Quat(CRat(Fraction(1, 4), Fraction(y1)),
                 CRat(Fraction(-3, 4), Fraction(y2)))
        assert f.eval(q).norm() == 0.0


def test_affine_family_nonzero_off_its_plane():
    z1, z2 = _grid()
    f = builtin("prop34", (1, 2)).f
    mag = np.sqrt(np.abs(f.f1.eval_numeric(z1, z2)) ** 2
                  + np.abs(f.f2.eval_numeric(z1, z2)) ** 2)
    dist = np.sqrt((z1.real - 0.25) ** 2 + (z2.real + 0.75) ** 2)
    off = dist > 0.02
    assert mag[off].min() >= 2 * 0.02 - 1e-12


def test_holo_zero_set_is_a_hypersurface_sample():
    f = builtin("holo", expr="z1^2 + z2^2").f
    for t in (0.3, 1.0, -0.7):
        q = Quat(complex(t), complex(0, t))
        assert f.eval(q).norm() < 1e-12
    assert f.eval(Quat(CRat(1), CRat(0))).norm() == 1.0


def test_entry_zero_set_descriptions_exist():
    for name in NAMES:
        e = builtin(name)
        assert e.zero_set_kind in ("point", "plane", "hypersurface", "empty")
        assert isinstance(e.zero_set, str) and e.zero_set


def test_resolver_accepts_catalogue_names():
    f, label = resolve("conj")
    assert label == "conj"
    assert (f.f1 - builtin("conj").f.f1).is_zero


def test_resolver_accepts_parameters():
    f, _ = resolve("prop34", params=(Fraction(1), Fraction(2)))
    v = f.eval(Quat(CRat(0), CRat(0)))
    assert v == Quat(CRat(1), CRat(2))
    entry = builtin("prop34", params=(Fraction(1), Fraction(2)))
    assert entry.params == (Fraction(1), Fraction(2))
    assert f == entry.f


def test_resolver_defaults_for_affine_family():
    f, _ = resolve("prop34")
    assert f.eval(Quat(CRat(0), CRat(0))) == Quat(CRat(0), CRat(0))


def test_resolver_holo_expression_syntax():
    f, label = resolve("holo:z1^2 + z2")
    assert label == "holo"
    q = Quat(CRat(2), CRat(0))
    assert f.eval(q) == Quat(CRat(4), CRat(0))


def test_resolver_holo_default_expression():
    f, _ = resolve("holo")
    q = Quat(CRat(3), CRat(1))
    assert f.eval(q) == Quat(CRat(3), CRat(0))


def test_holo_rejects_conjugated_variables():
    with pytest.raises(UnknownName):
        resolve("holo:z1 + c1")


def test_resolver_literal_fallback():
    f, label = resolve("z1 ; c2")
    assert label == "literal"
    q = Quat(CRat(1), CRat(2))
    assert f.eval(q) == Quat(CRat(1), CRat(2))


def test_resolver_unknown_name_falls_back_to_literal_parse():
    # not a catalogue name and not valid expression text: the literal
    # parser owns the error
    with pytest.raises(ParseError):
        resolve("nosuch")


def test_builtin_unknown_name_lists_catalogue():
    with pytest.raises(UnknownName) as err:
        builtin("nosuch")
    msg = str(err.value)
    assert "conj" in msg and "prop34" in msg


def test_unexpected_parameters_rejected():
    with pytest.raises(UnknownName):
        resolve("conj", params=(Fraction(1),))


def test_cauchy_kernel_closed_form_value():
    f = builtin("cauchy_kernel").f
    q = Quat(CRat(1), CRat(0))
    # at (1, 0): rho = 1, value = (conj z1, -z2) / rho^2 = (1, 0)
    assert f.eval(q) == Quat(CRat(1), CRat(0))
    q2 = Quat(CRat(0), CRat(2))
    # rho = 4: value = (0, -2)/16
    assert f.eval(q2) == Quat(CRat(0), CRat(Fraction(-1, 8)))
