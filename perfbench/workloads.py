"""The in-process workloads: pv and exact.

A workload builds its seeded inputs on construction (timed as set-up),
computes its oracles in ``oracles`` (untimed), and hands out one pass of
ops.  An op runs one qres call; its check sees the result and every other
result of the same pass, and returns ``(ok, error / tolerance)`` with
``None`` for checks that have no numeric tolerance.  Ops call qres through
module attributes, so a traced run sees the tracing wrappers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

import numpy as np

from qres import catalogue, operators, parsing
from qres.currents import estimate, forms, pairings, quadrature
from qres.qcore import CRat
from qres.symfun import ConjPoly, QFunction

from . import inputs, seeds
from .ops import Check, Op
from .seeds import rng_for

# acceptance tolerances, as pinned in tests/test_acceptance.py
ODD_ZERO_TOL = 1e-6  # criterion 9, every rung
BALL_RTOL = 1e-3    # criterion 9


def _quarter(rng, lo: int, hi: int) -> Fraction:
    """Nonzero multiple of 1/4 in [lo/4, hi/4]."""
    while True:
        k = rng.randint(lo, hi)
        if k:
            return Fraction(k, 4)


# ------------------------------------------------------------ numeric

def _finite_estimate(est) -> bool:
    vals = [complex(v.z1) for v in est.values] + [complex(v.z2) for v in est.values]
    vals += [complex(est.extrapolated.z1), complex(est.extrapolated.z2)]
    return bool(np.all(np.isfinite(vals)))


def _settled(est) -> bool:
    return _finite_estimate(est) and est.converged


class PrincipalValue:
    """pv_pair at 16x32 on the default ladder: z1 ; 0 against s*z1*bump in
    both regions (ball oracle) and conj against t*bump (odd-symmetry zeros),
    with the scales s, t and the op order drawn from the seed."""

    name = "pv"

    def __init__(self, seed: int):
        rng = rng_for(self.name, seed)
        self.s, self.t = _quarter(rng, 2, 8), _quarter(rng, 2, 8)
        self.order = rng.sample(range(3), 3)
        z1 = ConjPoly.var("z1")
        self.z1 = parsing.parse_qfunction("z1 ; 0")
        self.conj = catalogue.builtin("conj").f
        self.psi_ball = forms.TestForm3(
            psi1=forms.Profile(z1 * CRat(self.s), 1.0))
        self.psi_odd = forms.TestForm3(
            psi2=forms.Profile(ConjPoly.const(CRat(self.t)), 1.0))
        self.rule = quadrature.build_quadrature(16, 32)
        self.ball = None

    def oracles(self) -> None:
        self.ball = float(self.s) * inputs.ball_moment()

    def warmup(self) -> None:
        pairings.pv_pair(self.z1, self.psi_ball,
                         rule=quadrature.build_quadrature(4, 8),
                         schedule=estimate.EpsilonSchedule(0.5, 0.7, 3),
                         region="levelset")

    def ops(self) -> List[Op]:
        def check_ball(est, results):
            if not _settled(est):
                return False, None
            rel = abs(complex(est.extrapolated.z1) - self.ball) / abs(self.ball)
            err = rel / BALL_RTOL
            return err < 1.0, err

        def check_odd(est, results):
            if not _finite_estimate(est):
                return False, None
            err = max(v.norm() for v in est.values) / ODD_ZERO_TOL
            return err < 1.0, err

        ops = [
            Op("ball.metric", lambda: pairings.pv_pair(
                self.z1, self.psi_ball, rule=self.rule, region="metric"),
               check_ball),
            Op("ball.levelset", lambda: pairings.pv_pair(
                self.z1, self.psi_ball, rule=self.rule, region="levelset"),
               check_ball),
            Op("odd.metric", lambda: pairings.pv_pair(
                self.conj, self.psi_odd, rule=self.rule, region="metric"),
               check_odd),
        ]
        return [ops[i] for i in self.order]


# --------------------------------------------------------------- exact

def _nonzero_holo(rng) -> ConjPoly:
    while True:
        p = inputs.holomorphic_poly(rng)
        if not p.is_zero:
            return p


def _kernel_sample(rng, i: int) -> QFunction:
    kinds = inputs.KERNEL_SHAPES[i % len(inputs.KERNEL_SHAPES)]
    while True:
        f = inputs.hyperholomorphic_sample(rng, kinds)
        if not f.is_zero:
            return f


def _scaled(rng, f: QFunction) -> QFunction:
    return operators.scale_real(f, _quarter(rng, -12, 12))


def _prop34(rng):
    return catalogue.builtin("prop34", (seeds.rand_fraction(rng, 3),
                                        seeds.rand_fraction(rng, 3)))


def _expect(value) -> Check:
    return lambda got, results: (got == value, None)


class Exact:
    """One pass makes the exact-path calls of the acceptance criteria at the
    counts tests/test_acceptance.py makes them, one call per exact-path
    README example, and ROADMAP item 1's inverse of cauchy_kernel, all on
    seeded inputs and in seeded order (table in perfbench/METRICS.md)."""

    name = "exact"

    # per-pass count of each op family, by source
    CRITERIA = {"c01.apply_d": 1, "c02.apply_d": 3, "c02.hypermero": 3,
                "c02.inverse": 3, "c03.product_rule": 20, "c04.classify": 1,
                "c10.classify": 4 * len(catalogue.NAMES), "c07_09.parse": 2}
    README = ("readme.classify_partner", "readme.apply_d", "readme.inverse",
              "readme.hypermero", "readme.product_rule", "readme.product_compat")
    ROADMAP = ("roadmap.inverse_cauchy",)

    def __init__(self, seed: int):
        rng = rng_for(self.name, seed)
        self.seed = seed
        self._ops: List[Op] = []
        self._inverse_inputs = {}  # op key -> function inverted
        self._inverse_points = {}  # op key -> (exact point, f(point))
        self._build_criteria(rng)
        self._build_readme(rng)
        self._inverse("roadmap.inverse_cauchy",
                      _scaled(rng, catalogue.builtin("cauchy_kernel").f))
        rng.shuffle(self._ops)

    def _add(self, key: str, run, check: Check) -> None:
        self._ops.append(Op(key, run, check))

    def _apply_d(self, key: str, f: QFunction, want: bool) -> None:
        self._add(key, lambda: operators.apply_D(f).is_zero, _expect(want))

    def _hypermero(self, key: str, entry, f: QFunction) -> None:
        self._add(key, lambda: tuple(r.is_zero for r in operators.hypermero_residuals(f)),
                  lambda got, results, want=entry.known_flags.hypermeromorphic:
                  ((got[0] and got[1]) == want, None))

    def _classify(self, key: str, entry, f: QFunction) -> None:
        want = (entry.known_flags.hyperholomorphic, entry.known_flags.hypermeromorphic)
        self._add(key, lambda: operators.classify(f),
                  lambda c, results: ((c.hyperholomorphic, c.hypermeromorphic) == want,
                                      None))

    def _inverse(self, key: str, f: QFunction) -> None:
        self._inverse_inputs[key] = f
        self._add(key, lambda: operators.inverse_function(f), self._check_inverse(key))

    def _product_rule(self, key: str, f: QFunction, g: QFunction) -> None:
        self._add(key, lambda: operators.check_product_rule(f, g).is_zero,
                  _expect(True))

    def _build_criteria(self, rng) -> None:
        cauchy = catalogue.builtin("cauchy_kernel")
        self._apply_d("c01.apply_d", _scaled(rng, cauchy.f), True)
        for i in range(self.CRITERIA["c02.apply_d"]):
            entry = _prop34(rng)
            self._apply_d(f"c02.apply_d.{i}", entry.f, True)
            self._hypermero(f"c02.hypermero.{i}", entry, entry.f)
            self._inverse(f"c02.inverse.{i}", entry.f)
        for i in range(self.CRITERIA["c03.product_rule"]):
            self._product_rule(f"c03.product_rule.{i}", _kernel_sample(rng, i),
                               _kernel_sample(rng, i + 3))
        conj = catalogue.builtin("conj")
        self._classify("c04.classify", conj, conj.f)
        for name in catalogue.NAMES:
            entry = catalogue.builtin(name)
            self._classify(f"c10.classify.{name}.base", entry, entry.f)
            for k in range(3):
                self._classify(f"c10.classify.{name}.scaled{k}", entry,
                               _scaled(rng, entry.f))
        for i in range(self.CRITERIA["c07_09.parse"]):
            text, want = inputs.literal_qfunction(rng)
            self._add(f"c07_09.parse.{i}", lambda text=text: parsing.parse_qfunction(text),
                      lambda got, results, want=want:
                      (got.f1 == want.f1 and got.f2 == want.f2, None))

    def _build_readme(self, rng) -> None:
        f, g = _prop34(rng).f, _prop34(rng).f
        # f + g is twice an affine-family member, hence hypermeromorphic
        self._add("readme.classify_partner",
                  lambda: operators.classify(f, partners=[g]),
                  lambda c, results: (c.hyperholomorphic and c.hypermeromorphic
                                      and c.closure[0]["sum_hypermeromorphic"], None))
        # D acts from the left, so D(F*c + h) = D(F)*c for h in the kernel,
        # and D(F) is the nonzero constant -1/2
        c = QFunction.const(inputs.exact_point(rng))
        while c.is_zero:
            c = QFunction.const(inputs.exact_point(rng))
        F = catalogue.builtin("F").f
        self._apply_d("readme.apply_d", F * c + _kernel_sample(rng, 1), False)
        conj = catalogue.builtin("conj")
        self._inverse("readme.inverse", _scaled(rng, conj.f))
        self._hypermero("readme.hypermero", conj, _scaled(rng, conj.f))
        # KERNEL_SHAPES[0] is conj times a right scalar
        self._product_rule("readme.product_rule", _kernel_sample(rng, 0),
                           _kernel_sample(rng, 0))
        # prop34 x holo has first residual 2*g1 + f2 * dg1/dz2, never zero
        # for nonzero g1
        fa, gh = _prop34(rng).f, catalogue.builtin("holo", expr=_nonzero_holo(rng)).f
        self._add("readme.product_compat",
                  lambda: tuple(r.is_zero for r in
                                operators.product_compat_residuals(fa, gh)),
                  _expect((False, False)))

    def _check_inverse(self, key: str) -> Check:
        def check(inv, results):
            q, fq = self._inverse_points[key]
            prod = seeds.hamilton_product(fq, inv.eval(q).basis_coeffs())
            return prod == (1, 0, 0, 0), None
        return check

    def oracles(self) -> None:
        """An exact point off the zero set of each inverted function."""
        rng = rng_for("exact.points", self.seed)
        for key, f in sorted(self._inverse_inputs.items()):
            fq = None
            while fq is None or fq.modulus_sq() == 0:
                q = inputs.exact_point(rng)
                try:
                    fq = f.eval(q)
                except ZeroDivisionError:  # a pole of f
                    fq = None
            self._inverse_points[key] = (q, fq.basis_coeffs())

    def warmup(self) -> None:
        operators.classify(catalogue.builtin("conj").f)

    def ops(self) -> List[Op]:
        return list(self._ops)


WORKLOADS = {cls.name: cls for cls in (PrincipalValue, Exact)}
