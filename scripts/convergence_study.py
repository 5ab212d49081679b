#!/usr/bin/env python3
"""Convergence study for the epsilon-limit pairings.

Sweeps the quadrature rule and the epsilon ladder for two reference
computations whose limits are known through radial oracles:

  * residue of (z1, 0) against a bump in |z2|   -> plane mass
  * principal value of 1/(z1, 0) against z1*bump -> ball moment, with the
    metric ball and with the sublevel set |f| < eps excluded

The principal values sweep the n_eta x n_xi rule.  The residue grades its
own eta panels on each rung and sweeps n_xi only: it is computed once per
distinct n_xi, and rules that share n_xi share its error and its time.
|z1| depends on neither phase, so every pairing here is averaged over the
phases exactly (CurrentEstimate.phases_averaged) and n_xi moves none of
the errors.

Run from the repository root:

    python scripts/convergence_study.py [--quick]
"""
import argparse
import math
import time
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from qres.currents.estimate import EpsilonSchedule
from qres.currents.forms import Profile, TestForm2, TestForm3, bump
from qres.currents.pairings import pv_pair, residue_pair
from qres.currents.quadrature import build_quadrature
from qres.parsing import parse_qfunction
from qres.symfun import ConjPoly


@dataclass
class StudyConfig:
    rules: List[Tuple[int, int]] = field(
        default_factory=lambda: [(8, 16), (12, 16), (16, 16), (16, 32)])
    schedule: EpsilonSchedule = field(
        default_factory=lambda: EpsilonSchedule(0.4, 0.7, 12))
    radial_nodes: int = 400_001


def oracles(cfg: StudyConfig) -> Tuple[float, float]:
    r = np.linspace(0.0, 1.0, cfg.radial_nodes)
    plane = 8 * math.pi ** 2 * float(np.trapezoid(bump(r) * r, r))
    ball = -8 * math.pi ** 2 * float(np.trapezoid(r ** 3 * bump(r), r))
    return plane, ball


def run(cfg: StudyConfig) -> None:
    plane, ball = oracles(cfg)
    f = parse_qfunction("z1 ; 0")
    phi = TestForm2(phi22=Profile(ConjPoly.one(), 1.0, radial="z2"))
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))

    print(f"{'rule':>10} {'residue rel err':>16} {'pv rel err':>12} "
          f"{'levelset rel err':>17} {'conv':>5} {'secs':>6}")
    residues = {}
    for n_eta, n_xi in cfg.rules:
        rule = build_quadrature(n_eta, n_xi)
        t0 = time.perf_counter()
        if n_xi not in residues:
            residues[n_xi] = residue_pair(f, phi, n_xi=n_xi,
                                          schedule=cfg.schedule)
        res = residues[n_xi]
        pvs = [pv_pair(f, psi, rule=rule, schedule=cfg.schedule,
                       region=region) for region in ("metric", "levelset")]
        secs = time.perf_counter() - t0
        res_err = abs(complex(res.extrapolated.z1) - plane) / plane
        pv_err, set_err = (abs(complex(pv.extrapolated.z1) - ball) / abs(ball)
                           for pv in pvs)
        conv = res.converged and all(pv.converged for pv in pvs)
        print(f"{n_eta:>4}x{n_xi:<5} {res_err:>16.3e} {pv_err:>12.3e} "
              f"{set_err:>17.3e} {str(conv):>5} {secs:>6.2f}")

    print()
    print("per-rung table for the largest rule (residue):")
    est = residues[cfg.rules[-1][1]]
    for eps, re1, im1, re_j, im_j in est.rows():
        print(f"  eps={eps:9.5f}  value={re1:+.8f} {im1:+.1e}i "
              f"{re_j:+.1e}j {im_j:+.1e}k")
    print(f"  extrapolated: {complex(est.extrapolated.z1).real:+.8f} "
          f"(oracle {plane:+.8f})")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller rules and a shorter ladder")
    args = ap.parse_args()
    cfg = StudyConfig()
    if args.quick:
        cfg.rules = [(8, 16), (12, 16)]
        cfg.schedule = EpsilonSchedule(0.4, 0.7, 8)
    run(cfg)


if __name__ == "__main__":
    main()
