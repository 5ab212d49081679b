#!/usr/bin/env python3
"""Convergence study for the epsilon-limit pairings.

Sweeps the eta rule of the principal values for two reference
computations whose limits are known through radial oracles:

  * residue of (z1, 0) against a bump in |z2|   -> plane mass
  * principal value of 1/(z1, 0) against z1*bump -> ball moment, with the
    metric ball and with the sublevel set |f| < eps excluded

|z1| depends on neither phase, so every pairing here is averaged over the
phases exactly (CurrentEstimate.phases_averaged) and the phase rule n_xi
moves none of the errors: rules that differ in n_xi alone give identical
rows.  So the study sweeps the eta rule n_eta of the principal values at
one n_xi, up to 256 nodes, where the levelset error keeps falling (1.1e-3
at 16 nodes, 1.7e-6 at 256): the sublevel set |z1| < eps meets the
support at a kink in eta.  The residue grades its own eta panels on each
rung and reads no eta rule, so it is computed once, and its error is the
same in every row.

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
    n_etas: List[int] = field(default_factory=lambda: [8, 12, 16, 64, 256])
    n_xi: int = 16
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
    res = residue_pair(f, phi, n_xi=cfg.n_xi, schedule=cfg.schedule)
    res_err = abs(complex(res.extrapolated.z1) - plane) / plane
    for n_eta in cfg.n_etas:
        rule = build_quadrature(n_eta, cfg.n_xi)
        t0 = time.perf_counter()
        pvs = [pv_pair(f, psi, rule=rule, schedule=cfg.schedule,
                       region=region) for region in ("metric", "levelset")]
        secs = time.perf_counter() - t0
        pv_err, set_err = (abs(complex(pv.extrapolated.z1) - ball) / abs(ball)
                           for pv in pvs)
        conv = res.converged and all(pv.converged for pv in pvs)
        print(f"{n_eta:>4}x{cfg.n_xi:<5} {res_err:>16.3e} {pv_err:>12.3e} "
              f"{set_err:>17.3e} {str(conv):>5} {secs:>6.2f}")

    print()
    print("per-rung table of the residue:")
    for eps, re1, im1, re_j, im_j in res.rows():
        print(f"  eps={eps:9.5f}  value={re1:+.8f} {im1:+.1e}i "
              f"{re_j:+.1e}j {im_j:+.1e}k")
    print(f"  extrapolated: {complex(res.extrapolated.z1).real:+.8f} "
          f"(oracle {plane:+.8f})")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller rules and a shorter ladder")
    args = ap.parse_args()
    cfg = StudyConfig()
    if args.quick:
        cfg.n_etas = [8, 12]
        cfg.schedule = EpsilonSchedule(0.4, 0.7, 8)
    run(cfg)


if __name__ == "__main__":
    main()
