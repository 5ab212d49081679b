"""Seeded generators and a quaternion oracle that need neither numpy nor
qres."""

from __future__ import annotations

import random
from fractions import Fraction


def rng_for(workload: str, seed: int) -> random.Random:
    """Per-workload generator; string seeds hash the same in every process."""
    return random.Random(f"{workload}:{seed}")


def rand_fraction(rng: random.Random, span: int = 4, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def hamilton_product(x, y):
    """Product of quaternions given as (1, i, j, k) coefficient tuples."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

