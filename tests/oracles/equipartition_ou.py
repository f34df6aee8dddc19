#!/usr/bin/env python3
"""Independent oracle for the stationary kinetic energy of the damped chain.

With zero potential the momentum update is an exact Ornstein-Uhlenbeck map per
coordinate of the tangent space: v' = a*v + sqrt((1-a^2)*T)*xi with
a = exp(-friction*eps).  The stationary second moment per coordinate is T, the
tangent space has d-1 dimensions (the geodesic flow preserves the norm between
steps), so E[|v|^2] -> (d-1)*T.  This script simulates the scalar OU map
directly, without any package code, to confirm the per-coordinate moment.
"""

import math
import random


FRICTION, EPS, TEMP = 1.0, 0.05, 1.3


def per_coordinate_moment() -> float:
    """Long-run mean v^2 of the scalar OU map, whose target is TEMP."""
    rng = random.Random(123)
    a = math.exp(-FRICTION * EPS)
    sigma = math.sqrt((1.0 - a * a) * TEMP)
    v, acc, n = 0.0, 0.0, 300_000
    for i in range(n + 5_000):
        v = a * v + sigma * rng.gauss(0.0, 1.0)
        if i >= 5_000:
            acc += v * v
    return acc / n


def main() -> None:
    print("per-coordinate moment:", per_coordinate_moment(), " target:", TEMP)
    for d in (3, 8):
        print(f"d={d}: (d-1)*T =", (d - 1) * TEMP)


if __name__ == "__main__":
    main()
