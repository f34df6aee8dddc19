#!/usr/bin/env python3
"""Quadrature oracle for the circle Gibbs target used by the stationarity test.

Bank: two unit-weight entries of one class at angles 0 and pi, tau_energy=0.1,
K=2, so the closed form is

    U(theta) = -tau * log( exp(cos(theta)/tau) + exp(-cos(theta)/tau) )

and the target density is p(theta) proportional to exp(-U(theta)/T) with T the
dynamics temperature (1.0 in the test).  This script bins that density into 36
equal angular bins over [-pi, pi) by dense trapezoid quadrature and prints the
bin masses; the acceptance test recomputes the same numbers inline.
"""

import math

TAU = 0.1
DYN_T = 1.0
N_BINS = 36
SUBDIV = 400  # quadrature points per bin


def potential(theta: float) -> float:
    a = math.cos(theta) / TAU
    m = abs(a)
    # stable log(exp(a) + exp(-a)) = m + log1p(exp(-2m))
    return -TAU * (m + math.log1p(math.exp(-2.0 * m)))


def bin_masses() -> list:
    """The N_BINS target masses over [-pi, pi), summing to 1."""
    width = 2.0 * math.pi / N_BINS
    masses = []
    for b in range(N_BINS):
        lo = -math.pi + b * width
        total = 0.0
        for k in range(SUBDIV + 1):
            theta = lo + width * k / SUBDIV
            wgt = 0.5 if k in (0, SUBDIV) else 1.0
            total += wgt * math.exp(-potential(theta) / DYN_T)
        masses.append(total)
    z = sum(masses)
    return [m / z for m in masses]


def main() -> None:
    for b, m in enumerate(bin_masses()):
        print(f"bin {b:2d}  mass {m:.10f}")


if __name__ == "__main__":
    main()
