#!/usr/bin/env python3
"""Independent recomputation of frozen free-energy constants.

E(z) = -tau * log( sum_j w_j * exp(z.k_j / tau) ) evaluated by hand for the
single-entry fixtures cited in tests/test_energy.py.
"""

import math


def constants() -> dict:
    """Each constant by the label main() prints it under."""
    return {
        # single entry k=z, w=1, tau=0.5: -0.5 * log(exp(1/0.5)) = -1
        "k=z w=1   tau=0.5": -0.5 * math.log(math.exp(1.0 / 0.5)),
        # single entry k orthogonal to z, w=1, tau=1: -log(exp(0)) = 0
        "k._|_z w=1 tau=1": -1.0 * math.log(math.exp(0.0)),
        # single entry k=z, w=0.5, tau=1: -log(0.5 * e) = log(2) - 1
        "k=z w=0.5 tau=1": -math.log(0.5 * math.e),
        "log(2) - 1": math.log(2.0) - 1.0,
        # weight-scaling shift: multiplying all weights by lam shifts E by
        # -tau*log(lam); printed for lam=0.37, tau=0.1
        "shift lam=0.37": -0.1 * math.log(0.37),
    }


def main() -> None:
    for label, value in constants().items():
        print(f"{label:<17} =", repr(value))


if __name__ == "__main__":
    main()
