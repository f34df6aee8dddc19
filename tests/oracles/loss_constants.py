#!/usr/bin/env python3
"""Independent recomputation of the frozen loss-value constants used in tests.

Every constant below is evaluated directly from its defining formula with the
standard library only, so the test expectations do not depend on the package.
Run this script to regenerate the numbers cited in tests/test_losses.py.
"""

import math


def constants() -> dict:
    """Each constant by the label main() prints it under."""
    return {
        # gce: (1 - p^q) / q at p=0.5, q=0.7
        "gce(0.5, 0.7)": (1.0 - 0.5 ** 0.7) / 0.7,
        # hambr with x=mu, one orthogonal outlier, tau=1:
        # -log(e^1 / (e^1 + e^0)) = log(1 + e^-1)
        "hambr orthogonal": math.log(1.0 + math.exp(-1.0)),
        # cross entropy of a uniform prediction over 4 classes vs a one-hot label
        "ce uniform C=4": math.log(4.0),
        # sharpen((0.8, 0.2), T=0.5): squares renormalized = (0.64, 0.04)/0.68
        "sharpen p0": 0.64 / 0.68,
        "sharpen p1": 0.04 / 0.68,
        # reg loss with every prediction (1, 0), C=2, mean clamped at 1e-9:
        # KL(uniform || (1, 1e-9)) = 0.5*log(0.5/1) + 0.5*log(0.5/1e-9)
        "reg one-class C=2": 0.5 * math.log(0.5 / 1.0) + 0.5 * math.log(0.5 / 1e-9),
        # contrastive, 2 pairs, z1'=z1, z2 orthogonal to z1, z2'=z2, tau=1.
        # anchor 1: pos sim 1, negatives = {z2 (sim 0)} plus the positive:
        # -log(e / (e + 1)) = log(1 + e^-1); anchor 2 symmetric, so the mean too.
        "contrastive orth": math.log(1.0 + math.exp(-1.0)),
        # contrastive, 2 pairs, z2 = -z1 (sim -1), positives identical to anchors:
        # anchor term -log(e / (e + e^-1)) = log(1 + e^-2)
        "contrastive antipode": math.log(1.0 + math.exp(-2.0)),
    }


def main() -> None:
    for label, value in constants().items():
        print(f"{label:<20} =", repr(value))


if __name__ == "__main__":
    main()
