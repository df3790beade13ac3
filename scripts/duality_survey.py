#!/usr/bin/env python3
"""Which reciprocal-map variant preserves each solving quadruple?

The four-function constraint admits a reciprocal transformation of all four
functions.  Two readings of the map differ in which slope scales the second
line function; this script applies both to every constant-slope family and
reports the constraint residual of the transformed quadruple.

Usage:
  python scripts/duality_survey.py [--points 50] [--seed 7]
"""

from __future__ import annotations

import argparse
import random

import numpy as np

from mongesol import (
    canonical_config,
    duality_transform,
    four_function_residual,
    make_family,
    sample_points,
)

FAMILIES = ("m3_sigma_const", "m3_l1_const", "m3_theta_const", "mn_theta_const")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=50)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    print(f"{'family':20s} {'original':>12s} {'symmetric':>12s} {'literal':>12s}  preserved by")
    for tag in FAMILIES:
        bundle = make_family(canonical_config(tag))
        x, z = sample_points(bundle, rng, args.points)
        base = float(np.max(np.abs(four_function_residual(bundle.quadruple, x, z)[0])))
        row = {"original": base}
        for variant in ("symmetric", "literal"):
            q = duality_transform(bundle.quadruple, variant)
            row[variant] = float(np.max(np.abs(four_function_residual(q, x, z)[0])))
        keeps = [v for v in ("symmetric", "literal") if row[v] <= 1e-8]
        print(f"{tag:20s} {row['original']:>12.3e} {row['symmetric']:>12.3e} "
              f"{row['literal']:>12.3e}  {', '.join(keeps) or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
