#!/usr/bin/env python3
"""Profile the truncated Poisson isometry defect of a boundary measure.

Contracts a sampled measure on the rank-2 boundary, builds an indicator
cylinder function, and prints the defect on a radius ladder together with
the certificate-steered probe value (which pins the defect to zero).

Usage: python scripts/defect_profile.py [--seed N] [--depth D] [--target M]
"""

import argparse
import random

from boundarylab import BoundarySpace, contract_measure, replay
from boundarylab.checks import (
    certificate_element,
    sample_boundary_measure,
    steer_into_cylinder,
)
from boundarylab.measures import CylinderFunction, isometry_defect
from boundarylab.words import letters_to_str


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--depth", type=int, default=4, help="cylinder function depth")
    ap.add_argument("--target", type=int, default=12, help="contraction depth")
    args = ap.parse_args()

    space = BoundarySpace(2)
    nu = sample_boundary_measure(space, random.Random(args.seed), 4)
    print("measure atoms:")
    for p, w in nu.atoms:
        print(f"  {w}  at  {p.to_str()}")

    cert = contract_measure(nu, args.target, 64)
    if cert is None:
        print("no certificate found")
        return 1
    ok, _, final = replay(nu, cert)
    assert ok

    rng = random.Random(args.seed ^ 0xFF)
    cyl = [rng.choice([1, -1, 2, -2])]
    while len(cyl) < args.depth:
        cyl.append(rng.choice([l for l in (1, -1, 2, -2) if l != -cyl[-1]]))
    cyl = tuple(cyl)
    f = CylinderFunction(rank=2, depth=args.depth, values={cyl: 1.0})

    steering = steer_into_cylinder(final, cyl)
    g = certificate_element(cert.steps)
    probe = steering * g if g is not None else steering
    r_cert = sum(len(s) for s in cert.steps) + len(steering)

    print(f"\ntarget cylinder: {letters_to_str(cyl)!r}, "
          f"certificate length {len(cert.steps)}, steering word {steering.to_str()!r}")
    print("\nradius ladder (exact ball enumeration):")
    for radius in (0, 2, 4, 6, 8):
        d = isometry_defect(nu, f, radius)
        print(f"  R={radius:2d}  defect={d:.6f}")
    d = isometry_defect(nu, f, 4, probes=[probe])
    print(f"  R={r_cert} (certificate radius, probe included)  defect={d:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
