#!/usr/bin/env python3
"""Contract a random fiber-supported measure on the induced space of the
even-a subgroup of F2 and print the replayable certificate.

Usage: python scripts/contract_demo.py [--seed N] [--coset I] [--atoms K]
                                       [--depth M] [--steps L]
"""

import argparse
import json
import random

from boundarylab import (
    FreeGroup,
    contract_measure,
    enumerate_cosets,
    induced_space,
    parse_word,
    replay,
    schreier_basis,
    subgroup,
)
from boundarylab.checks import sample_fiber_measure
from boundarylab.measures import measure_to_json


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--coset", type=int, default=2)
    ap.add_argument("--atoms", type=int, default=4)
    ap.add_argument("--depth", type=int, default=20)
    ap.add_argument("--steps", type=int, default=64)
    args = ap.parse_args()

    F2 = FreeGroup(2)
    table = enumerate_cosets(subgroup(F2, [parse_word(F2, s) for s in ("aa", "b", "abA")]))
    basis = schreier_basis(table)
    space = induced_space(table, basis)

    print(f"coset table: index {table.size}, transversal "
          f"{[t.to_str() for t in table.transversal]}")
    print(f"subgroup free basis (rank {basis.rank}): "
          f"{[g.to_str() for g in basis.generators]}")

    nu = sample_fiber_measure(space, args.coset, random.Random(args.seed), args.atoms)
    print("\nsampled fiber measure:")
    print(json.dumps(measure_to_json(nu), indent=2))

    cert = contract_measure(nu, args.depth, args.steps)
    if cert is None:
        print(f"\nINCONCLUSIVE: no certificate within {args.steps} steps")
        return 1
    print(f"\ncertificate ({len(cert.steps)} steps, depth {cert.achieved_depth}, "
          f"coset {cert.limit_coset}):")
    print(json.dumps(cert.to_json(), indent=2))

    ok, detail, final = replay(nu, cert)
    print(f"\nreplay: {'PASS' if ok else 'FAIL'} {detail}")
    print("final atoms:")
    for p, w in final.atoms:
        print(f"  {w}  at  ({p[0]}, {p[1].to_str()})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
