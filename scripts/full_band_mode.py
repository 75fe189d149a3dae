#!/usr/bin/env python3
"""Full-band mode (band [0, n]): scaled chaos variances Var(h_q) * n^2 across
q, which should stay of comparable size for every q in this regime, unlike the
band-limited case where q = 2 dominates.

Every column is the exact Var(h_q) = q! 8 pi^2 int Gamma(t)^q dt from
chaos_variance_prediction, so the table is deterministic.
"""

import argparse

from bandsphere.experiments import chaos_variance_prediction
from bandsphere.field import full_band_spec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=lambda s: [int(t) for t in s.split(",")], default=[16, 32, 64])
    ap.add_argument("--q-max", type=int, default=4)
    args = ap.parse_args(argv)

    print(f"{'n':>5} {'D':>7} " + " ".join(f"Var(h{q})*n^2" for q in range(2, args.q_max + 1)))
    for n in args.n:
        spec = full_band_spec(n)
        pred = chaos_variance_prediction(spec, 1.0, args.q_max)
        scaled = [row.var_hq * n**2 for row in pred.rows]
        print(f"{n:>5} {spec.dof:>7} " + " ".join(f"{v:12.4f}" for v in scaled))


if __name__ == "__main__":
    main()
