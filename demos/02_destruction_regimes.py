"""The three destruction regimes seen through the killed dual walk.

In the linear case the site densities are dual to a random walk with
inverted drift that is killed at the origin at rate alpha * N^(1+beta).
The probability that a walk started at the origin dies before escaping
to the left is alpha_tilde_N = alpha N^beta / (alpha N^beta + 2p - 1):

    beta < 0  ->  0      (destruction invisible in the limit)
    beta = 0  ->  alpha / (alpha + 2p - 1)
    beta > 0  ->  1      (total absorption)

The script prints empirical kill fractions against the formula and its
limit ``LinearCaseParams.alpha_tilde``.
"""
from zrhydro import ModelParams
from zrhydro.oracle import (LinearCaseParams,
                            killing_probability_experiment)
from zrhydro.rng import replica_stream

WALKS = 2000


def main():
    print(f"p=0.75, alpha=1, {WALKS} dual walks per cell")
    print()
    print(f"{'beta':>6} {'N':>6} {'empirical':>10} {'formula':>9} "
          f"{'limit':>6}")
    for beta in (-0.5, 0.0, 0.5):
        for N in (50, 200, 800):
            params = ModelParams(0.75, 1.0, beta, N)
            lin = LinearCaseParams(params)
            frac, se = killing_probability_experiment(
                params, 0, WALKS, replica_stream(2, N))
            print(f"{beta:>6g} {N:>6} {frac:>10.4f} "
                  f"{lin.alpha_tilde_N:>9.4f} {lin.alpha_tilde:>6.3f}")
        print()
    print("each column of empirical values tracks the formula and moves")
    print("toward the beta-dependent limit as N grows")


if __name__ == "__main__":
    main()
