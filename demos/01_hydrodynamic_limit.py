"""Hydrodynamic limit of the linear-rate process with critical destruction.

Particles hop right with probability p = 0.75, left with 0.25, at rate
g(k) = k, and are destroyed at the origin at rate alpha * g.  At beta = 0
the macroscopic density is pure transport at speed 2p - 1 = 0.5, with the
portion crossing the origin attenuated by the factor 1 - alpha-tilde = 1/3.

The script runs a handful of replicas at increasing N through
``harness.compare`` and prints the L1 distance between the
replica-averaged block density and the closed form.  The spec's default
exclusions skip 0.05-neighborhoods of the two kinks at u = 0 and u = 0.4.
"""
from zrhydro.harness import ExperimentSpec, compare

SPEC = ExperimentSpec(name="demo-01", N=(50, 100, 200), times=(0.8,),
                      replicas=20, seed=1)


def main():
    report = compare(SPEC)
    print(f"linear rate, p=0.75, alpha=1, beta=0, t={SPEC.times[0]}")
    print("expected: transport by 0.5*t, density drop 1 -> 1/3 past u=0")
    print()
    print(f"{'N':>5}  {'L1 distance':>12}  {'right plateau':>14}")
    for e in report.entries:
        prof = report.mean_profiles[(e.N, e.t)]
        us = prof.centers
        plateau = prof.values[(us > 0.05) & (us < 0.35)].mean()
        print(f"{e.N:>5}  {e.distance:>12.4f}  {plateau:>14.4f}")
    print()
    print("the L1 distance shrinks with N; the plateau approaches 1/3")


if __name__ == "__main__":
    main()
