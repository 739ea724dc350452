"""Smooth compactly supported test functions with analytic derivatives.

The basic building block is the polynomial bump b(s) = (1 - s^2)^2 on
|s| < 1 (zero outside), which is C^1 with b'(s) = -4 s (1 - s^2).
Two-dimensional test functions H(t, u) are products of shifted and
scaled bumps; entropy-inequality checkers require the partial
derivatives, so they are supplied analytically rather than by
differencing.  They come as 1-d factors in t and in u (``t_factors``,
``u_factors``), whose products the checker forms where it reads them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def bumps(s):
    """(b(s), b'(s)): (1 - s^2)^2 and -4 s (1 - s^2) on |s| < 1, zero
    outside."""
    s = np.asarray(s, dtype=float)
    inside, q = np.abs(s) < 1.0, 1.0 - s * s
    b, db = np.where(inside, q ** 2, 0.0), np.where(inside, -4.0 * s * q, 0.0)
    return (b, db) if b.ndim else (float(b), float(db))


@dataclass(frozen=True)
class TestFunction2D:
    """H(t, u) = b((t - t0)/wt) * b((u - u0)/wu), with derivatives as
    factors."""

    __test__ = False  # not a test case, despite the name

    t_center: float
    t_halfwidth: float
    u_center: float
    u_halfwidth: float
    name: str = "bump"

    @property
    def t_support(self):
        return (self.t_center - self.t_halfwidth,
                self.t_center + self.t_halfwidth)

    @property
    def u_support(self):
        return (self.u_center - self.u_halfwidth,
                self.u_center + self.u_halfwidth)

    def t_factors(self, t):
        """(b'(s_t) / wt, b(s_t)) at times t: dH/dt = b'(s_t) / wt * b(s_u)
        and dH/du = (b(s_t) * b'(s_u)) / wu."""
        st = (np.asarray(t, dtype=float) - self.t_center) / self.t_halfwidth
        b, db = bumps(st)
        return db / self.t_halfwidth, b

    def u_factors(self, u):
        """(b(s_u), b'(s_u)) at positions u; H = b(s_t) * b(s_u)."""
        su = (np.asarray(u, dtype=float) - self.u_center) / self.u_halfwidth
        return bumps(su)

    def sup_dt(self) -> float:
        # max of |b'| is 8/(3 sqrt 3) at s = 1/sqrt(3); |b| <= 1
        return 8.0 / (3.0 * np.sqrt(3.0)) / self.t_halfwidth

    def sup_du(self) -> float:
        return 8.0 / (3.0 * np.sqrt(3.0)) / self.u_halfwidth


def bump_family(t_window, u_window, n_t: int = 2,
                n_u: int = 3) -> list[TestFunction2D]:
    """A grid of bumps covering (t_window) x (u_window)."""
    t0, t1 = t_window
    u0, u1 = u_window
    wt = (t1 - t0) / (n_t + 1)
    wu = (u1 - u0) / (n_u + 1)
    fam = []
    for i in range(n_t):
        for j in range(n_u):
            tc = t0 + wt * (i + 1)
            uc = u0 + wu * (j + 1)
            fam.append(TestFunction2D(tc, wt, uc, wu,
                                      name=f"bump[{i},{j}]"))
    return fam


def hat_profile_callable(center: float, halfwidth: float):
    """Triangular profile as a closure, for exact-solution comparisons: 1
    at the center, linear to 0 at the edges."""
    def f(u):
        u = np.asarray(u, dtype=float)
        out = np.maximum(0.0, 1.0 - np.abs(u - center) / halfwidth)
        return out if out.ndim else float(out)
    return f
