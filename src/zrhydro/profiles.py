"""Piecewise-constant density profiles on a uniform macroscopic grid.

A profile is evaluated at many points in the compiled library
(``zrh_lookup``) when one loads, else by its numpy reference, bit for bit
the same.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _ckernel


class ProfileError(ValueError):
    pass


@dataclass
class DensityProfile:
    """Values on uniform cells [u_min + j*du, u_min + (j+1)*du)."""

    u_min: float
    du: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.du <= 0:
            raise ProfileError("cell width must be positive")
        if (self.values < 0).any():
            raise ProfileError("density values must be non-negative")

    @property
    def u_max(self) -> float:
        return self.u_min + self.du * len(self.values)

    @property
    def centers(self) -> np.ndarray:
        return self.u_min + self.du * (np.arange(len(self.values)) + 0.5)

    def __call__(self, u):
        """Evaluate pointwise; zero outside the covered interval and at
        NaN."""
        u = np.asarray(u, dtype=float)
        lib = _ckernel.load()
        if lib is None:
            out = self._lookup(u)
        else:
            out = np.empty(u.shape)
            values = np.ascontiguousarray(self.values)
            lib.zrh_lookup(np.ascontiguousarray(u), u.size, self.u_min,
                           self.du, values, values.size, out)
        if out.ndim == 0:
            return float(out)
        return out

    def _lookup(self, u: np.ndarray) -> np.ndarray:
        """The reference of ``zrh_lookup``: the cells are found as floats,
        so a NaN or infinite point is never cast to an index, and a point
        whose cell overflows lies outside the cells without a warning."""
        with np.errstate(over="ignore"):
            j = np.floor((u - self.u_min) / self.du)
        inside = (j >= 0) & (j < len(self.values))
        out = np.zeros(u.shape)
        out[inside] = self.values[j[inside].astype(np.int64)]
        return out

    def integral(self) -> float:
        return float(self.values.sum() * self.du)

    def support(self):
        """Smallest interval of cells with nonzero density."""
        nz = self.values.nonzero()[0]
        if len(nz) == 0:
            return (0.0, 0.0)
        return (self.u_min + self.du * nz[0],
                self.u_min + self.du * (nz[-1] + 1))

    def resample(self, u_min: float, u_max: float, du: float) -> "DensityProfile":
        """Cell-average this profile onto a new uniform grid."""
        n = int(round((u_max - u_min) / du))
        edges = u_min + du * np.arange(n + 1)
        # antiderivative of the piecewise-constant density
        own_edges = self.u_min + self.du * np.arange(len(self.values) + 1)
        cum = np.concatenate([[0.0], np.cumsum(self.values) * self.du])

        def F(u):
            u = np.clip(u, own_edges[0], own_edges[-1])
            return np.interp(u, own_edges, cum)

        vals = (F(edges[1:]) - F(edges[:-1])) / du
        return DensityProfile(u_min, du, np.maximum(vals, 0.0))

    def l1_distance(self, other, u_lo: float, u_hi: float,
                    exclude=()) -> float:
        """L1 distance on [u_lo, u_hi] minus the excluded intervals.

        ``other`` may be a DensityProfile or a callable of u.
        """
        if u_hi < u_lo:
            raise ProfileError(f"empty interval [{u_lo}, {u_hi}]")
        n = max(int(round((u_hi - u_lo) / min(self.du, 1e-3))), 1000)
        # the midpoints of n equal cells, with the arithmetic of
        # np.linspace(u_lo, u_hi, n, endpoint=False) + half a cell
        u = np.arange(n, dtype=float)
        u *= (u_hi - u_lo) / n
        u += u_lo
        u += (u_hi - u_lo) / (2 * n)
        err = self(u) - (other(u) if callable(other) else np.asarray(other))
        np.abs(err, out=err)
        # the points are sorted: each interval drops one slice of them
        drop = [(u.searchsorted(a), u.searchsorted(b, "right"))
                for a, b in exclude if a <= b]
        if drop:
            keep = np.ones(n, dtype=bool)
            for lo, hi in drop:
                keep[lo:hi] = False
            err = err[keep]
        return float(err.sum() * (u_hi - u_lo) / n)

    @classmethod
    def constant(cls, value: float, u_min: float, u_max: float,
                 du: float) -> "DensityProfile":
        n = int(round((u_max - u_min) / du))
        return cls(u_min, du, np.full(n, float(value)))

    @classmethod
    def from_callable(cls, f, u_min: float, u_max: float,
                      du: float) -> "DensityProfile":
        n = int(round((u_max - u_min) / du))
        centers = u_min + du * (np.arange(n) + 0.5)
        return cls(u_min, du, np.asarray([f(u) for u in centers], dtype=float))

    @classmethod
    def from_spec(cls, spec: str, du: float = 0.01) -> "DensityProfile":
        """Parse "a:b:v,a:b:v,..." into a piecewise-constant profile."""
        pieces = []
        for part in spec.split(","):
            try:
                a, b, v = (float(x) for x in part.split(":"))
            except ValueError as e:
                raise ProfileError(f"bad profile piece {part!r}") from e
            if b <= a:
                raise ProfileError(f"empty interval in piece {part!r}")
            pieces.append((a, b, v))
        u_min = min(a for a, _, _ in pieces)
        u_max = max(b for _, b, _ in pieces)
        n = int(round((u_max - u_min) / du))
        vals = np.zeros(n)
        centers = u_min + du * (np.arange(n) + 0.5)
        for a, b, v in pieces:
            vals[(centers >= a) & (centers < b)] = v
        return cls(u_min, du, vals)
