"""Sparse multivariate polynomials and polynomial-valued matrices.

A polynomial in the n state components is a map from nonnegative integer
exponent tuples to real coefficients.  This is the representation behind
the coefficient matrices of the quasilinear systems and their
symmetrizers; identity checks compare coefficients exactly rather than
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["Poly", "PolyMatrix"]

COEFF_TOL = 1e-14


@dataclass(frozen=True)
class Poly:
    """Polynomial in nvars variables as a sparse monomial map."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    @classmethod
    def from_terms(cls, nvars: int, terms: Mapping[tuple[int, ...], float] | Iterable) -> "Poly":
        merged: dict[tuple[int, ...], float] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for expo, coeff in items:
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise ValueError(f"exponent tuple {expo} has wrong arity for nvars={nvars}")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            merged[expo] = merged.get(expo, 0.0) + float(coeff)
        kept = tuple(sorted((e, c) for e, c in merged.items() if abs(c) > 0.0))
        return cls(nvars, kept)

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, ())

    @classmethod
    def const(cls, nvars: int, c: float) -> "Poly":
        return cls.from_terms(nvars, {(0,) * nvars: c})

    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def is_zero(self) -> bool:
        return all(abs(c) <= COEFF_TOL for _, c in self.terms)

    def constant(self) -> float:
        zero_expo = (0,) * self.nvars
        for e, c in self.terms:
            if e == zero_expo:
                return c
        return 0.0

    def __add__(self, other: "Poly") -> "Poly":
        return Poly.from_terms(self.nvars, list(self.terms) + list(other.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-1.0) * other

    def __rmul__(self, a: float) -> "Poly":
        return Poly.from_terms(self.nvars, [(e, a * c) for e, c in self.terms])

    def __mul__(self, other: "Poly") -> "Poly":
        out: list = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                out.append((tuple(a + b for a, b in zip(e1, e2)), c1 * c2))
        return Poly.from_terms(self.nvars, out)

    def diff(self, i: int) -> "Poly":
        """Partial derivative with respect to variable i."""
        return Poly.from_terms(
            self.nvars,
            [(e[:i] + (e[i] - 1,) + e[i + 1 :], e[i] * c) for e, c in self.terms if e[i]],
        )

    def __call__(self, point: Sequence[float]) -> float:
        """Value at one point: eval_on on a one-point stack, so the same bits as in a batch."""
        return float(self.eval_on(np.asarray(point, dtype=np.float64)[:, None])[0])

    def eval_on(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate pointwise on a stack of component sample arrays; each
        monomial is formed in one scratch buffer and added to the output."""
        out = np.zeros_like(arrays[0])
        term = np.empty_like(out)
        for e, c in self.terms:
            term.fill(c)
            for i, p in enumerate(e):
                if p == 1:
                    term *= arrays[i]
                elif p > 1:
                    term *= arrays[i] ** p
            out += term
        return out


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix with polynomial entries in the n state components."""

    n: int
    entries: tuple[tuple[Poly, ...], ...]

    @classmethod
    def build(cls, n: int, rows: Sequence[Sequence[Poly]]) -> "PolyMatrix":
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n}x{n} entries")
        return cls(n, tuple(tuple(r) for r in rows))

    @classmethod
    def from_constant(cls, mat: np.ndarray, nvars: int) -> "PolyMatrix":
        mat = np.asarray(mat, dtype=np.float64)
        n = mat.shape[0]
        rows = [[Poly.const(nvars, float(mat[i, j])) for j in range(n)] for i in range(n)]
        return cls.build(n, rows)

    @property
    def nvars(self) -> int:
        return self.entries[0][0].nvars

    def max_degree(self) -> int:
        return max(p.degree() for row in self.entries for p in row)

    def eval(self, point: Sequence[float]) -> np.ndarray:
        """Entrywise evaluation at a point in R^n."""
        return np.array([[p(point) for p in row] for row in self.entries])

    def constant_part(self) -> np.ndarray:
        return np.array([[p.constant() for p in row] for row in self.entries])

    def minus_constant(self) -> "PolyMatrix":
        return self - PolyMatrix.from_constant(self.constant_part(), self.nvars)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        rows = [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ]
        return PolyMatrix.build(self.n, rows)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        rows = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ]
        return PolyMatrix.build(self.n, rows)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        nv = self.nvars
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                acc = Poly.zero(nv)
                for k in range(self.n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return PolyMatrix.build(self.n, rows)

    def transpose(self) -> "PolyMatrix":
        rows = [[self.entries[j][i] for j in range(self.n)] for i in range(self.n)]
        return PolyMatrix.build(self.n, rows)

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def is_symmetric(self) -> bool:
        return (self - self.transpose()).is_zero()

    def equals(self, other: "PolyMatrix") -> bool:
        return (self - other).is_zero()
