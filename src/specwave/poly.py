"""Sparse multivariate polynomials and polynomial-valued matrices.

A polynomial in the n state components is a map from nonnegative integer
exponent tuples to real coefficients.  This is the representation behind
the coefficient matrices of the quasilinear systems and their
symmetrizers; identity checks compare coefficients exactly rather than
sampling.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["Poly", "PolyMatrix"]

COEFF_TOL = 1e-14


@dataclass(frozen=True)
class Poly:
    """Polynomial in nvars variables as a sparse monomial map."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    @classmethod
    def from_terms(cls, nvars: int, terms: Iterable[tuple[Sequence[int], float]]) -> "Poly":
        merged: dict[tuple[int, ...], float] = {}
        for expo, coeff in terms:
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
        return cls.from_terms(nvars, [((0,) * nvars, c)])

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

    def eval_on(self, arrays: np.ndarray) -> np.ndarray:
        """Evaluate pointwise, variable i at arrays[i]: a state's or a stack's
        StateField.variables, or a point set as columns (points.T).

        Gives the bits of a sum of the monomials in term order that starts
        from zeros, without the zeros: the first monomial is written into
        the output, each later one is built in one scratch buffer and
        added.  Such a sum never ends in -0.0, so 0.0 is added once at the
        end when every monomial can be -0.0.
        """
        if not self.terms:
            return np.zeros_like(arrays[0])
        (e, c), *rest = self.terms
        out = _monomial(e, c, arrays, np.empty_like(arrays[0]))
        term = np.empty_like(out) if rest else None
        for e, c in rest:
            out += _monomial(e, c, arrays, term)
        # a monomial can be -0.0 unless it is a constant or has only even
        # powers and a positive coefficient
        if all(any(e) and (c < 0.0 or any(p % 2 for p in e)) for e, c in self.terms):
            out += 0.0
        return out


def _monomial(e: tuple[int, ...], c: float, arrays: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c * f_1 * f_2 * ... into out, f = arrays[i] ** p over the nonzero
    powers p = e[i], multiplied left to right; a coefficient of exactly 1.0
    is not multiplied, since 1.0 * f is f."""
    factors = [(arrays[i], p) for i, p in enumerate(e) if p]
    if not factors:
        out.fill(c)
        return out
    (a, p), *rest = factors
    if p > 1:
        np.square(a, out=out) if p == 2 else np.power(a, p, out=out)  # the bits of a ** p
        if c != 1.0:
            out *= c
    elif c != 1.0:
        np.multiply(a, c, out=out)
    elif rest:
        (b, q), *rest = rest
        np.multiply(a, b if q == 1 else b**q, out=out)
    else:
        np.copyto(out, a)
    for b, q in rest:
        out *= b if q == 1 else b**q
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
        """Each entry is one merge of the products' terms in k order, which
        adds each exponent's coefficients in the order of a sum over k."""
        n = range(self.n)
        rows = [
            [Poly.from_terms(self.nvars, [t for k in n for t in (self.entries[i][k] * other.entries[k][j]).terms])
             for j in n]
            for i in n
        ]
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
