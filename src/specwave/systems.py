"""Quasilinear systems with polynomial coefficient matrices.

A system is d coefficient matrices A_j(U) with polynomial entries,
optionally a polynomial symmetrizer S(U) (and a constant factorization
A_j = SJ0_j S(U) when the system has Hamiltonian structure), plus named
hyperbolicity predicates that must stay positive.  Derived, not declared:
the constant/varying split of each A_j, the energy density H with
S = D^2 H when S is a Hessian (Godunov-Mock: such an S comes with the
conserved density H), and from both the quadratic flux Q of the
Hamiltonian form.  The three shallow-water variants ship as definition
files in sysdefs/, read with the one parser of that format (sysio).
The checks of a system's structure prove polynomial identities on
coefficients; only positive definiteness of S is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from importlib.resources import files

import numpy as np

from .poly import Poly, PolyMatrix
from .spectral import StateField

__all__ = [
    "SystemDef",
    "builtin_names",
    "builtin_system",
    "check_symmetrizer",
    "check_compatibility_AS",
    "check_factorization",
    "check_system",
    "hamiltonian_energy",
    "sample_hyperbolic_points",
]

@dataclass(frozen=True)
class SystemDef:
    """Quasilinear first-order system dU/dt + sum_j A_j(U) d_j U = 0."""

    name: str
    d: int
    n: int
    A: tuple[PolyMatrix, ...]
    S: PolyMatrix | None = None
    SJ0: tuple[np.ndarray, ...] | None = None
    predicates: tuple[tuple[str, Poly], ...] = ()

    def __post_init__(self) -> None:
        if len(self.A) != self.d:
            raise ValueError("need one coefficient matrix per spatial direction")
        object.__setattr__(self, "A0", tuple(Aj.constant_part() for Aj in self.A))
        object.__setattr__(self, "A1", tuple(Aj.minus_constant() for Aj in self.A))
        object.__setattr__(self, "H", None if self.S is None else _energy_density(self.S))

    @cached_property
    def Q(self) -> tuple[Poly, ...] | None:
        """Components of the flux Q = DH(U) - S(0) U, or None.

        Kept when SJ0 is registered, A_j = SJ0_j S(U) holds on coefficients
        and deg H <= 3.  Then S = D^2 H gives the varying part of the system
        as A1_j(U) d_j U = SJ0_j d_j Q(U), with Q a quadratic.  Derived on
        first use and kept: the check multiplies polynomial matrices.
        """
        H = self.H
        if H is None or self.SJ0 is None or H.degree() > 3 or check_factorization(self):
            return None
        S0 = self.S.constant_part()
        unit = [tuple(e) for e in np.eye(self.n, dtype=int)]
        return tuple(H.diff(c) - Poly.from_terms(self.n, zip(unit, S0[c])) for c in range(self.n))


def _energy_density(S: PolyMatrix) -> Poly | None:
    """The density H with D^2 H = S and H(0) = DH(0) = 0, or None if S is no Hessian.

    The candidate is Taylor's H(U) = int_0^1 (1-t) U^T S(tU) U dt, in which
    a monomial of S of degree m enters with weight 1/((m+1)(m+2)); it is
    kept only when its Hessian equals S coefficient by coefficient.
    """
    terms = []
    for a, row in enumerate(S.entries):
        for b, p in enumerate(row):
            for e, c in p.terms:
                expo = list(e)
                expo[a] += 1
                expo[b] += 1
                m = sum(e)
                terms.append((expo, c / ((m + 1) * (m + 2))))
    H = Poly.from_terms(S.nvars, terms)
    hessian = PolyMatrix.build(S.n, [[H.diff(a).diff(b) for b in range(S.n)] for a in range(S.n)])
    return H if hessian.equals(S) else None


# ---------------------------------------------------------------------------
# Built-in systems: the definition files sysdefs/NAME.txt shipped in this package


@cache
def _builtin_texts() -> dict[str, str]:
    """The text of every shipped definition file, by system name, in file-name order."""
    entries = [e for e in files(__package__).joinpath("sysdefs").iterdir() if e.name.endswith(".txt")]
    return {e.name.removesuffix(".txt"): e.read_text(encoding="utf-8") for e in sorted(entries, key=lambda e: e.name)}


def builtin_names() -> list[str]:
    return list(_builtin_texts())


def builtin_system(name: str) -> SystemDef:
    from .sysio import parse_system_text  # imported here: sysio imports this module

    try:
        text = _builtin_texts()[name]
    except KeyError:
        known = ", ".join(builtin_names())
        raise ValueError(f"unknown system {name!r}; built-ins: {known}") from None
    return parse_system_text(text)


# ---------------------------------------------------------------------------
# Structural checks


SAMPLE_COUNT = 200  # points check_system draws for the definiteness of S


def _halton(start: int, count: int, d: int) -> np.ndarray:
    """Points start..start+count-1 of the unscrambled Halton sequence in [0, 1)^d:
    on axis j, the radical inverse of the index in the j-th prime base, its
    digits summed from the least significant one up."""
    bases: list[int] = []
    candidate = 2
    while len(bases) < d:
        if all(candidate % p for p in bases):
            bases.append(candidate)
        candidate += 1
    out = np.zeros((count, d))
    for j, base in enumerate(bases):
        index = np.arange(start, start + count)
        scale = 1.0 / base
        while index.any():
            out[:, j] += (index % base) * scale
            index //= base
            scale /= base
    return out


def sample_hyperbolic_points(sys: SystemDef) -> np.ndarray:
    """Deterministic low-discrepancy samples inside the hyperbolicity domain.

    Halton points in the box [-0.9, 0.9]^n, drawn in batches of 256 until
    SAMPLE_COUNT are accepted or 20000 are drawn; each batch is kept where
    every predicate is positive, in draw order, so the first k points are
    the first k accepted draws.
    """
    lo, hi = -0.9, 0.9
    accepted: list[np.ndarray] = []
    drawn = 0
    while len(accepted) < SAMPLE_COUNT and drawn < 20000:
        pts = lo + (hi - lo) * _halton(drawn, 256, sys.n)
        drawn += 256
        inside = np.ones(len(pts), dtype=bool)
        for _, p in sys.predicates:
            inside &= p.eval_on(pts.T) > 0.0
        accepted.extend(pts[inside][: SAMPLE_COUNT - len(accepted)])
    return np.array(accepted).reshape(-1, sys.n)


def check_symmetrizer(sys: SystemDef, samples: np.ndarray) -> list[str]:
    """The failures of: S(U) and every S(U)A_j(U) symmetric, proved on
    coefficients; S(U) positive definite at each sample point (a row)."""
    if sys.S is None:
        raise ValueError(f"system {sys.name!r} has no symmetrizer registered")
    failures = []
    if not sys.S.is_symmetric():
        failures.append("S not symmetric")
    for j, Aj in enumerate(sys.A):
        if not (sys.S @ Aj).is_symmetric():
            failures.append(f"S*A_{j} not symmetric")
    values = np.array([[p.eval_on(samples.T) for p in row] for row in sys.S.entries])  # S[a, b] at each sample
    lowest = np.linalg.eigvalsh(values.transpose(2, 0, 1))[:, 0]
    bad = lowest <= 0.0
    for p, lam in zip(samples[bad], lowest[bad]):
        failures.append(f"S not positive definite at {tuple(p)} (min eig {lam:.3e})")
    return failures


def check_compatibility_AS(sys: SystemDef) -> list[str]:
    """The failures of: S0 A0_j, S0 A1_j(U) + S1(U) A0_j and S1(U) A1_j(U)
    symmetric, proved on coefficients."""
    if sys.S is None:
        raise ValueError(f"system {sys.name!r} has no symmetrizer registered")
    failures = []
    S0 = PolyMatrix.from_constant(sys.S.constant_part(), sys.n)
    S1 = sys.S.minus_constant()
    for j, (a0, A1j) in enumerate(zip(sys.A0, sys.A1)):
        A0j = PolyMatrix.from_constant(a0, sys.n)
        if not (S0 @ A0j).is_symmetric():
            failures.append(f"S0*A0_{j} not symmetric")
        if not (S0 @ A1j + S1 @ A0j).is_symmetric():
            failures.append(f"S0*A1_{j} + S1*A0_{j} not symmetric")
        if not (S1 @ A1j).is_symmetric():
            failures.append(f"S1*A1_{j} not symmetric")
    return failures


def check_factorization(sys: SystemDef) -> list[str]:
    """The failures of the exact polynomial identity A_j(U) = SJ0_j S(U),
    coefficient by coefficient."""
    if sys.SJ0 is None or sys.S is None:
        raise ValueError(f"system {sys.name!r} has no factorization A_j = SJ0_j S registered")
    failures = []
    for j, (sj0, Aj) in enumerate(zip(sys.SJ0, sys.A)):
        if np.max(np.abs(sj0 - sj0.T)) > 0.0:
            failures.append(f"SJ0_{j} not symmetric")
        if not (PolyMatrix.from_constant(sj0, sys.n) @ sys.S).equals(Aj):
            failures.append(f"A_{j} != SJ0_{j} * S as polynomials")
    return failures


def check_system(sys: SystemDef) -> list[tuple[str, str, str, list[str]]]:
    """The lines of check-system: (label, PASS | FAIL | SKIP, how it was
    decided or why it was skipped, failures).  Each check runs only when what
    it needs is registered; SJ0 without S fails, since A_j = SJ0_j S needs S,
    and so does a symmetrizer check with no sample point in the domain,
    where positive definiteness went untested."""
    degree = max(Aj.max_degree() for Aj in sys.A)
    lines = [("polynomial-entries", "PASS", f"max degree {degree}", [])]

    def ran(label: str, failures: list[str], how: str) -> None:
        lines.append((label, "FAIL" if failures else "PASS", how, failures))

    if sys.S is None:
        lines += [(label, "SKIP", "none registered", []) for label in ("symmetrizer", "compatibility-split")]
    else:
        samples = sample_hyperbolic_points(sys)
        how = f"symmetry exact; positive definite at {len(samples)} samples"
        failures = check_symmetrizer(sys, samples)
        if not len(samples):
            failures.append("S positive definiteness untested: no sample point satisfies the predicates")
        ran("symmetrizer", failures, how)
        ran("compatibility-split", check_compatibility_AS(sys), "exact")
    if sys.SJ0 is None:
        lines.append(("constant-factorization", "SKIP", "no factor matrices registered", []))
    elif sys.S is None:
        lines.append(("constant-factorization", "FAIL", "SJ0 registered without S", []))
    else:
        ran("constant-factorization", check_factorization(sys), "exact")
    if sys.S is None:
        lines.append(("energy-density", "SKIP", "none registered", []))
    elif sys.H is None:
        lines.append(("energy-density", "SKIP", "S is not a Hessian", []))
    else:
        lines.append(("energy-density", "PASS", "exact: S = D^2 H", []))
    return lines


# ---------------------------------------------------------------------------
# State-level diagnostics


def hamiltonian_energy(sys: SystemDef, state: StateField) -> float:
    """Energy: the integral of the system's density H (sys.H, derived from S),
    one per state of a stack.

    The collocation sum cell_volume * sum H(U) over the state's samples.
    For a state supported in |k| <= N it is the exact integral when
    deg(H) N < 2M: H(U) then has modes up to deg(H) N, and the 2M grid
    folds none of them onto k = 0.  Every state evolve produces has
    3N < 2M, which covers the cubic shallow-water density.
    """
    return state.grid.cell_volume * state.per_state(np.add, sys.H.eval_on(state.variables))
