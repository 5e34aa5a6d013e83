"""On-site states and finite mixtures of product states.

An on-site state is a 4x4 density matrix D acting on the one-site Fock
space; expectations are rho(A) = Trace(D A).  The even states (those
commuting with the one-site parity) form the phase space of the classical
layer; evenness here means the two off-diagonal blocks between the
{vacuum, doubly-occupied} and {up, down} sectors vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from . import fock

HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-10
TRACE_TOL = 1e-10
EVENNESS_TOL = 1e-10
#: Weight of the maximally mixed state in every OnSiteState.random_even draw.
RANK_FLOOR = 1e-3


def parity_commutator_norm(matrix: np.ndarray) -> Union[float, np.ndarray]:
    """Max-norm of [matrix, parity], one per matrix of a stack (..., 4, 4); zero iff even."""
    p = fock.PARITY_1
    return np.abs(matrix @ p - p @ matrix).max(axis=(-2, -1))


def _where(bad: np.ndarray) -> str:
    """'at index k: ' for the first failing matrix of a stack, '' for one matrix."""
    return f"at index {np.flatnonzero(bad)[0]}: " if np.ndim(bad) else ""


@dataclass(frozen=True)
class OnSiteState:
    """A 4x4 density matrix on the one-site Fock space.

    Construct via :meth:`from_matrix` (or the named constructors below),
    which checks the matrix and stores it exactly Hermitian.
    """

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "OnSiteState":
        """The state of a density matrix: finite entries, Hermitian, unit trace
        and positive, each to 1e-10.  The matrix is stored made exactly
        Hermitian, as a read-only array."""
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"on-site state must be 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        adjoint = m.conj().T
        if np.max(np.abs(m - adjoint)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        m = 0.5 * (m + adjoint)
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1 within 1e-10")
        low = np.linalg.eigvalsh(m)[0]
        if low < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has eigenvalue {low} < -1e-10")
        m.setflags(write=False)
        return cls(matrix=m)

    @classmethod
    def vacuum(cls) -> "OnSiteState":
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        return cls.from_matrix(m)

    @classmethod
    def doubly_occupied(cls) -> "OnSiteState":
        m = np.zeros((4, 4), dtype=complex)
        m[3, 3] = 1.0
        return cls.from_matrix(m)

    @classmethod
    def maximally_mixed(cls) -> "OnSiteState":
        return cls.from_matrix(np.eye(4, dtype=complex) / 4.0)

    @classmethod
    def pure(cls, vector: Sequence[complex]) -> "OnSiteState":
        v = np.asarray(vector, dtype=complex).reshape(4)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero vector cannot define a state")
        v = v / norm
        return cls.from_matrix(np.outer(v, v.conj()))

    @classmethod
    def pair_superposition(cls, angle: float, phase: float = 0.0) -> "OnSiteState":
        """Pure even state cos(angle)|vac> + e^{i phase} sin(angle)|updn>."""
        v = np.zeros(4, dtype=complex)
        v[0] = np.cos(angle)
        v[3] = np.exp(1j * phase) * np.sin(angle)
        return cls.pure(v)

    @classmethod
    def random_even(cls, rng: np.random.Generator) -> "OnSiteState":
        """Full-rank random even state (independent Wishart blocks).

        RANK_FLOOR of the maximally mixed state is mixed in, so every
        eigenvalue is at least RANK_FLOOR / 4.
        """
        def wishart(k: int) -> np.ndarray:
            a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            return a @ a.conj().T

        m = np.zeros((4, 4), dtype=complex)
        m[::3, ::3] = wishart(2)  # rows and columns 0 and 3
        m[1:3, 1:3] = wishart(2)
        m = m / np.trace(m).real
        m = (1.0 - RANK_FLOOR) * m + RANK_FLOOR * np.eye(4) / 4.0
        return cls.from_matrix(m)

    def expect(self, op: np.ndarray) -> complex:
        """Expectation rho(A) = Trace(D A)."""
        return complex(np.trace(self.matrix @ op))

    def pair_expectation(self) -> complex:
        """rho(a_dn a_up), the Cooper-field density."""
        return self.expect(fock.PAIR)

    def require_even(self) -> None:
        dev = parity_commutator_norm(self.matrix)
        if dev > EVENNESS_TOL:
            raise ValueError(
                f"even state required (parity commutator norm {dev:.2e} > {EVENNESS_TOL})"
            )


@dataclass(frozen=True)
class ProductMixture:
    """A finite convex combination of even on-site states.

    Represents the permutation-invariant initial state sum_j u_j (product
    of rho_j over all sites); weights must be nonnegative and sum to one.
    """

    weights: Tuple[float, ...]
    states: Tuple[OnSiteState, ...]

    @classmethod
    def from_components(
        cls, components: Iterable[Tuple[float, OnSiteState]]
    ) -> "ProductMixture":
        pairs = list(components)
        if not pairs:
            raise ValueError("mixture must have at least one component")
        weights = tuple(float(u) for u, _ in pairs)
        states = tuple(s for _, s in pairs)
        if min(weights) < 0:
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {sum(weights)}, expected 1")
        for s in states:
            s.require_even()
        return cls(weights=weights, states=states)

    @classmethod
    def single(cls, state: OnSiteState) -> "ProductMixture":
        return cls.from_components([(1.0, state)])

    def components(self) -> List[Tuple[float, OnSiteState]]:
        return list(zip(self.weights, self.states))
