"""Model definition: Hamiltonians, the one-site algebra and the energy bound.

The model couples a purely on-site part (Coulomb repulsion 2*lam n_up n_dn,
chemical potential mu, magnetic field h) to an infinite-range pair-hopping
term scaled by inverse volume,

    H_N = sum_x h_x - (gamma/N) sum_{x,y} a+_{x,up} a+_{x,dn} a_{y,dn} a_{y,up},

for N lattice sites.  Because the model is permutation invariant only the
site count matters, so all builders take N directly (a cubic box of side L
in d dimensions corresponds to N = (2L+1)**d).

The N-site builders share per-N pieces made once (``_hamiltonian_terms``):
the site sums of n_up, n_dn and n_up n_dn, the pair hopping c0+ c0, the
basis grouped by (N_up, N_dn) and the dense pair-hopping block of each
sector, scattered from the stored entries of c0+ c0 in one pass.  Every
term conserves both numbers, so :func:`spectrum` diagonalizes H_N one
sector block at a time, each block the on-site diagonal plus -gamma times
the cached hopping block.

The one-site algebra that the mean-field flow and the equilibrium theory
share is defined here once: the decoupled operator h0 - gamma (c P+ + cbar P)
(:func:`decoupled_hamiltonian`) and its action R -> i[dh(c), R] on
time-last stacks (:func:`decoupled_action`), the Cooper field rho(P)
(:func:`cooper_field`), the flow generator at the state's own Cooper field
(:func:`effective_hamiltonian`), the rotation frequency nu of that field
(:func:`precession`) and the commutator of two Hermitian operators
(:func:`hermitian_commutator`).

The extensivity bound ||H_N|| <= C N ||m|| (:func:`energy_bound_check`)
is evaluated in closed form for this chain: C = pi**2/3 - 1 and
||m|| = ||h0|| + 4 C gamma.  scipy is imported inside the sparse builders
that call it, not when the module loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, List, NamedTuple, Tuple, Union

import numpy as np

from . import fock
from .states import OnSiteState

if TYPE_CHECKING:
    import scipy.sparse as sp

StateLike = Union[OnSiteState, np.ndarray]


@dataclass(frozen=True)
class ModelParams:
    """The four real couplings.

    mu    : chemical potential
    h     : external magnetic field
    lam   : on-site (Hubbard) repulsion strength, >= 0
    gamma : pair-hopping (BCS) coupling, >= 0
    """

    mu: float = 0.0
    h: float = 0.0
    lam: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mu", "h", "lam", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")

    @classmethod
    def random(cls, rng: np.random.Generator, gamma_max: float = 2.0) -> "ModelParams":
        """Seeded draw: mu, h uniform on (-1, 1), lam on (0, 1), gamma on (0, gamma_max).

        The four draws are made in that order from ``rng``.
        """
        return cls(
            mu=float(rng.uniform(-1.0, 1.0)),
            h=float(rng.uniform(-1.0, 1.0)),
            lam=float(rng.uniform(0.0, 1.0)),
            gamma=float(rng.uniform(0.0, gamma_max)),
        )


def density_matrix(rho: StateLike) -> np.ndarray:
    """The 4x4 matrix of an on-site state, or the array itself as complex."""
    return rho.matrix if isinstance(rho, OnSiteState) else np.asarray(rho, dtype=complex)


def onsite_h(params: ModelParams) -> np.ndarray:
    """One-site energy 2*lam n_up n_dn - mu (n_up + n_dn) - h (n_up - n_dn).

    Diagonal in the occupation basis with entries
    (0, -mu-h, -mu+h, 2*lam-2*mu).
    """
    return (
        2.0 * params.lam * fock.N_UP @ fock.N_DN
        - params.mu * (fock.N_UP + fock.N_DN)
        - params.h * (fock.N_UP - fock.N_DN)
    )


class _Terms(NamedTuple):
    """The parameter-free pieces of H_N for one site count."""

    counts: np.ndarray  # rows: diagonals of sum_x n_up, sum_x n_dn, sum_x n_up n_dn
    pair_hopping: sp.csr_matrix  # c0+ c0
    sectors: Tuple[np.ndarray, ...]  # basis indices of each (N_up, N_dn) pair
    hopping_blocks: Tuple[np.ndarray, ...]  # dense c0+ c0 restricted to each sector


@lru_cache(maxsize=None)
def _hamiltonian_terms(n_sites: int) -> _Terms:
    """Built once per site count and shared by every parameter set."""
    fock.check_site_count(n_sites)
    one_site = np.array([np.diag(op).real for op in (fock.N_UP, fock.N_DN, fock.N_UP @ fock.N_DN)])
    counts = sum(
        np.kron(np.kron(np.ones(4**x), one_site), np.ones(4 ** (n_sites - 1 - x)))
        for x in range(n_sites)
    )
    c0 = fock.condensate_op(n_sites)
    key = counts[0].astype(int) * (n_sites + 1) + counts[1].astype(int)
    order = np.argsort(key, kind="stable")
    order.setflags(write=False)  # the sectors are views of it, shared by every caller
    starts = np.flatnonzero(np.diff(key[order])) + 1
    sectors = tuple(np.split(order, starts))
    hopping = (c0.conj().T @ c0).tocsr()
    # scatter every stored entry into its sector's block, all blocks in one buffer
    sizes = np.diff(starts, prepend=0, append=len(order))
    sector = np.empty_like(order)
    sector[order] = np.repeat(np.arange(len(sizes)), sizes)
    position = np.empty_like(order)
    position[order] = np.arange(len(order)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    offsets = np.cumsum(sizes**2) - sizes**2
    entries = hopping.tocoo()
    block_of = sector[entries.row]
    buffer = np.zeros(int((sizes**2).sum()), dtype=complex)
    buffer[offsets[block_of] + position[entries.row] * sizes[block_of] + position[entries.col]] = (
        entries.data
    )
    buffer.setflags(write=False)
    blocks = tuple(buffer[o : o + n * n].reshape(n, n) for o, n in zip(offsets, sizes))
    return _Terms(counts, hopping, sectors, blocks)


def hamiltonian_sparse(n_sites: int, params: ModelParams) -> sp.csr_matrix:
    """Full Hamiltonian as sparse CSR (N up to fock.DENSE_SITE_LIMIT)."""
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    terms = _hamiltonian_terms(n_sites)
    onsite = _onsite_diagonal(terms, params)
    return (sp.diags(onsite.astype(complex)) - params.gamma * terms.pair_hopping).tocsr()


def _onsite_diagonal(terms: _Terms, params: ModelParams) -> np.ndarray:
    """Diagonal of sum_x h0_x: 2 lam W - mu (N_up + N_dn) - h (N_up - N_dn)."""
    n_up, n_dn, double = terms.counts
    return 2.0 * params.lam * double - params.mu * (n_up + n_dn) - params.h * (n_up - n_dn)


def hamiltonian(n_sites: int, params: ModelParams) -> np.ndarray:
    """Full Hamiltonian as a dense 4**N array (N up to the dense limit)."""
    return hamiltonian_sparse(n_sites, params).toarray()


def sector_blocks(n_sites: int, params: ModelParams) -> List[Tuple[np.ndarray, np.ndarray]]:
    """H_N as its direct sum: (basis indices, dense block) per (N_up, N_dn) sector.

    Exact: the on-site part is diagonal and pair hopping moves an up-down
    pair as a whole.  At N = 5 the largest block is 100 x 100.
    """
    terms = _hamiltonian_terms(n_sites)
    onsite = _onsite_diagonal(terms, params)
    return [
        (idx, np.diag(onsite[idx]) - params.gamma * hopping)
        for idx, hopping in zip(terms.sectors, terms.hopping_blocks)
    ]


def spectrum(n_sites: int, params: ModelParams) -> np.ndarray:
    """Sorted eigenvalues of H_N, from one eigvalsh per (N_up, N_dn) sector."""
    blocks = sector_blocks(n_sites, params)
    return np.sort(np.concatenate([np.linalg.eigvalsh(b) for _, b in blocks]))


def decoupled_hamiltonian(params: ModelParams, c: Union[complex, np.ndarray]) -> np.ndarray:
    """The pair-field-decoupled one-site operator h0 - gamma (c P+ + cbar P).

    P = a_dn a_up.  With c the state's own Cooper field rho(P) this is the
    generator of the mean-field flow (:func:`effective_hamiltonian`); with c
    a variational order parameter it gives the one-site pressure and the
    gap equation.  ``c`` may be an array; the operators then come back
    stacked, with shape ``np.shape(c) + (4, 4)``.
    """
    c = np.asarray(c)[..., None, None]
    return onsite_h(params) - params.gamma * (c * fock.PAIR_DAG + np.conj(c) * fock.PAIR)


def decoupled_action(params: ModelParams, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """i [dh(c), R] for the decoupled operator dh(c) at each of K fields c.

    ``r`` is time-last: operators on its axes (-3, -2) and one node per
    field on its last axis, shape (..., 4, 4, K); ``c`` has shape (K,).
    Applied from the structure of dh instead of by matrix products: h0 is
    diagonal with entries e, so [h0, R] = (e_i - e_j) R_ij, and with
    P = |p><q| the commutator [P+, R] copies row p of R into row q and
    subtracts column q from column p; [P, R] does the reverse.
    """
    e = np.diag(onsite_h(params)).real
    out = (1j * (e[:, None] - e[None, :]))[:, :, None] * r
    p, q = fock.PAIR_ENTRY
    for f, src, dst in ((1j * params.gamma * c, p, q), (1j * params.gamma * np.conj(c), q, p)):
        out[..., dst, :, :] -= f * r[..., src, :, :]
        out[..., :, src, :] += f * r[..., :, dst, :]
    return out


def cooper_field(rho: StateLike) -> Union[complex, np.ndarray]:
    """rho(P) = Trace(D P) = D_qp with P = a_dn a_up = |p><q|, of one state
    or a stack (..., 4, 4)."""
    p, q = fock.PAIR_ENTRY
    return density_matrix(rho)[..., q, p]


def effective_hamiltonian(params: ModelParams, rho: StateLike) -> np.ndarray:
    """State-dependent one-site generator of the mean-field flow.

    dh(rho) = h0 - gamma ( P+ rho(P) + rho(P+) P ), the decoupled operator
    at c = rho(P).  Hermitian; reduces to h0 whenever rho(a_dn a_up) = 0.
    ``rho`` may also be a stack (..., 4, 4) of density matrices; the
    generators then come back stacked the same way.
    """
    return decoupled_hamiltonian(params, cooper_field(rho))


def hermitian_commutator(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[h, d] of Hermitian h and d, or of stacks of them, as X - X^dagger with X = h d.

    One matrix product instead of two: (h d)^dagger = d h for Hermitian
    factors, and X - X^dagger is exactly anti-Hermitian in floating point.
    """
    x = h @ d
    return x - x.swapaxes(-1, -2).conj()


def precession(params: ModelParams, d: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Rotation frequency nu = 2(mu - lam) + gamma (1 - d) of the Cooper field.

    Along the mean-field flow rho(a_dn a_up) rotates rigidly at this rate,
    fixed by the conserved density d; ``d`` may be an array.
    """
    return 2.0 * (params.mu - params.lam) + params.gamma * (1.0 - d)


# sum_{x in Z} (1+|x|)**-2 = 1 + 2 sum_{k>=2} k**-2 = 2 zeta(2) - 1
LATTICE_CONSTANT = math.pi**2 / 3.0 - 1.0


@dataclass(frozen=True)
class EnergyBoundResult:
    lhs: float  # ||H_N||
    rhs: float  # C * N * ||m||
    passed: bool


def energy_bound_check(n_sites: int, params: ModelParams) -> EnergyBoundResult:
    """Check the extensivity bound ||H_N|| <= C * N * ||m|| on the chain.

    ||m|| = ||h0|| + 4 C gamma is the norm of the model: the on-site part
    plus the pair-hopping atom of weight gamma, whose two factors have
    unit norm (n**2 C**(n-1) = 4 C at order n = 2).  C is
    :data:`LATTICE_CONSTANT`.
    """
    lhs = float(np.max(np.abs(spectrum(n_sites, params))))
    h0_norm = float(np.max(np.abs(np.diag(onsite_h(params)))))
    c = LATTICE_CONSTANT
    rhs = c * n_sites * (h0_norm + 4.0 * c * params.gamma)
    return EnergyBoundResult(lhs=lhs, rhs=rhs, passed=bool(lhs <= rhs))
