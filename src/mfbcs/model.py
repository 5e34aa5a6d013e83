"""Model definition: Hamiltonians, interactions, and desk-scale norms.

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
sector.  Every term conserves both numbers, so :func:`spectrum`
diagonalizes H_N one sector block at a time, each block the on-site
diagonal plus -gamma times the cached hopping block.

The one-site algebra that the mean-field flow and the equilibrium theory
share is defined here once: the decoupled operator h0 - gamma (c P+ + cbar P)
(:func:`decoupled_hamiltonian`), the flow generator at the state's own
Cooper field (:func:`effective_hamiltonian`) and the rotation frequency nu
of that field (:func:`precession`).

The mean-field term is encoded as an atomic two-factor term of weight
-gamma on the pair (pair-creator interaction, pair-annihilator
interaction); general (non-atomic) measures are out of scope and cannot be
represented.  scipy is imported inside the functions that call it (the
sparse builders, the lattice-sum quadrature), not when the module loads.
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
    sectors = tuple(np.split(order, np.flatnonzero(np.diff(key[order])) + 1))
    hopping = (c0.conj().T @ c0).tocsr()
    blocks = tuple(hopping[idx][:, idx].toarray() for idx in sectors)
    for block in blocks:
        block.setflags(write=False)
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


def effective_hamiltonian(params: ModelParams, rho: StateLike) -> np.ndarray:
    """State-dependent one-site generator of the mean-field flow.

    dh(rho) = h0 - gamma ( P+ rho(P) + rho(P+) P ), the decoupled operator
    at c = rho(P).  Hermitian; reduces to h0 whenever rho(a_dn a_up) = 0.
    ``rho`` may also be a stack (..., 4, 4) of density matrices; the
    generators then come back stacked the same way.
    """
    d = density_matrix(rho)
    return decoupled_hamiltonian(params, np.trace(d @ fock.PAIR, axis1=-2, axis2=-1))


def precession(params: ModelParams, d: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Rotation frequency nu = 2(mu - lam) + gamma (1 - d) of the Cooper field.

    Along the mean-field flow rho(a_dn a_up) rotates rigidly at this rate,
    fixed by the conserved density d; ``d`` may be an array.
    """
    return 2.0 * (params.mu - params.lam) + params.gamma * (1.0 - d)


# ---------------------------------------------------------------------------
# Interactions and norms
# ---------------------------------------------------------------------------

EVEN_OP_TOL = 1e-12


@dataclass(frozen=True)
class Interaction:
    """A translation-invariant finite-range interaction.

    Only on-site templates (range 0) are constructed in this package: the
    interaction assigns ``site_operator`` to every singleton {x} and zero
    to every other finite set.  The operator must be even.
    """

    site_operator: np.ndarray
    range_: float = 0.0

    def __post_init__(self) -> None:
        op = np.asarray(self.site_operator, dtype=complex)
        if op.shape != (4, 4):
            raise ValueError(f"site operator must be 4x4, got {op.shape}")
        if not math.isfinite(self.range_):
            raise ValueError("infinite-range interactions are not representable")
        if self.range_ != 0.0:
            raise NotImplementedError("only on-site interactions (range 0) are built")
        p = fock.PARITY_1
        if np.max(np.abs(op @ p - p @ op)) > EVEN_OP_TOL:
            raise ValueError("interaction operator must be even")
        op.setflags(write=False)
        object.__setattr__(self, "site_operator", op)

    @property
    def is_self_adjoint(self) -> bool:
        return bool(
            np.max(np.abs(self.site_operator - self.site_operator.conj().T)) <= EVEN_OP_TOL
        )

    def adjoint(self) -> "Interaction":
        return Interaction(self.site_operator.conj().T, self.range_)


@dataclass(frozen=True)
class MeanFieldTerm:
    """One atomic mean-field term: a real weight on an ordered factor tuple."""

    weight: float
    factors: Tuple[Interaction, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a mean-field term needs at least one factor")

    @property
    def order(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class MeanFieldModel:
    """Short-range part plus a finite list of atomic mean-field terms."""

    short_range: Interaction
    mean_field_terms: Tuple[MeanFieldTerm, ...] = ()

    def require_self_adjoint(self) -> None:
        """Check invariance of the term list under reverse-and-adjoint."""
        if not self.short_range.is_self_adjoint:
            raise ValueError("short-range interaction is not self-adjoint")
        remaining = list(self.mean_field_terms)
        for term in self.mean_field_terms:
            image = tuple(f.adjoint() for f in reversed(term.factors))
            for cand in remaining:
                if cand.order == term.order and np.isclose(cand.weight, term.weight):
                    if all(
                        np.allclose(a.site_operator, b.site_operator)
                        for a, b in zip(cand.factors, image)
                    ):
                        remaining.remove(cand)
                        break
            else:
                raise ValueError("mean-field measure is not self-adjoint")


def bcs_hubbard_model(params: ModelParams) -> MeanFieldModel:
    """The model as a mean-field pair (short-range part, atomic measure).

    The pair-hopping term is the single order-2 atom of weight -gamma on
    (pair creator, pair annihilator); it is dropped entirely when gamma = 0.
    """
    short = Interaction(onsite_h(params))
    if params.gamma == 0.0:
        return MeanFieldModel(short_range=short)
    term = MeanFieldTerm(
        weight=-params.gamma,
        factors=(Interaction(fock.PAIR_DAG), Interaction(fock.PAIR)),
    )
    return MeanFieldModel(short_range=short, mean_field_terms=(term,))


def model_local_hamiltonian(model: MeanFieldModel, n_sites: int) -> sp.csr_matrix:
    """Generic local Hamiltonian of a mean-field model on n_sites sites.

    U_N = sum_x Phi_x + sum_terms w N**(1-n) prod_k (sum_x Psi^(k)_x).
    """
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    fock.check_site_count(n_sites)
    dim = 4**n_sites
    out = sp.csr_matrix((dim, dim), dtype=complex)
    for x in range(n_sites):
        out = out + fock.embed_local(n_sites, x, model.short_range.site_operator)
    for term in model.mean_field_terms:
        prod = sp.identity(dim, dtype=complex, format="csr")
        for factor in term.factors:
            u = sp.csr_matrix((dim, dim), dtype=complex)
            for x in range(n_sites):
                u = u + fock.embed_local(n_sites, x, factor.site_operator)
            prod = (prod @ u).tocsr()
        out = out + term.weight * float(n_sites) ** (1 - term.order) * prod
    return out.tocsr()


def approximating_interaction(model: MeanFieldModel, rho: StateLike) -> Interaction:
    """Linearize every mean-field term around the translation-invariant state rho.

    Each order-n atom contributes sum_m Psi^(m) prod_{j != m} rho(Psi^(j)_0);
    for the pair-hopping atom this reproduces the one-site operator of
    :func:`effective_hamiltonian`.  Only the translation-invariant (single
    site cell) average is implemented.
    """
    d = density_matrix(rho)
    op = model.short_range.site_operator.copy()
    for term in model.mean_field_terms:
        expectations = [complex(np.trace(d @ f.site_operator)) for f in term.factors]
        for m in range(term.order):
            coeff = term.weight
            for j, e in enumerate(expectations):
                if j != m:
                    coeff *= e
            op = op + coeff * term.factors[m].site_operator
    return Interaction(op)


@dataclass(frozen=True)
class NormParams:
    """Decay parameters (epsilon, varsigma) and lattice dimension d."""

    epsilon: float = 1.0
    varsigma: float = 1.0
    dimension: int = 1

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.varsigma <= 0:
            raise ValueError("varsigma must be > 0")
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")


def interaction_norm(phi: Interaction, norm_params: NormParams) -> float:
    """Weighted interaction norm, which for an on-site template is sup_x ||Phi_x||.

    The weight at coinciding points is 1, and translation invariance makes
    the sup a single spectral-norm evaluation.
    """
    del norm_params  # on-site: F(x, x) = 1 for any (epsilon, varsigma)
    return float(np.linalg.norm(phi.site_operator, ord=2))


class LatticeSumResult(float):
    """A float carrying a certified absolute error bound."""

    error_bound: float

    def __new__(cls, value: float, error_bound: float) -> "LatticeSumResult":
        obj = super().__new__(cls, value)
        obj.error_bound = float(error_bound)
        return obj

    def __repr__(self) -> str:  # pragma: no cover
        return f"LatticeSumResult({float(self)!r}, error_bound={self.error_bound!r})"


def _ball_enumeration_sum(d: int, s: float, radius: float) -> float:
    """Exact sum of (1+|x|)**(-s) over lattice points with |x| <= radius."""
    r2 = radius * radius
    if d == 1:
        j = np.arange(1, int(math.floor(radius)) + 1, dtype=float)
        return 1.0 + 2.0 * float(np.sum((1.0 + j) ** (-s)))
    if d == 2:
        total = 0.0
        for i in range(0, int(math.floor(radius)) + 1):
            rem = r2 - i * i
            if rem < 0:
                break
            jmax = int(math.floor(math.sqrt(rem)))
            j = np.arange(-jmax, jmax + 1, dtype=float)
            row = np.sum((1.0 + np.hypot(float(i), j)) ** (-s))
            total += row if i == 0 else 2.0 * row
        return float(total)
    if d == 3:
        total = 0.0
        for i in range(0, int(math.floor(radius)) + 1):
            rem_i = r2 - i * i
            if rem_i < 0:
                break
            jmax = int(math.floor(math.sqrt(rem_i)))
            j = np.arange(-jmax, jmax + 1, dtype=float)[:, None]
            kmax = int(math.floor(math.sqrt(rem_i)))
            k = np.arange(-kmax, kmax + 1, dtype=float)[None, :]
            norm2 = i * i + j * j + k * k
            mask = norm2 <= r2
            plane = np.sum((1.0 + np.sqrt(norm2[mask])) ** (-s))
            total += plane if i == 0 else 2.0 * plane
        return float(total)
    raise NotImplementedError("lattice sums are implemented for d <= 3")


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@lru_cache(maxsize=None)
def _lattice_constant_cached(d: int, epsilon: float, tol: float) -> Tuple[float, float]:
    s = d + epsilon
    vd = _unit_ball_volume(d)
    c_geo = math.sqrt(d) / 2.0  # every unit cube sits within this distance of its point

    def f(r: np.ndarray) -> np.ndarray:
        return (1.0 + r) ** (-s)

    def fprime_abs(r: np.ndarray) -> np.ndarray:
        return s * (1.0 + r) ** (-s - 1.0)

    def count_error_bound(r: np.ndarray) -> np.ndarray:
        # |#points in ball(r) - vd r**d| <= vd ((r+c)**d - (r-c)**d) for r >= c
        return vd * ((r + c_geo) ** d - (r - c_geo) ** d)

    def tail_quad(fn, lo: float, epsabs: float) -> Tuple[float, float]:
        # imported here, not at module level: scipy.integrate takes ~0.25 s to load
        from scipy.integrate import quad

        # integrate fn on (lo, inf) through u = 1/(1+r), a finite interval
        def g(u: float) -> float:
            return fn(1.0 / u - 1.0) / (u * u)

        return quad(g, 0.0, 1.0 / (1.0 + lo), limit=200, epsabs=epsabs)

    # Point budget keeps the exact enumeration affordable per dimension.
    max_radius = {1: 5.0e6, 2: 1.2e4, 3: 360.0}[d]
    radius = min(max_radius, max(10.0 * math.sqrt(d), 32.0))
    while True:
        # Certified bound on replacing the tail by its continuum version.
        err_integrand = lambda r: fprime_abs(r) * (
            count_error_bound(r) + count_error_bound(radius)
        )
        err_bound, err_quad = tail_quad(err_integrand, radius, epsabs=1e-14)
        main_integrand = lambda r: d * vd * r ** (d - 1) * f(r)
        tail, tail_quad_err = tail_quad(main_integrand, radius, epsabs=tol * 1e-3)
        total_err = err_bound + abs(err_quad) + abs(tail_quad_err)
        if total_err <= tol or radius >= max_radius:
            break
        radius = min(max_radius, radius * 2.0)
    if total_err > tol:
        raise ValueError(
            f"cannot certify tolerance {tol:g} for d={d} within the enumeration "
            f"budget; achievable error is about {total_err:.2e}"
        )
    exact = _ball_enumeration_sum(d, s, radius)
    return exact + tail, total_err


def lattice_constant(norm_params: NormParams, tol: float = 1e-8) -> LatticeSumResult:
    """The summability constant C = sum_{x in Z^d} (1+|x|)**(-(d+epsilon)).

    Computed by exact enumeration inside a ball plus a continuum tail whose
    lattice-counting error is bounded geometrically (each lattice point owns
    a unit cube within sqrt(d)/2 of it).  The returned value carries a
    certified absolute error bound below ``tol``; if the enumeration budget
    cannot reach ``tol`` (possible for d >= 2 at very tight tolerances) a
    ValueError reports the achievable error instead.
    """
    value, err = _lattice_constant_cached(
        norm_params.dimension, float(norm_params.epsilon), float(tol)
    )
    return LatticeSumResult(value, err)


def model_norm(
    model: MeanFieldModel, norm_params: NormParams, tol: float = 1e-8
) -> float:
    """Banach norm of the mean-field model.

    ||m|| = ||Phi|| + sum over terms of n^2 C^(n-1) |weight| prod ||Psi^(k)||,
    with C the lattice constant.  Factors of the pair-hopping atom have unit
    norm, so its contribution is 4*C*gamma.
    """
    c = float(lattice_constant(norm_params, tol))
    total = interaction_norm(model.short_range, norm_params)
    for term in model.mean_field_terms:
        n = term.order
        fac = 1.0
        for psi in term.factors:
            fac *= interaction_norm(psi, norm_params)
        total += n * n * c ** (n - 1) * abs(term.weight) * fac
    return total


@dataclass(frozen=True)
class EnergyBoundResult:
    lhs: float  # ||H_N||
    rhs: float  # C * N * ||m||
    passed: bool


def energy_bound_check(
    n_sites: int, params: ModelParams, norm_params: NormParams
) -> EnergyBoundResult:
    """Check the extensivity bound ||H_N|| <= C * N * ||m||."""
    lhs = float(np.max(np.abs(spectrum(n_sites, params))))
    c = float(lattice_constant(norm_params))
    rhs = c * n_sites * model_norm(bcs_hubbard_model(params), norm_params)
    return EnergyBoundResult(lhs=lhs, rhs=rhs, passed=bool(lhs <= rhs))
