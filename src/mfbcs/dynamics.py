"""Exact finite-volume dynamics, Gibbs states, pressures, condensate density.

:func:`product_site_series` gives the exact site-0 observables (d, m, w, z)
of a product state, or a mixture of product states, in closed form at any
site count N.  The model keeps each site in its parity sector, and on the
pair sectors it is a collective pseudospin (Anderson, Phys. Rev. 112, 1900
(1958)): with S- = sum_x a_{x,dn} a_{x,up},

    H_N = sum_x h0_x - (gamma/N) (S^2 - S_z^2 + S_z),

so the Heisenberg pair field is e^{iHt} S- e^{-iHt} = S- e^{-i(eps + 2 gamma
(S_z - 1)/N) t} with eps = 2(lam - mu).  Its phase factorizes over sites,
and a permutation-invariant state gives

    z_N(t) = rho(P) e^{i nu(0) t} [rho(e^{-i gamma t d/N})]^(N-1),

while d, m and w stay at their initial values.  Each time point costs O(1).

Everything else here is the dense side, up to fock.DENSE_SITE_LIMIT = 5
sites (dimension 1024): the oracle the closed form is checked against,
Gibbs states and pressures.  The last two are diagonalized one (N_up, N_dn)
sector at a time (:func:`mfbcs.model.sector_blocks`), as every term of H_N
conserves both numbers.  :func:`evolve_expectation` evaluates a list of
observables on a whole time grid at once.  It rotates the initial state and
each observable into the eigenbasis of H once, D~ = U^dagger D U and
A~ = U^dagger A U; every time point is then the phase sum

    Trace(A D_t) = sum_ab A~_ba D~_ab e^{-i (w_a - w_b) t},

shared by all observables (for a pure state, psi_t = U e^{-i w t} U^dagger
psi for many t from one product).  The grid is taken in blocks of
TIME_BLOCK points, so memory does not grow with its length.  The
dense side imports scipy on its first call; the closed form never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from . import fock, model
from .errors import CapacityError
from .states import OnSiteState, ProductMixture

if TYPE_CHECKING:
    import scipy.sparse as sp

RECONSTRUCTION_TOL = 1e-10
STATE_TOL = 1e-10
#: Time points per batched product in the spectral backend; working memory
#: is a few TIME_BLOCK x 4**N arrays whatever the length of the grid.
TIME_BLOCK = 256
#: Largest site count of :func:`product_site_series`.  N - 1 and gamma t / N
#: stay exact to one rounding far below it (floats hold integers to 2**53).
PRODUCT_SITE_LIMIT = 10**12


@dataclass(frozen=True)
class GibbsSpec:
    """Inverse temperature for thermal states."""

    beta: float

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


@dataclass(frozen=True)
class Propagator:
    """Spectral data of a Hermitian matrix, computed once and shared."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @classmethod
    def from_matrix(cls, h: np.ndarray) -> "Propagator":
        h = np.asarray(h, dtype=complex)
        w, u = np.linalg.eigh(h)
        scale = max(1.0, float(np.max(np.abs(w))))
        recon = np.max(np.abs(h - (u * w) @ u.conj().T))
        if recon > RECONSTRUCTION_TOL * scale:
            raise ArithmeticError(
                f"eigendecomposition reconstruction error {recon:.2e} too large"
            )
        return cls(eigenvalues=w, eigenvectors=u)

    @classmethod
    def from_model(cls, n_sites: int, params: model.ModelParams) -> "Propagator":
        return cls.from_matrix(model.hamiltonian(n_sites, params))


@dataclass(frozen=True)
class GlobalState:
    """A state of the N-site system: pure vector or density matrix."""

    n_sites: int
    kind: str  # "pure" | "mixed"
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dim = 4**self.n_sites
        arr = np.asarray(self.data, dtype=complex)
        if self.kind == "pure":
            if arr.shape != (dim,):
                raise ValueError(f"pure state must have shape ({dim},)")
            if abs(np.linalg.norm(arr) - 1.0) > STATE_TOL:
                raise ValueError("pure state vector is not normalized")
        elif self.kind == "mixed":
            if arr.shape != (dim, dim):
                raise ValueError(f"density matrix must have shape ({dim},{dim})")
            # checked first: comparisons with NaN are false, and the
            # factorization below can pass NaN entries
            if not np.isfinite(arr).all():
                raise ValueError("density matrix has non-finite entries")
            if np.max(np.abs(arr - arr.conj().T)) > STATE_TOL:
                raise ValueError("density matrix is not Hermitian")
            if abs(np.trace(arr).real - 1.0) > STATE_TOL:
                raise ValueError("density matrix trace is not 1")
            # D + tol*1 has a Cholesky factor iff the least eigenvalue of D
            # exceeds -tol
            shifted = arr.copy()
            shifted[np.diag_indices(dim)] += STATE_TOL
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                raise ValueError("density matrix is not positive") from None
        else:
            raise ValueError(f"unknown state kind {self.kind!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def density(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.asarray(self.data)

    def expectation(self, op: Union[np.ndarray, sp.spmatrix]) -> complex:
        if self.kind == "pure":
            return complex(np.vdot(self.data, (op @ self.data)))
        # imported here, not at module level: scipy.sparse takes ~0.2 s to load
        import scipy.sparse as sp

        if sp.issparse(op):
            return complex((op @ self.data).trace())
        return complex(np.trace(op @ self.data))


def product_state(
    n_sites: int, rho: Union[OnSiteState, ProductMixture]
) -> GlobalState:
    """Product state (or mixture of product states) over n_sites sites.

    The on-site factor must be even; the product of an even one-site state
    is then well defined and its expectations factorize over distinct sites.
    """
    fock.check_site_count(n_sites)
    if isinstance(rho, OnSiteState):
        rho.require_even()
        components = [(1.0, rho)]
    else:
        components = rho.components()
    dim = 4**n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for weight, state in components:
        block = np.array([[1.0 + 0j]])
        for _ in range(n_sites):
            block = np.kron(block, state.matrix)
        out += weight * block
    return GlobalState(n_sites=n_sites, kind="mixed", data=out)


def pure_product_state(n_sites: int, vector: Sequence[complex]) -> GlobalState:
    """Pure product state from a one-site vector supported on one parity sector."""
    fock.check_site_count(n_sites)
    v = np.asarray(vector, dtype=complex).reshape(4)
    v = v / np.linalg.norm(v)
    even_weight = abs(v[0]) ** 2 + abs(v[3]) ** 2
    if min(even_weight, 1.0 - even_weight) > STATE_TOL:
        raise ValueError(
            "one-site vector must lie in a single parity sector to define "
            "an even product state"
        )
    psi = np.array([1.0 + 0j])
    for _ in range(n_sites):
        psi = np.kron(psi, v)
    return GlobalState(n_sites=n_sites, kind="pure", data=psi)


def propagation_backend(n_sites: int, kind: str) -> str:
    """Name the backend evolve_expectation would pick for this problem."""
    if n_sites <= fock.DENSE_SITE_LIMIT:
        return "spectral"
    raise CapacityError(
        f"n_sites={n_sites} with a {kind} state is beyond the dense backend; "
        "product states at any site count go through product_site_series"
    )


def product_site_series(
    n_sites: int,
    params: model.ModelParams,
    rho: Union[OnSiteState, ProductMixture],
    times: Sequence[float],
) -> np.ndarray:
    """Exact site-0 series of d, m, w and z from a product state, at any N.

    ``rho`` is an even on-site state, whose N-fold product is the initial
    state, or a mixture of such products.  Returns shape (4, len(times)) in
    fock.SITE_OBSERVABLES order: the values :func:`evolve_expectation` gives
    for the same state, in closed form (see the module docstring).  Times
    may be negative, unsorted or repeated.

    T = rho(e^{-i gamma t d/N}) is a sum over the occupation basis, where d
    is diagonal, so T - 1 = sum_k p_k (e^{-i theta_k} - 1) is summed with
    e^{-i theta} - 1 = -2 sin^2(theta/2) - i sin(theta), and T^(N-1) is
    exp((N-1) log1p(T - 1)) with log1p taken in real arithmetic.  numpy's
    complex log1p and power lose about N * 1e-16 absolute instead.
    """
    if n_sites < 1:
        raise ValueError(f"site count must be >= 1, got {n_sites}")
    if n_sites > PRODUCT_SITE_LIMIT:
        raise CapacityError(
            f"n_sites={n_sites} exceeds the closed-form limit {PRODUCT_SITE_LIMIT}"
        )
    if isinstance(rho, OnSiteState):
        rho.require_even()
        components = [(1.0, rho)]
    else:
        components = rho.components()
    times = np.asarray(times, dtype=float)
    conserved = [fock.SITE_OBSERVABLES[name] for name in ("d", "m", "w")]
    # theta_k = gamma t d_k / N over the occupation basis, d_k = 0, 1, 1, 2
    theta = np.outer(params.gamma * times / n_sites, np.diag(conserved[0]).real)
    step_re, step_im = -2.0 * np.sin(0.5 * theta) ** 2, -np.sin(theta)
    rotation = model.precession(params, 0.0) * times
    out = np.zeros((4, len(times)), dtype=complex)
    for weight, state in components:
        for j, a_op in enumerate(conserved):
            out[j] += weight * state.expect(a_op)
        phase, modulus = rotation, 1.0
        if n_sites > 1:
            p = np.diag(state.matrix).real
            w_re, w_im = step_re @ p, step_im @ p
            with np.errstate(divide="ignore"):  # T = 0 exactly: log|T| = -inf, z = 0
                log_abs = 0.5 * np.log1p(2.0 * w_re + w_re**2 + w_im**2)
            modulus = np.exp((n_sites - 1) * log_abs)
            phase = phase + (n_sites - 1) * np.arctan2(w_im, 1.0 + w_re)
        out[3] += weight * state.pair_expectation() * modulus * np.exp(1j * phase)
    return out


def _lift_observable(
    n_sites: int, a_op: Union[np.ndarray, sp.spmatrix]
) -> Union[np.ndarray, sp.spmatrix]:
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    if not sp.issparse(a_op):
        a_op = np.asarray(a_op, dtype=complex)
        if a_op.shape == (4, 4) and n_sites > 1:
            # interpreted at site 0, the leftmost factor (no parity string)
            return fock.embed_local(n_sites, 0, a_op)
    dim = 4**n_sites
    if a_op.shape != (dim, dim):
        raise ValueError(f"observable shape {a_op.shape} does not match dim {dim}")
    return a_op


def _time_blocks(n_times: int):
    """Slices of at most TIME_BLOCK time points covering a grid of n_times."""
    return (slice(k, k + TIME_BLOCK) for k in range(0, n_times, TIME_BLOCK))


def _pure_series(ops: Sequence, states: np.ndarray) -> np.ndarray:
    """<psi_k|A|psi_k> for each observable A and each row psi_k of ``states``."""
    cols = states.T
    out = np.empty((len(ops), states.shape[0]), dtype=complex)
    for j, a_op in enumerate(ops):
        out[j] = np.einsum("dk,dk->k", cols.conj(), a_op @ cols)
    return out


def _mixed_series(
    prop: Propagator, dmat: np.ndarray, ops: Sequence, times: np.ndarray
) -> np.ndarray:
    """Trace(A D_t) as a phase sum over the eigenbasis of the propagator."""
    u, u_dag = prop.eigenvectors, prop.eigenvectors.conj().T
    rho = u_dag @ dmat @ u
    out = np.empty((len(ops), len(times)), dtype=complex)
    for j, a_op in enumerate(ops):
        weights = (u_dag @ (a_op @ u)).T * rho
        for blk in _time_blocks(len(times)):
            phases = np.exp(-1j * np.outer(times[blk], prop.eigenvalues))
            out[j, blk] = np.einsum("tb,tb->t", phases @ weights, phases.conj())
        # freed before the next A~ is built: two live weights cost 16 MB at N=5
        del weights
    return out


def evolve_expectation(
    n_sites: int,
    params: model.ModelParams,
    initial: GlobalState,
    observables: Sequence[Union[np.ndarray, sp.spmatrix]],
    times: Sequence[float],
    backend: str = "auto",
) -> np.ndarray:
    """Series Trace(e^{itH} A e^{-itH} D) of each observable over the time grid.

    Returns shape (len(observables), len(times)).  Each observable may be a
    full 4**N matrix or a 4x4 one-site matrix (placed at site 0); a single
    matrix must be wrapped as ``[op]``.  The one backend, "spectral",
    diagonalizes H once; "auto" picks it up to the dense limit.
    """
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    if initial.n_sites != n_sites:
        raise ValueError("initial state has the wrong site count")
    if isinstance(observables, np.ndarray) or sp.issparse(observables):
        raise TypeError("observables must be a sequence of matrices; wrap one as [op]")
    ops = [_lift_observable(n_sites, a_op) for a_op in observables]
    times = np.asarray(times, dtype=float)
    if backend == "auto":
        backend = propagation_backend(n_sites, initial.kind)
    if backend == "spectral":
        fock.check_site_count(n_sites)
        prop = Propagator.from_model(n_sites, params)
        if initial.kind == "mixed":
            return _mixed_series(prop, initial.data, ops, times)
        u = prop.eigenvectors
        psi = u.conj().T @ initial.data
        out = np.empty((len(ops), len(times)), dtype=complex)
        for blk in _time_blocks(len(times)):
            phases = np.exp(-1j * np.outer(times[blk], prop.eigenvalues))
            out[:, blk] = _pure_series(ops, (phases * psi) @ u.T)
        return out
    raise ValueError(f"unknown backend {backend!r}")


def gibbs_state(
    n_sites: int, params: model.ModelParams, spec: GibbsSpec
) -> GlobalState:
    """Thermal state of H_N from one eigh per (N_up, N_dn) sector.

    The weights share one shift, the least eigenvalue, against overflow.
    """
    blocks = [(idx, Propagator.from_matrix(h)) for idx, h in model.sector_blocks(n_sites, params)]
    shift = min(prop.eigenvalues[0] for _, prop in blocks)
    out = np.zeros((4**n_sites, 4**n_sites), dtype=complex)
    for idx, prop in blocks:
        u = prop.eigenvectors
        out[np.ix_(idx, idx)] = (u * np.exp(-spec.beta * (prop.eigenvalues - shift))) @ u.conj().T
    out /= np.trace(out).real
    return GlobalState(n_sites=n_sites, kind="mixed", data=out)


def pressure_fv(
    n_sites: int, params: model.ModelParams, spec: GibbsSpec
) -> float:
    """Finite-volume pressure (beta N)^{-1} ln Trace e^{-beta H}, from the sector spectrum."""
    w = model.spectrum(n_sites, params)
    return float(np.logaddexp.reduce(-spec.beta * w) / (spec.beta * n_sites))


def condensate_density_fv(
    n_sites: int, params: model.ModelParams, spec: GibbsSpec
) -> float:
    """Thermal condensate density of Cooper pairs, omega(c0+ c0)/N, in [0, 1]."""
    state = gibbs_state(n_sites, params, spec)
    value = float(state.expectation(model._hamiltonian_terms(n_sites).pair_hopping).real / n_sites)
    if not -1e-10 <= value <= 1.0 + 1e-10:
        raise ArithmeticError(f"condensate density {value} outside [0, 1]")
    return value
