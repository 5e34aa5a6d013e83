import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from mfbcs import dynamics, equilibrium, fock, model, verification
from mfbcs.errors import CapacityError
from mfbcs.states import OnSiteState, ProductMixture

from conftest import decoupled_hamiltonian_n, decoupled_pressure_n, total_number
from test_model import PRESSURE_N2_ORACLE


def _evolve_density(prop, dmat, t):
    """e^{-itH} D e^{+itH} from the propagator's spectral data (Schroedinger picture)."""
    u, w = prop.eigenvectors, prop.eigenvalues
    phases = np.exp(-1j * t * w)
    core = u.conj().T @ dmat @ u
    return u @ (phases[:, None] * core * phases.conj()[None, :]) @ u.conj().T


def _gibbs_density(prop, beta):
    """exp(-beta H)/Z, the weights shifted by the least eigenvalue against overflow."""
    u, w = prop.eigenvectors, prop.eigenvalues
    weights = np.exp(-beta * (w - w.min()))
    weights /= weights.sum()
    return (u * weights) @ u.conj().T


def test_product_state_vacuum():
    state = dynamics.product_state(2, OnSiteState.vacuum())
    expected = np.zeros((16, 16))
    expected[0, 0] = 1.0
    assert np.allclose(state.density(), expected, atol=1e-15)


def test_product_state_maximally_mixed():
    state = dynamics.product_state(2, OnSiteState.maximally_mixed())
    assert np.allclose(state.density(), np.eye(16) / 16.0, atol=1e-15)


def test_product_state_factorizes(rng):
    rho = OnSiteState.random_even(rng)
    state = dynamics.product_state(3, rho)
    n_up0 = fock.embed_local(3, 0, fock.N_UP)
    n_dn2 = fock.embed_local(3, 2, fock.N_DN)
    joint = state.expectation((n_up0 @ n_dn2).tocsr()).real
    product = rho.expect(fock.N_UP).real * rho.expect(fock.N_DN).real
    assert abs(joint - product) < 1e-12


def test_product_state_rejects_odd():
    odd = OnSiteState.pure([1.0, 1.0, 0.0, 0.0])  # vac/up superposition
    with pytest.raises(ValueError):
        dynamics.product_state(2, odd)


def test_product_mixture_state(rng):
    mix = ProductMixture.from_components(
        [(0.25, OnSiteState.vacuum()), (0.75, OnSiteState.maximally_mixed())]
    )
    state = dynamics.product_state(2, mix)
    expected = 0.25 * dynamics.product_state(2, OnSiteState.vacuum()).density()
    expected += 0.75 * np.eye(16) / 16.0
    assert np.allclose(state.density(), expected, atol=1e-15)


def test_identity_expectation_constant(rng):
    params = model.ModelParams.random(rng)
    rho = OnSiteState.random_even(rng)
    initial = dynamics.product_state(2, rho)
    series = dynamics.evolve_expectation(
        2, params, initial, [np.eye(16)], [0.0, 0.5, 1.3]
    )[0]
    assert np.allclose(series, 1.0, atol=1e-12)


def test_gamma_zero_reduces_to_single_site(rng):
    # with no pair hopping the N-site evolution of an on-site observable
    # equals the 1-site evolution
    params = model.ModelParams(mu=0.4, h=0.2, lam=0.6, gamma=0.0)
    rho = OnSiteState.random_even(rng)
    times = [0.0, 0.7, 1.9]
    a = (fock.PAIR + fock.PAIR_DAG).astype(complex)
    one = dynamics.evolve_expectation(
        1, params, dynamics.product_state(1, rho), [a], times
    )[0]
    three = dynamics.evolve_expectation(
        3, params, dynamics.product_state(3, rho), [a], times
    )[0]
    assert np.max(np.abs(one - three)) < 1e-12


def test_single_site_against_independent_ode(rng):
    # dual route at N=1: spectral conjugation vs direct von Neumann integration
    params = model.ModelParams(mu=0.3, h=0.0, lam=0.2, gamma=1.4)
    rho = OnSiteState.pair_superposition(0.6)
    h1 = model.hamiltonian(1, params)
    times = np.linspace(0.0, 2.0, 9)
    spectral = dynamics.evolve_expectation(
        1, params, dynamics.product_state(1, rho), [fock.PAIR], times
    )[0]

    def rhs(_t, y):
        d = y.view(complex).reshape(4, 4)
        return (-1j * (h1 @ d - d @ h1)).ravel().view(float)

    sol = solve_ivp(
        rhs,
        (0.0, 2.0),
        rho.matrix.astype(complex).ravel().view(float).copy(),
        t_eval=times,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    ode = np.array(
        [
            np.trace(np.ascontiguousarray(col).view(complex).reshape(4, 4) @ fock.PAIR)
            for col in sol.y.T
        ]
    )
    assert np.max(np.abs(spectral - ode)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heisenberg_equals_schroedinger(n, rng):
    params = model.ModelParams.random(rng)
    prop = dynamics.Propagator.from_model(n, params)
    rho = OnSiteState.random_even(rng)
    initial = dynamics.product_state(n, rho)
    a = fock.embed_local(n, n - 1, fock.N_UP @ fock.N_DN).toarray()
    t = 0.8
    heis = np.trace(_evolve_density(prop, a, -t) @ initial.density())  # e^{itH} A e^{-itH}
    schro = np.trace(a @ _evolve_density(prop, initial.density(), t))
    assert abs(heis - schro) < 1e-12


def test_evolution_preserves_state_and_energy(rng):
    params = model.ModelParams.random(rng)
    h = model.hamiltonian(3, params)
    prop = dynamics.Propagator.from_matrix(h)
    rho = OnSiteState.random_even(rng)
    d0 = dynamics.product_state(3, rho).density()
    number = total_number(3).toarray()
    e0 = np.trace(h @ d0).real
    n0 = np.trace(number @ d0).real
    for t in (0.5, 2.0):
        dt = _evolve_density(prop, d0, t)
        assert abs(np.trace(dt).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(dt).min() > -1e-10
        assert abs(np.trace(h @ dt).real - e0) < 1e-10
        assert abs(np.trace(number @ dt).real - n0) < 1e-10


def test_gibbs_infinite_temperature_limit():
    params = model.ModelParams(mu=0.5, gamma=1.0)
    state = dynamics.gibbs_state(2, params, dynamics.GibbsSpec(beta=1e-6))
    assert np.max(np.abs(state.density() - np.eye(16) / 16.0)) < 1e-4


def test_gibbs_single_site_diagonal():
    params = model.ModelParams(mu=0.8, h=0.3, lam=0.4, gamma=0.0)
    beta = 1.7
    state = dynamics.gibbs_state(1, params, dynamics.GibbsSpec(beta=beta))
    energies = np.diag(model.onsite_h(params)).real
    weights = np.exp(-beta * energies)
    weights /= weights.sum()
    assert np.allclose(state.density(), np.diag(weights), atol=1e-12)


def test_gibbs_with_field_is_product():
    params = model.ModelParams(mu=0.2, gamma=1.5)
    spec = dynamics.GibbsSpec(beta=0.9)
    c = 0.3 + 0.4j

    def gibbs(n):
        h = decoupled_hamiltonian_n(n, params, c)
        return _gibbs_density(dynamics.Propagator.from_matrix(h), spec.beta)

    two, one = gibbs(2), gibbs(1)
    assert np.max(np.abs(two - np.kron(one, one))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sector_gibbs_state_matches_full_eigh(n, rng):
    params = model.ModelParams.random(rng, gamma_max=8.0)
    beta = 1.7
    state = dynamics.gibbs_state(n, params, dynamics.GibbsSpec(beta=beta))
    full = _gibbs_density(dynamics.Propagator.from_model(n, params), beta)
    assert np.max(np.abs(state.density() - full)) <= 1e-12


def test_pressure_free_case():
    spec = dynamics.GibbsSpec(beta=2.0)
    p = dynamics.pressure_fv(2, model.ModelParams(), spec)
    assert abs(p - np.log(4.0) / 2.0) < 1e-13


def test_pressure_with_field_independent_of_n():
    params = model.ModelParams(mu=0.3, h=0.1, lam=0.2, gamma=1.1)
    spec = dynamics.GibbsSpec(beta=1.4)
    c = 0.25 - 0.1j
    p1, p3 = (decoupled_pressure_n(n, params, spec, c) for n in (1, 3))
    assert abs(p1 - p3) < 1e-12


def test_pressure_n2_oracle_value():
    params = model.ModelParams(mu=1.0, gamma=2.0)
    p = dynamics.pressure_fv(2, params, dynamics.GibbsSpec(beta=1.0))
    assert abs(p - PRESSURE_N2_ORACLE) < 1e-12


def test_condensate_density_infinite_temperature():
    # at beta -> 0 only the x = y diagonal survives: omega(c0+ c0)/N = 1/(4N)
    params = model.ModelParams(gamma=0.0)
    for n in (1, 2, 3):
        val = dynamics.condensate_density_fv(n, params, dynamics.GibbsSpec(beta=1e-6))
        assert abs(val - 0.25 / n) < 1e-5


def test_condensate_density_single_site_identity():
    params = model.ModelParams(mu=0.3, gamma=2.0)
    spec = dynamics.GibbsSpec(beta=1.5)
    val = dynamics.condensate_density_fv(1, params, spec)
    state = dynamics.gibbs_state(1, params, spec)
    w_exp = np.trace(state.density() @ (fock.N_UP @ fock.N_DN)).real
    assert abs(val - w_exp) < 1e-12


def _pure_oracle(n, params, psi, ops, times):
    # dense matrix exponential at each time, independent of the eigenbasis
    h = model.hamiltonian(n, params)
    out = np.empty((len(ops), len(times)), dtype=complex)
    for k, t in enumerate(times):
        psi_t = expm(-1j * t * h) @ psi
        for j, a in enumerate(ops):
            out[j, k] = np.vdot(psi_t, a @ psi_t)
    return out


def _site_ops(n):
    return [fock.embed_local(n, 0, op).toarray() for op in fock.SITE_OBSERVABLES.values()]


def test_spectral_mixed_matches_per_time_oracle(rng):
    params = model.ModelParams.random(rng)
    mix = ProductMixture.from_components(
        [(0.3, OnSiteState.random_even(rng)), (0.7, OnSiteState.pair_superposition(0.4, 1.1))]
    )
    initial = dynamics.product_state(3, mix)
    prop = dynamics.Propagator.from_model(3, params)
    times = [0.0, 0.7, -1.2, 2.5, 0.7]
    series = dynamics.evolve_expectation(
        3, params, initial, fock.SITE_OBSERVABLES.values(), times, backend="spectral"
    )
    oracle = np.array(
        [[np.trace(a @ _evolve_density(prop, initial.density(), t)) for t in times]
         for a in _site_ops(3)]
    )
    assert series.shape == (4, 5)
    assert np.max(np.abs(series - oracle)) <= 1e-12


def test_spectral_pure_matches_dense_expm(rng):
    params = model.ModelParams.random(rng)
    psi = dynamics.pure_product_state(3, [np.cos(0.5), 0.0, 0.0, np.exp(0.3j) * np.sin(0.5)])
    times = [0.0, 0.4, -0.9, 1.7]
    series = dynamics.evolve_expectation(
        3, params, psi, fock.SITE_OBSERVABLES.values(), times, backend="spectral"
    )
    oracle = _pure_oracle(3, params, psi.data, _site_ops(3), times)
    assert series.shape == (4, 4)
    assert np.max(np.abs(series - oracle)) <= 1e-12


@pytest.mark.parametrize("kind", ["mixed", "pure"])
def test_spectral_long_grid_matches_per_time_oracle(rng, kind):
    # a grid over three time blocks, the last one partial
    params = model.ModelParams.random(rng)
    if kind == "mixed":
        initial = dynamics.product_state(2, OnSiteState.random_even(rng))
    else:
        initial = dynamics.pure_product_state(2, [np.cos(0.6), 0.0, 0.0, np.sin(0.6)])
    prop = dynamics.Propagator.from_model(2, params)
    times = np.linspace(-3.0, 5.0, 2 * dynamics.TIME_BLOCK + 3)
    series = dynamics.evolve_expectation(
        2, params, initial, fock.SITE_OBSERVABLES.values(), times, backend="spectral"
    )
    oracle = np.array(
        [[np.trace(a @ _evolve_density(prop, initial.density(), t)) for t in times]
         for a in _site_ops(2)]
    )
    assert series.shape == (4, len(times))
    assert np.max(np.abs(series - oracle)) <= 1e-12


def test_evolve_expectation_observable_forms(rng):
    params = model.ModelParams.random(rng)
    initial = dynamics.product_state(2, OnSiteState.random_even(rng))
    number = total_number(2)
    ops = [fock.PAIR, number, number.toarray()]
    series = dynamics.evolve_expectation(2, params, initial, ops, [0.0, 0.3, 1.0])
    assert series.shape == (3, 3)
    assert np.max(np.abs(series[1] - series[2])) < 1e-12
    for single in (fock.PAIR, number):
        with pytest.raises(TypeError):
            dynamics.evolve_expectation(2, params, initial, single, [0.0])


def test_evolve_expectation_signature_keeps_traced_names():
    # perfbench/spans.py binds these parameters by name to label and count spans
    names = set(inspect.signature(dynamics.evolve_expectation).parameters)
    assert {"n_sites", "initial", "times", "backend"} <= names


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("factor, accepted", [(-2.0, False), (-0.5, True)])
def test_mixed_state_positivity_threshold(n, factor, accepted, rng):
    dim = 4**n
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    low = factor * dynamics.STATE_TOL
    eigs = np.full(dim, (1.0 - low) / (dim - 1))
    eigs[0] = low
    dmat = (q * eigs) @ q.conj().T
    dmat = 0.5 * (dmat + dmat.conj().T)
    assert abs(np.linalg.eigvalsh(dmat).min() - low) < 1e-3 * dynamics.STATE_TOL
    if accepted:
        dynamics.GlobalState(n_sites=n, kind="mixed", data=dmat)
    else:
        with pytest.raises(ValueError, match="not positive"):
            dynamics.GlobalState(n_sites=n, kind="mixed", data=dmat)


def test_mixed_state_rejects_non_finite():
    dmat = np.eye(16, dtype=complex) / 16.0
    dmat[3, 3] = np.nan
    with pytest.raises(ValueError):
        dynamics.GlobalState(n_sites=2, kind="mixed", data=dmat)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_mixed_state_rejects_non_finite_off_diagonal(value):
    # a Hermitian pair of non-finite entries keeps the trace at 1, and every
    # comparison with NaN is false: only the explicit finite check stops it
    dmat = np.eye(16, dtype=complex) / 16.0
    dmat[0, 5] = value
    dmat[5, 0] = np.conj(value)
    with pytest.raises(ValueError, match="non-finite"):
        dynamics.GlobalState(n_sites=2, kind="mixed", data=dmat)


def test_mixed_state_rejects_non_positive(rng):
    # trace 1 and Hermitian, but with a negative eigenvalue far below -STATE_TOL
    dmat = np.diag([0.6, 0.6, -0.2] + [0.0] * 13).astype(complex)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    dmat = q @ dmat @ q.conj().T
    dmat = 0.5 * (dmat + dmat.conj().T)
    with pytest.raises(ValueError, match="not positive"):
        dynamics.GlobalState(n_sites=2, kind="mixed", data=dmat)


def test_product_state_leaves_scipy_linalg_unloaded():
    # the positivity test is numpy's Cholesky: a product state at N = 4 loads
    # neither scipy.linalg nor its OpenBLAS
    code = (
        "import sys\n"
        "from mfbcs import dynamics\n"
        "from mfbcs.states import OnSiteState\n"
        "dynamics.product_state(4, OnSiteState.pair_superposition(0.3))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    assert proc.stdout.splitlines() == ["[]"]


def test_capacity_errors():
    params = model.ModelParams(gamma=1.0)
    with pytest.raises(CapacityError):
        dynamics.product_state(6, OnSiteState.vacuum())
    with pytest.raises(CapacityError):
        dynamics.propagation_backend(6, "mixed")
    with pytest.raises(CapacityError):
        dynamics.propagation_backend(7, "pure")
    with pytest.raises(CapacityError):
        dynamics.gibbs_state(6, params, dynamics.GibbsSpec(beta=1.0))
    with pytest.raises(CapacityError):
        dynamics.product_site_series(
            dynamics.PRODUCT_SITE_LIMIT + 1, params, OnSiteState.vacuum(), [0.0]
        )
    with pytest.raises(ValueError):
        dynamics.product_site_series(0, params, OnSiteState.vacuum(), [0.0])


def test_gibbs_spec_validation():
    with pytest.raises(ValueError):
        dynamics.GibbsSpec(beta=0.0)


# --- closed-form site series --------------------------------------------------

# negative, unsorted and repeated times
_CLOSED_FORM_TIMES = [0.9, -0.4, 0.9, 0.0, 2.1, -1.7, 0.3]


def _closed_form_inputs(rng):
    params = model.ModelParams.random(rng, gamma_max=4.0)
    gibbs = equilibrium.approx_gibbs_onsite(params, 0.7, 0.3 - 0.2j)
    pair = OnSiteState.pair_superposition(rng.uniform(0.1, 1.4), rng.uniform(-3.0, 3.0))
    mixture = ProductMixture.from_components(
        [(0.5, OnSiteState.random_even(rng)), (0.3, pair), (0.2, gibbs)]
    )
    return params, [OnSiteState.random_even(rng), gibbs, mixture]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_product_site_series_matches_dense(rng, n):
    # at N=5 (dimension 1024, about 2 s a dense run) only the mixture of one draw
    for _ in range(1 if n == 5 else 2):
        params, states = _closed_form_inputs(rng)
        for rho in states[-1:] if n == 5 else states:
            closed = dynamics.product_site_series(n, params, rho, _CLOSED_FORM_TIMES)
            dense = dynamics.evolve_expectation(
                n, params, dynamics.product_state(n, rho),
                fock.SITE_OBSERVABLES.values(), _CLOSED_FORM_TIMES,
            )
            assert closed.shape == (4, len(_CLOSED_FORM_TIMES))
            assert np.max(np.abs(closed - dense)) <= 1e-12


def _pair_sector_hamiltonian(n, params):
    """H_N on the span of {vac, updn}^n (2**n states, site 0 the leading bit)."""
    eps = 2.0 * (params.lam - params.mu)
    h = np.zeros((2**n, 2**n))
    for b in range(2**n):
        occupied = [x for x in range(n) if b >> (n - 1 - x) & 1]
        h[b, b] = (eps - params.gamma / n) * len(occupied)
        for y in occupied:
            for x in range(n):
                if not b >> (n - 1 - x) & 1:
                    h[b ^ (1 << (n - 1 - y)) | (1 << (n - 1 - x)), b] -= params.gamma / n
    return h


def test_product_site_series_matches_pair_sector_expm_at_six_sites(rng):
    n = 6
    params = model.ModelParams.random(rng, gamma_max=4.0)
    angle, phase = 0.7, -1.2
    local = np.array([np.cos(angle), np.exp(1j * phase) * np.sin(angle)])
    psi = np.ones(1, dtype=complex)
    for _ in range(n):
        psi = np.kron(psi, local)
    h = _pair_sector_hamiltonian(n, params)
    closed = dynamics.product_site_series(
        n, params, OnSiteState.pair_superposition(angle, phase), _CLOSED_FORM_TIMES
    )
    for k, t in enumerate(_CLOSED_FORM_TIMES):
        psi_t = (expm(-1j * t * h) @ psi).reshape(2, -1)
        r = psi_t @ psi_t.conj().T  # site-0 reduced state on {vac, updn}
        oracle = [2.0 * r[1, 1], 0.0, r[1, 1], r[1, 0]]
        assert np.max(np.abs(closed[:, k] - oracle)) <= 1e-12


#: Particle-hole conjugation on (0, up, dn, updn); U^dagger rho U swaps empty
#: and doubly occupied levels, and up and down with a sign.
PARTICLE_HOLE = np.array(
    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10**3, 10**9])
def test_product_site_series_particle_hole_symmetry(n):
    # U maps H_N(mu, h, lam, gamma) to H_N(2 lam - mu - gamma/N, -h, lam, gamma)
    # plus a constant, so from U^dagger rho U at the image parameters the site
    # series is d -> 2 - d, m -> -m, w -> 1 - d + w, z -> -conj(z)
    rng = np.random.default_rng(n)
    times = np.linspace(-3.0, 3.0, 7)
    for _ in range(30):
        p = model.ModelParams.random(rng, gamma_max=3.0)
        image = model.ModelParams(mu=2.0 * p.lam - p.mu - p.gamma / n, h=-p.h, lam=p.lam,
                                  gamma=p.gamma)
        rho = OnSiteState.random_even(rng)
        flipped = OnSiteState.from_matrix(PARTICLE_HOLE.conj().T @ rho.matrix @ PARTICLE_HOLE)
        d, m, w, z = dynamics.product_site_series(n, p, rho, times)
        mapped = dynamics.product_site_series(n, image, flipped, times)
        assert np.max(np.abs(mapped - [2.0 - d, -m, 1.0 - d + w, -z.conj()])) <= 4e-15


#: Spin flip on (0, up, dn, updn): swaps up and down; the pair picks up a sign.
SPIN_FLIP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex
)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10**3, 10**9])
def test_product_site_series_spin_flip_symmetry(n):
    # F maps H_N(mu, h, lam, gamma) to H_N(mu, -h, lam, gamma), so from
    # F^dagger rho F at -h the site series is d -> d, m -> -m, w -> w, z -> -z
    rng = np.random.default_rng(100 + n)
    times = np.linspace(-3.0, 3.0, 7)
    for _ in range(30):
        p = model.ModelParams.random(rng, gamma_max=3.0)
        image = model.ModelParams(mu=p.mu, h=-p.h, lam=p.lam, gamma=p.gamma)
        rho = OnSiteState.random_even(rng)
        flipped = OnSiteState.from_matrix(SPIN_FLIP.conj().T @ rho.matrix @ SPIN_FLIP)
        d, m, w, z = dynamics.product_site_series(n, p, rho, times)
        mapped = dynamics.product_site_series(n, image, flipped, times)
        assert np.max(np.abs(mapped - [d, -m, w, -z])) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10**3, 10**9])
def test_product_site_series_gauge_symmetry(n):
    # G = e^{i phi N} commutes with H_N, so from G^dagger rho G the densities
    # stay and the Cooper field turns by e^{-2 i phi}
    rng = np.random.default_rng(200 + n)
    times = np.linspace(-3.0, 3.0, 7)
    for _ in range(30):
        p = model.ModelParams.random(rng, gamma_max=3.0)
        rho = OnSiteState.random_even(rng)
        phi = rng.uniform(-np.pi, np.pi)
        gauge = np.diag(np.exp(1j * phi * np.array([0, 1, 1, 2])))
        turned = OnSiteState.from_matrix(gauge.conj().T @ rho.matrix @ gauge)
        d, m, w, z = dynamics.product_site_series(n, p, rho, times)
        mapped = dynamics.product_site_series(n, p, turned, times)
        assert np.max(np.abs(mapped - [d, m, w, z * np.exp(-2j * phi)])) <= 1e-15


def test_product_site_series_rejects_odd_state():
    odd = OnSiteState.pure([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="even"):
        dynamics.product_site_series(3, model.ModelParams(gamma=1.0), odd, [0.0, 1.0])


@pytest.mark.parametrize("n", [10, 10**2, 10**4, 10**6, 10**8])
def test_product_site_series_one_over_n_law(n):
    # N (z_N - z_mf) -> z_mf (i gamma d t - gamma^2 Var(d) t^2 / 2), with the
    # mean-field z_mf = rho(P) e^{i nu(d) t}; the remainder is O(1/N)
    params = model.ModelParams(mu=0.1, h=0.3, lam=0.2, gamma=2.0)
    rho = OnSiteState.pair_superposition(0.5, 0.3)
    times = np.linspace(0.0, 2.0, 41)
    d_op = fock.SITE_OBSERVABLES["d"]
    d = rho.expect(d_op).real
    var = rho.expect(d_op @ d_op).real - d**2
    z_mf = rho.pair_expectation() * np.exp(1j * model.precession(params, d) * times)
    law = z_mf * (1j * params.gamma * d * times - 0.5 * params.gamma**2 * var * times**2)
    z_n = dynamics.product_site_series(n, params, rho, times)[3]
    residual = np.max(np.abs(n * (z_n - z_mf) - law))
    assert residual * n <= 10.0


def test_fv_convergence_row_reports_the_failed_condition(monkeypatch):
    # mutation: T^N in place of T^(N-1), one extra factor T = rho(e^{-i gamma t d/N});
    # the ratio still holds, so the row must carry the closed-form vs dense gap
    original = dynamics.product_site_series
    occupation = np.diag(fock.SITE_OBSERVABLES["d"]).real

    def exponent_n(n_sites, params, rho, times):
        out = original(n_sites, params, rho, times)
        theta = params.gamma * np.outer(times, occupation) / n_sites
        out[3] *= np.exp(-1j * theta) @ np.diag(rho.matrix).real
        return out

    monkeypatch.setattr(dynamics, "product_site_series", exponent_n)
    result = verification.check_fv_convergence()
    assert not result.passed
    assert result.threshold == verification.CLOSED_FORM_TOL
    assert result.max_violation > result.threshold
    assert result.line().startswith("[FAIL] finite-volume-convergence: violation ")


def test_fv_convergence_passing_row_is_unchanged():
    result = verification.check_fv_convergence()
    assert result.passed
    assert (result.max_violation, result.threshold) == (0.0, 0.0)


def test_pressure_trend_row_reports_sector_disagreement(monkeypatch):
    # mutation: one (N_up, N_dn) block assembled with its diagonal off by 1e-9;
    # the trend still holds, so the row must carry the sector vs dense gap
    original = model.sector_blocks

    def misassembled(n_sites, params):
        blocks = original(n_sites, params)
        idx, block = blocks[-1]
        blocks[-1] = (idx, block + 1e-9 * np.eye(len(idx)))
        return blocks

    monkeypatch.setattr(model, "sector_blocks", misassembled)
    result = verification.check_pressure_trend()
    assert not result.passed
    assert result.threshold == verification.SECTOR_PRESSURE_TOL
    assert result.max_violation > result.threshold
    assert result.line().startswith("[FAIL] pressure-identity-trend: violation ")


def test_pressure_trend_passing_row_keeps_its_gaps():
    result = verification.check_pressure_trend()
    rows = equilibrium.variational_vs_finite_pressure(model.ModelParams(gamma=8.0), 1.0, 5)
    assert result.passed
    assert (result.max_violation, result.threshold) == (rows[4].gap, rows[0].gap)
    assert "sectors vs dense eigvalsh N=1..4: " in result.detail
