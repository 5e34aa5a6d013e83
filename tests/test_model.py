import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfbcs import dynamics, fock, model
from mfbcs.errors import CapacityError
from mfbcs.states import OnSiteState

from conftest import decoupled_hamiltonian_n, parity_operator, total_number

# finite-volume pressure at N=2, beta=1, mu=1, h=lam=0, gamma=2, frozen from
# an independently assembled 16x16 matrix and dense eigensolve
PRESSURE_N2_ORACLE = 3.2932499049629174


def test_params_validation():
    with pytest.raises(ValueError):
        model.ModelParams(gamma=-0.5)
    with pytest.raises(ValueError):
        model.ModelParams(lam=-1.0)


def test_onsite_h_examples():
    assert np.abs(model.onsite_h(model.ModelParams())).max() == 0.0
    h1 = model.onsite_h(model.ModelParams(mu=1.0, h=0.0, lam=0.5))
    assert np.allclose(np.diag(h1), [0.0, -1.0, -1.0, -1.0])
    assert np.count_nonzero(h1 - np.diag(np.diag(h1))) == 0
    h2 = model.onsite_h(model.ModelParams(mu=0.0, h=1.0, lam=0.0))
    assert np.allclose(np.diag(h2), [0.0, -1.0, 1.0, 0.0])


def test_hamiltonian_single_site():
    params = model.ModelParams(mu=0.7, h=0.2, lam=0.4, gamma=1.3)
    h = model.hamiltonian(1, params)
    expected = model.onsite_h(params) - params.gamma * fock.N_UP @ fock.N_DN
    assert np.allclose(h, expected, atol=1e-14)


def test_hamiltonian_gamma_zero_is_block_sum():
    params = model.ModelParams(mu=0.3, h=0.1, lam=0.2, gamma=0.0)
    h = model.hamiltonian(3, params)
    h0 = model.onsite_h(params)
    expected = sum(fock.embed_local(3, x, h0).toarray() for x in range(3))
    assert np.allclose(h, expected, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hamiltonian_symmetries(n, rng):
    params = model.ModelParams.random(rng)
    h = model.hamiltonian(n, params)
    assert np.abs(h - h.conj().T).max() == 0.0
    number = total_number(n).toarray()
    assert np.abs(h @ number - number @ h).max() < 1e-12
    parity = parity_operator(n).toarray()
    assert np.abs(h @ parity - parity @ h).max() < 1e-12


@pytest.mark.parametrize("n", [4, 5])
def test_hamiltonian_symmetries_large(n, rng):
    # same invariant at the dense capacity edge, via the sparse route
    params = model.ModelParams.random(rng)
    h = model.hamiltonian_sparse(n, params)
    number = total_number(n)
    comm = (h @ number - number @ h).tocsr()
    assert (np.abs(comm.data).max() if comm.nnz else 0.0) < 1e-12
    parity = parity_operator(n)
    comm = (h @ parity - parity @ h).tocsr()
    assert (np.abs(comm.data).max() if comm.nnz else 0.0) < 1e-12


def test_approximating_hamiltonian_c_zero():
    params = model.ModelParams(mu=0.5, h=0.3, lam=0.1, gamma=2.0)
    ha = decoupled_hamiltonian_n(2, params, 0.0)
    h0 = model.onsite_h(params)
    expected = sum(fock.embed_local(2, x, h0).toarray() for x in range(2))
    assert np.allclose(ha, expected, atol=1e-14)


def test_approximating_hamiltonian_even_block_entry():
    # N=1, c=1, mu=h=lam=0, gamma=1: couples vacuum and double occupation
    ha = decoupled_hamiltonian_n(1, model.ModelParams(gamma=1.0), 1.0)
    assert ha[3, 0] == -1.0 and ha[0, 3] == -1.0
    ha[3, 0] = ha[0, 3] = 0.0
    assert np.abs(ha).max() == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_decoupling_identity(n, rng):
    # gamma N |c|^2 + H_N(c) - H_N = gamma (c0+ - sqrt(N) cbar)(c0 - sqrt(N) c)
    params = model.ModelParams.random(rng)
    h = model.hamiltonian(n, params)
    c0 = fock.condensate_op(n).toarray()
    eye = np.eye(4**n)
    for _ in range(10):
        c = complex(rng.normal(), rng.normal())
        lhs = params.gamma * n * abs(c) ** 2 * eye + decoupled_hamiltonian_n(n, params, c) - h
        shift = c0 - np.sqrt(n) * c * eye
        rhs = params.gamma * (shift.conj().T @ shift)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_effective_hamiltonian_examples():
    params = model.ModelParams(mu=0.2, h=0.1, lam=0.3, gamma=1.7)
    mixed = OnSiteState.maximally_mixed()
    assert np.allclose(
        model.effective_hamiltonian(params, mixed), model.onsite_h(params), atol=1e-15
    )
    # state with pair expectation 1/2 at gamma=2, mu=h=lam=0
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = OnSiteState.pure(v)
    assert abs(rho.pair_expectation() - 0.5) < 1e-15
    dh = model.effective_hamiltonian(model.ModelParams(gamma=2.0), rho)
    assert np.allclose(dh, -(fock.PAIR_DAG + fock.PAIR), atol=1e-15)


def test_effective_hamiltonian_hermitian(rng):
    params = model.ModelParams.random(rng)
    rho = OnSiteState.random_even(rng)
    dh = model.effective_hamiltonian(params, rho)
    assert np.abs(dh - dh.conj().T).max() < 1e-14


def _bcs_hubbard_atoms(params):
    """The model as (short-range site operator, ((weight, factors), ...))."""
    return model.onsite_h(params), ((-params.gamma, (fock.PAIR_DAG, fock.PAIR)),)


def _mean_field_hamiltonian(n, short_range, atoms):
    """U_N = sum_x Phi_x + sum_atoms w N**(1-k) prod_j (sum_x Psi^(j)_x), site by site."""
    def site_sum(op):
        return sum(fock.embed_local(n, x, op).toarray() for x in range(n))

    out = site_sum(short_range)
    for weight, factors in atoms:
        prod = np.eye(4**n, dtype=complex)
        for factor in factors:
            prod = prod @ site_sum(factor)
        out = out + weight * float(n) ** (1 - len(factors)) * prod
    return out


def _linearised_site_operator(short_range, atoms, rho):
    """Each order-k atom linearised at rho: w sum_m Psi^(m) prod_{j != m} rho(Psi^(j))."""
    d = model.density_matrix(rho)
    op = np.array(short_range, dtype=complex)
    for weight, factors in atoms:
        expectations = [complex(np.trace(d @ f)) for f in factors]
        for m, factor in enumerate(factors):
            others = [e for j, e in enumerate(expectations) if j != m]
            op = op + weight * math.prod(others) * factor
    return op


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generic_local_hamiltonian_matches_direct(n, rng):
    params = model.ModelParams.random(rng)
    generic = _mean_field_hamiltonian(n, *_bcs_hubbard_atoms(params))
    direct = model.hamiltonian_sparse(n, params)
    assert np.abs(generic - direct.toarray()).max() < 1e-12


def test_approximating_interaction_reductions(rng):
    # reductions to h0: no coupling, or a state without a Cooper field
    cases = [
        (model.ModelParams(mu=0.2, h=0.1, lam=0.3, gamma=0.0), OnSiteState.random_even(rng)),
        (model.ModelParams(mu=0.2, h=0.1, lam=0.3, gamma=1.2), OnSiteState.maximally_mixed()),
    ]
    for params, rho in cases:
        linearised = _linearised_site_operator(*_bcs_hubbard_atoms(params), rho)
        assert np.allclose(linearised, model.onsite_h(params), atol=1e-15)
        assert np.allclose(linearised, model.effective_hamiltonian(params, rho), atol=1e-13)


def test_approximating_interaction_matches_effective_hamiltonian(rng):
    params = model.ModelParams.random(rng)
    for _ in range(5):
        rho = OnSiteState.random_even(rng)
        linearised = _linearised_site_operator(*_bcs_hubbard_atoms(params), rho)
        assert np.allclose(linearised, model.effective_hamiltonian(params, rho), atol=1e-13)


def test_decoupled_single_site_at_self_consistent_field(rng):
    # H_1(c) with c = rho(a_dn a_up) is exactly the flow generator
    params = model.ModelParams.random(rng)
    rho = OnSiteState.random_even(rng)
    c = rho.pair_expectation()
    assert np.array_equal(
        decoupled_hamiltonian_n(1, params, c),
        model.effective_hamiltonian(params, rho),
    )


def test_decoupled_hamiltonian_broadcasts_bitwise(rng):
    params = model.ModelParams.random(rng)
    cs = (rng.normal(size=6) + 1j * rng.normal(size=6)).reshape(2, 3)
    stacked = model.decoupled_hamiltonian(params, cs)
    assert stacked.shape == (2, 3, 4, 4)
    for idx in np.ndindex(cs.shape):
        assert np.array_equal(stacked[idx], model.decoupled_hamiltonian(params, cs[idx]))
    rs = np.linspace(0.0, 1.0, 5)
    for r, mat in zip(rs, model.decoupled_hamiltonian(params, rs)):
        assert np.array_equal(mat, model.decoupled_hamiltonian(params, float(r)))


def test_effective_hamiltonian_is_decoupled_at_own_field(rng):
    params = model.ModelParams.random(rng)
    stack = np.array([OnSiteState.random_even(rng).matrix for _ in range(5)])
    z = np.trace(stack @ fock.PAIR, axis1=-2, axis2=-1)
    assert np.array_equal(
        model.effective_hamiltonian(params, stack), model.decoupled_hamiltonian(params, z)
    )
    for d, zk in zip(stack, z):
        assert np.array_equal(
            model.effective_hamiltonian(params, d), model.decoupled_hamiltonian(params, zk)
        )


def test_decoupled_action_equals_the_commutator(rng):
    # time-last stacks of general (non-Hermitian) operators against
    # i (dh R - R dh) by matrix products, node by node
    params = model.ModelParams.random(rng)
    c = rng.normal(size=7) + 1j * rng.normal(size=7)
    r = rng.normal(size=(2, 4, 4, 7)) + 1j * rng.normal(size=(2, 4, 4, 7))
    got = model.decoupled_action(params, c, r)
    assert got.shape == r.shape
    dh = model.decoupled_hamiltonian(params, c)[:, None]
    stack = np.moveaxis(r, -1, 0)
    expected = np.moveaxis(1j * (dh @ stack - stack @ dh), 0, -1)
    assert np.max(np.abs(got - expected)) <= 1e-14


def test_precession_is_the_one_nu(rng):
    from mfbcs.classical import rotor_map
    from mfbcs.flow import observables

    params = model.ModelParams.random(rng)
    ds = rng.uniform(0.0, 2.0, size=4)
    assert np.array_equal(
        model.precession(params, ds), [model.precession(params, float(d)) for d in ds]
    )
    rho = OnSiteState.random_even(rng)
    rec = observables(params, rho)
    assert rec.nu == model.precession(params, rec.d)
    assert rotor_map(params, rho).omega3 == rec.nu


@pytest.mark.parametrize("gamma_max", [2.0, 3.0])
def test_model_params_random_matches_longhand_draw(gamma_max):
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    drawn = model.ModelParams.random(a, gamma_max=gamma_max)
    longhand = model.ModelParams(
        mu=float(b.uniform(-1.0, 1.0)),
        h=float(b.uniform(-1.0, 1.0)),
        lam=float(b.uniform(0.0, 1.0)),
        gamma=float(b.uniform(0.0, gamma_max)),
    )
    assert drawn == longhand
    assert a.random() == b.random()  # the same number of draws was consumed


@pytest.mark.parametrize("field", ["mu", "h", "lam", "gamma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_model_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        model.ModelParams(**{field: value})


def test_lattice_constant_d1():
    # sum_{x in Z} (1+|x|)**-2 = 1 + 2 sum_{k>=2} k**-2; the tail past K lies in
    # (2/(K+1), 2/K) by comparison with the integral of k**-2
    k_max = 10**6
    partial = 1.0 + 2.0 * float(np.sum(np.arange(2.0, k_max + 1.0) ** -2))
    slack = 1e-13  # rounding of the partial sum
    assert partial + 2.0 / (k_max + 1) - slack <= model.LATTICE_CONSTANT
    assert model.LATTICE_CONSTANT <= partial + 2.0 / k_max + slack


def test_model_norm_value():
    # ||h0|| = 1 here: the onsite_h diagonal is (0, -1, -1, -1)
    params = model.ModelParams(mu=1.0, lam=0.5, gamma=2.0)
    c = math.pi**2 / 3.0 - 1.0
    for n in (1, 2, 3):
        assert model.energy_bound_check(n, params).rhs == c * n * (1.0 + 4.0 * c * 2.0)
    # ||h0|| is the largest |.| on the diagonal, here 2 lam - 2 mu = 3
    params = model.ModelParams(mu=-1.0, h=0.5, lam=0.5, gamma=0.0)
    assert model.energy_bound_check(2, params).rhs == c * 2 * 3.0


def test_energy_bound_trivial_and_seeded(rng):
    res = model.energy_bound_check(2, model.ModelParams())
    assert res.lhs == 0.0 and res.passed
    res = model.energy_bound_check(2, model.ModelParams(mu=1.0, gamma=1.0))
    assert res.passed
    for _ in range(3):
        assert model.energy_bound_check(3, model.ModelParams.random(rng)).passed


def test_energy_bound_loads_no_integrator():
    code = (
        "import sys\n"
        "from mfbcs import model\n"
        "assert model.energy_bound_check(3, model.ModelParams(gamma=1.0)).passed\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    assert proc.stdout.splitlines() == ["False"]


def test_dense_capacity_error():
    with pytest.raises(CapacityError):
        model.hamiltonian(6, model.ModelParams())


def test_dense_limits_leave_no_cached_terms():
    model._hamiltonian_terms.cache_clear()
    params = model.ModelParams(gamma=1.0)
    for n, error in ((6, CapacityError), (0, ValueError)):
        for build in (model.hamiltonian, model.spectrum):
            with pytest.raises(error):
                build(n, params)
        with pytest.raises(error):
            dynamics.gibbs_state(n, params, dynamics.GibbsSpec(beta=1.0))
    assert model._hamiltonian_terms.cache_info().currsize == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_spectrum_matches_full_eigvalsh(n, rng):
    for _ in range(3):
        params = model.ModelParams.random(rng, gamma_max=8.0)
        assert params.h != 0.0
        full = np.linalg.eigvalsh(model.hamiltonian(n, params))
        sectors = model.spectrum(n, params)
        assert sectors.shape == (4**n,)
        assert np.max(np.abs(sectors - full)) <= 1e-12 * max(1.0, np.max(np.abs(full)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sectors_partition_the_basis_and_block_the_hamiltonian(n, rng):
    terms = model._hamiltonian_terms(n)
    assert len(terms.sectors) == (n + 1) ** 2
    joined = np.concatenate(terms.sectors)
    assert np.array_equal(np.sort(joined), np.arange(4**n))
    label = np.empty(4**n, dtype=int)
    for k, idx in enumerate(terms.sectors):
        label[idx] = k
        # one (N_up, N_dn) pair per sector
        assert not np.any(np.ptp(terms.counts[:2, idx], axis=1))
    h = model.hamiltonian_sparse(n, model.ModelParams.random(rng, gamma_max=8.0)).tocoo()
    across = label[h.row] != label[h.col]
    assert not np.any(h.data[across] != 0.0)
    # the blocks are H_N restricted to each sector
    params = model.ModelParams.random(rng, gamma_max=8.0)
    dense = model.hamiltonian(n, params)
    for idx, block in model.sector_blocks(n, params):
        assert np.array_equal(block, dense[np.ix_(idx, idx)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hopping_blocks_equal_sliced_pair_hopping(n):
    terms = model._hamiltonian_terms(n)
    assert len(terms.hopping_blocks) == len(terms.sectors)
    for idx, block in zip(terms.sectors, terms.hopping_blocks):
        sliced = terms.pair_hopping[idx][:, idx].toarray()
        assert block.dtype == sliced.dtype and block.shape == sliced.shape
        assert np.array_equal(block, sliced)
        assert not block.flags.writeable


def test_energy_bound_lhs_is_largest_full_eigenvalue(rng):
    for n in (1, 2, 3, 4):
        params = model.ModelParams.random(rng, gamma_max=3.0)
        full = np.linalg.eigvalsh(model.hamiltonian(n, params))
        lhs = model.energy_bound_check(n, params).lhs
        assert abs(lhs - np.max(np.abs(full))) <= 1e-12 * max(1.0, lhs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_spectrum_particle_hole_symmetry(n, rng):
    # c_s -> c_s+ maps H_N(mu, h, lam, gamma) to
    # H_N(2 lam - mu - gamma/N, -h, lam, gamma) + N (2 lam - 2 mu) - gamma
    for _ in range(3):
        p = model.ModelParams.random(rng, gamma_max=3.0)
        image = model.ModelParams(
            mu=2.0 * p.lam - p.mu - p.gamma / n, h=-p.h, lam=p.lam, gamma=p.gamma
        )
        energies = model.spectrum(n, p)
        mapped = model.spectrum(n, image) + n * (2.0 * p.lam - 2.0 * p.mu) - p.gamma
        scale = max(1.0, np.max(np.abs(energies)))
        assert np.max(np.abs(energies - mapped)) <= 1e-12 * scale
