import numpy as np
import pytest

from mfbcs import dynamics, fock, model
from mfbcs.errors import CapacityError
from mfbcs.states import OnSiteState

from conftest import decoupled_hamiltonian_n

# lattice constant at d=1, eps=1, frozen from partial sums + integral tail
# (closed form pi**2/3 - 1 confirmed by the same oracle)
C_1D_EPS1 = 2.289868133696453

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
    number = fock.FermionOperatorSet.build(n).total_number().toarray()
    assert np.abs(h @ number - number @ h).max() < 1e-12
    parity = fock.parity_operator(n).toarray()
    assert np.abs(h @ parity - parity @ h).max() < 1e-12


@pytest.mark.parametrize("n", [4, 5])
def test_hamiltonian_symmetries_large(n, rng):
    # same invariant at the dense capacity edge, via the sparse route
    params = model.ModelParams.random(rng)
    h = model.hamiltonian_sparse(n, params)
    number = fock.FermionOperatorSet.build(n).total_number()
    comm = (h @ number - number @ h).tocsr()
    assert (np.abs(comm.data).max() if comm.nnz else 0.0) < 1e-12
    parity = fock.parity_operator(n)
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


def test_interaction_requires_even_operator():
    with pytest.raises(ValueError):
        model.Interaction(fock.A_UP)


def test_interaction_rejects_nonzero_or_infinite_range():
    with pytest.raises(ValueError):
        model.Interaction(fock.PAIR, range_=float("inf"))
    with pytest.raises(NotImplementedError):
        model.Interaction(fock.PAIR, range_=1.0)


def test_interaction_norms():
    np_ = model.NormParams()
    assert model.interaction_norm(model.Interaction(fock.PAIR), np_) == 1.0
    assert model.interaction_norm(model.Interaction(np.zeros((4, 4))), np_) == 0.0
    phi = model.Interaction(model.onsite_h(model.ModelParams(mu=1.0, lam=0.5)))
    assert abs(model.interaction_norm(phi, np_) - 1.0) < 1e-14


def test_bcs_hubbard_model_structure():
    params = model.ModelParams(mu=0.4, gamma=1.5)
    m = model.bcs_hubbard_model(params)
    m.require_self_adjoint()
    assert len(m.mean_field_terms) == 1
    term = m.mean_field_terms[0]
    assert term.order == 2 and term.weight == -1.5
    # gamma = 0 drops the mean-field term entirely
    assert model.bcs_hubbard_model(model.ModelParams(mu=0.4)).mean_field_terms == ()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generic_local_hamiltonian_matches_direct(n, rng):
    params = model.ModelParams.random(rng)
    via_model = model.model_local_hamiltonian(model.bcs_hubbard_model(params), n)
    direct = model.hamiltonian_sparse(n, params)
    assert np.abs((via_model - direct).toarray()).max() < 1e-12


def test_approximating_interaction_reductions(rng):
    params = model.ModelParams(mu=0.2, h=0.1, lam=0.3, gamma=0.0)
    m = model.bcs_hubbard_model(params)
    rho = OnSiteState.random_even(rng)
    phi = model.approximating_interaction(m, rho)
    assert np.allclose(phi.site_operator, model.onsite_h(params), atol=1e-15)

    params = model.ModelParams(mu=0.2, h=0.1, lam=0.3, gamma=1.2)
    m = model.bcs_hubbard_model(params)
    mixed = OnSiteState.maximally_mixed()
    phi = model.approximating_interaction(m, mixed)
    assert np.allclose(phi.site_operator, model.onsite_h(params), atol=1e-15)


def test_approximating_interaction_matches_effective_hamiltonian(rng):
    params = model.ModelParams.random(rng)
    m = model.bcs_hubbard_model(params)
    for _ in range(5):
        rho = OnSiteState.random_even(rng)
        phi = model.approximating_interaction(m, rho)
        assert np.allclose(
            phi.site_operator,
            model.effective_hamiltonian(params, rho),
            atol=1e-13,
        )


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
    c = model.lattice_constant(model.NormParams())
    assert c.error_bound < 1e-8
    assert abs(float(c) - C_1D_EPS1) <= c.error_bound


def test_lattice_constant_limits_and_monotonicity():
    # for large eps only the origin survives
    c_big = model.lattice_constant(model.NormParams(epsilon=40.0))
    assert abs(float(c_big) - 1.0) < 1e-10
    values = [
        float(model.lattice_constant(model.NormParams(epsilon=e)))
        for e in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lattice_constant_d2_loose_tolerance():
    c = model.lattice_constant(model.NormParams(epsilon=1.0, dimension=2), tol=1e-5)
    assert c.error_bound < 1e-5
    # brute-force disc sum as an independent lower bound
    r = 200
    i, j = np.mgrid[-r : r + 1, -r : r + 1]
    brute = np.sum((1.0 + np.hypot(i, j)) ** -3.0)
    assert brute < float(c) < brute + 0.05


def test_lattice_constant_refuses_unreachable_tolerance():
    with pytest.raises(ValueError):
        model.lattice_constant(model.NormParams(epsilon=0.5, dimension=3), tol=1e-10)


def test_model_norm_value():
    params = model.ModelParams(mu=1.0, lam=0.5, gamma=2.0)
    np_ = model.NormParams()
    c = float(model.lattice_constant(np_))
    expected = 1.0 + 4.0 * c * 2.0  # ||h0|| + n^2 C^(n-1) gamma
    assert abs(model.model_norm(model.bcs_hubbard_model(params), np_) - expected) < 1e-7


def test_energy_bound_trivial_and_seeded(rng):
    np_ = model.NormParams()
    res = model.energy_bound_check(2, model.ModelParams(), np_)
    assert res.lhs == 0.0 and res.passed
    res = model.energy_bound_check(2, model.ModelParams(mu=1.0, gamma=1.0), np_)
    assert res.passed
    for _ in range(3):
        assert model.energy_bound_check(3, model.ModelParams.random(rng), np_).passed


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


def test_energy_bound_lhs_is_largest_full_eigenvalue(rng):
    np_ = model.NormParams()
    for n in (1, 2, 3, 4):
        params = model.ModelParams.random(rng, gamma_max=3.0)
        full = np.linalg.eigvalsh(model.hamiltonian(n, params))
        lhs = model.energy_bound_check(n, params, np_).lhs
        assert abs(lhs - np.max(np.abs(full))) <= 1e-12 * max(1.0, lhs)
