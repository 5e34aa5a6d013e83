"""CAR operator construction.

The one-site oracle below rebuilds the annihilators from first principles:
enumerate the action on the four occupation states under the convention
that the doubly occupied ket is a+_up a+_dn |vac>, then verify every
anticommutator by brute force.  The package matrices must agree entrywise.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parity_operator
from mfbcs import fock
from mfbcs.errors import CapacityError


def oracle_onsite():
    """Enumerated one-site annihilators (basis: vac, up, dn, updn)."""
    # a_up kills the up fermion; on |updn> = a+up a+dn |vac> it leaves |dn>
    # with no sign (a_up passes nothing before hitting a+_up).
    a_up = np.zeros((4, 4), dtype=complex)
    a_up[0, 1] = 1.0  # |up> -> |vac>
    a_up[2, 3] = 1.0  # |updn> -> |dn>
    # a_dn must anticommute past a+_up in |updn>, hence the sign.
    a_dn = np.zeros((4, 4), dtype=complex)
    a_dn[0, 2] = 1.0   # |dn> -> |vac>
    a_dn[1, 3] = -1.0  # |updn> -> -|up>
    return a_up, a_dn


def brute_force_violation(ops):
    """Max anticommutator violation for a list of annihilator matrices."""
    dim = ops[0].shape[0]
    eye = np.eye(dim)
    worst = 0.0
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            worst = max(worst, np.abs(a @ b + b @ a).max())
            anti = a @ b.conj().T + b.conj().T @ a
            target = eye if i == j else 0.0
            worst = max(worst, np.abs(anti - target).max())
    return worst


def test_oracle_is_consistent():
    a_up, a_dn = oracle_onsite()
    assert brute_force_violation([a_up, a_dn]) == 0.0


def test_onsite_ops_match_oracle():
    o_up, o_dn = oracle_onsite()
    assert np.array_equal(fock.A_UP, o_up)
    assert np.array_equal(fock.A_DN, o_dn)
    assert np.array_equal(fock.N_UP, o_up.conj().T @ o_up)
    assert np.array_equal(fock.N_DN, o_dn.conj().T @ o_dn)
    assert np.array_equal(fock.PARITY_1, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_spec_entries():
    a_up, a_dn = fock.A_UP, fock.A_DN
    assert a_up[0, 1] == 1 and a_up[2, 3] == 1 and np.count_nonzero(a_up) == 2
    assert a_dn[0, 2] == 1 and a_dn[1, 3] == -1 and np.count_nonzero(a_dn) == 2
    anti = a_up @ a_up.conj().T + a_up.conj().T @ a_up
    assert np.array_equal(anti, np.eye(4))


def test_pair_annihilator_single_entry():
    pair = fock.PAIR
    assert pair[0, 3] == 1.0
    assert np.count_nonzero(pair) == 1


def test_embed_single_site_is_onsite():
    assert np.array_equal(fock.embed(1, 0, "up").toarray(), fock.A_UP)
    assert np.array_equal(fock.embed(1, 0, "dn").toarray(), fock.A_DN)


def test_embed_cross_site_anticommutes():
    a = fock.embed(2, 0, "up")
    b = fock.embed(2, 1, "dn")
    assert np.abs((a @ b + b @ a).toarray()).max() == 0.0


def test_embed_three_sites_number_identity():
    a = fock.embed(3, 1, "up")
    anti = (a @ a.conj().T + a.conj().T @ a).toarray()
    assert np.array_equal(anti, np.eye(64))


def test_embed_rejects_bad_indices():
    with pytest.raises(ValueError):
        fock.embed(2, 2, "up")
    with pytest.raises(ValueError):
        fock.embed(2, 0, "sideways")
    with pytest.raises(CapacityError):
        fock.embed(7, 0, "up")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_car_report_zero(n):
    assert fock.car_report(fock.FermionOperatorSet.build(n)) == 0.0


def _with_annihilators(ops, ann, cre=None):
    """The operator set with new annihilators; creators their adjoints unless given."""
    if cre is None:
        cre = {k: a.conj().T.tocsr() for k, a in ann.items()}
    return fock.FermionOperatorSet(n_sites=ops.n_sites, annihilators=ann, creators=cre)


def test_car_report_detects_one_flipped_sign_at_a_later_site():
    # a_i stays a partial isometry with a_i a_i = 0 and {a_i, a+_i} = 1, so
    # only the blocks (i, j) with j != i, {a_i, a_j} and {a_i, a+_j}, see it
    ops = fock.FermionOperatorSet.build(3)
    ann = dict(ops.annihilators)
    flipped = ann[(2, "dn")].copy()
    flipped.data[0] *= -1
    ann[(2, "dn")] = flipped
    broken = _with_annihilators(ops, ann)
    assert fock.car_report(broken) >= 1.0
    a, b = flipped, broken.creators[(2, "dn")]
    assert np.abs((a @ a).toarray()).max() == 0.0
    assert np.array_equal((a @ b + b @ a).toarray(), np.eye(64))


def test_car_report_detects_broken_creators_only():
    # the annihilators are intact, so {a_i, a_j} = 0 holds and only the
    # {a_i, a+_j} family can fail
    ops = fock.FermionOperatorSet.build(3)
    cre = {k: 2.0 * c for k, c in ops.creators.items()}
    broken = _with_annihilators(ops, dict(ops.annihilators), cre)
    assert fock.car_report(broken) >= 1.0


# --- the builders against N-fold Kronecker chains ---------------------------


def _kron_chain(factors):
    """Left-to-right sparse Kronecker product of 4x4 factors, site 0 first."""
    out = sp.identity(1, dtype=complex, format="csr")
    for factor in factors:
        out = sp.kron(out, sp.csr_matrix(np.asarray(factor, dtype=complex)), format="csr")
    return out


def _chain_embed(n, site, spin):
    local = fock.A_UP if spin == "up" else fock.A_DN
    return _kron_chain([fock.PARITY_1] * site + [local] + [np.eye(4)] * (n - 1 - site))


def _chain_embed_local(n, site, op):
    return _kron_chain([np.eye(4)] * site + [op] + [np.eye(4)] * (n - 1 - site))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_builders_equal_kron_chains_bitwise(n, rng):
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for site in range(n):
        for spin in fock.SPINS:
            got = fock.embed(n, site, spin)
            assert got.dtype == complex and got.format == "csr"
            assert np.array_equal(got.toarray(), _chain_embed(n, site, spin).toarray())
        for local in (op, fock.PAIR, fock.N_UP @ fock.N_DN):
            got = fock.embed_local(n, site, local)
            assert np.array_equal(got.toarray(), _chain_embed_local(n, site, local).toarray())
    chain = sp.csr_matrix((4**n, 4**n), dtype=complex)
    for site in range(n):
        chain = chain + _chain_embed_local(n, site, fock.PAIR)
    assert np.array_equal(fock.condensate_op(n).toarray(), (chain / np.sqrt(n)).toarray())


def test_car_report_detects_corruption():
    ops = fock.FermionOperatorSet.build(2)
    broken = dict(ops.annihilators)
    key = (0, "up")
    broken[key] = broken[key] * 0.0
    corrupted = fock.FermionOperatorSet(
        n_sites=2,
        annihilators=broken,
        creators=ops.creators,
    )
    assert fock.car_report(corrupted) >= 1.0


@given(
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_property_nilpotent_and_parity(n, data):
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    s = data.draw(st.sampled_from(["up", "dn"]))
    a = fock.embed(n, x, s)
    assert np.abs((a @ a).toarray()).max() == 0.0
    p = parity_operator(n)
    conj = (p @ a @ p).toarray()
    assert np.array_equal(conj, -a.toarray())


def test_condensate_single_site():
    assert np.array_equal(fock.condensate_op(1).toarray(), fock.PAIR)


def test_condensate_two_site_overlap():
    # <vac| c0 (pair creation on site 0) |vac> = 1/sqrt(2)
    c0 = fock.condensate_op(2).toarray()
    vac = np.zeros(16)
    vac[0] = 1.0
    create = fock.embed(2, 0, "up").conj().T @ fock.embed(2, 0, "dn").conj().T
    value = vac @ c0 @ create.toarray() @ vac
    assert abs(value - 1.0 / np.sqrt(2.0)) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_condensate_even_and_bounded(n):
    c0 = fock.condensate_op(n)
    p = parity_operator(n)
    assert np.abs((c0 @ p - p @ c0).toarray()).max() == 0.0
    norm = np.linalg.norm(c0.toarray(), ord=2)
    assert norm <= np.sqrt(n) + 1e-12
