import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbcs.states import RANK_FLOOR, OnSiteState, ProductMixture, parity_commutator_norm


def test_named_constructors():
    assert OnSiteState.vacuum().matrix[0, 0] == 1.0
    assert OnSiteState.doubly_occupied().matrix[3, 3] == 1.0
    mm = OnSiteState.maximally_mixed()
    assert np.allclose(mm.matrix, np.eye(4) / 4.0)
    for s in (OnSiteState.vacuum(), mm, OnSiteState.pair_superposition(0.8, 1.2)):
        s.require_even()


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        OnSiteState.from_matrix(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        OnSiteState.from_matrix(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(ValueError):
        OnSiteState.from_matrix(bad)
    odd = np.zeros((4, 4), dtype=complex)
    odd[0, 0] = odd[1, 1] = 0.5
    odd[0, 1] = odd[1, 0] = 0.5
    with pytest.raises(ValueError, match="even state required"):
        OnSiteState.from_matrix(odd).require_even()


def _mixed_with(index, value):
    m = np.eye(4, dtype=complex) / 4.0
    m[index] = value
    return m


@pytest.mark.parametrize(
    "bad",
    [
        _mixed_with((0, 1), 0.3),  # not Hermitian
        np.eye(4, dtype=complex),  # trace 4
        np.diag([1.0 + 2e-10, -2e-10, 0.0, 0.0]).astype(complex),  # eigenvalue -2e-10
        _mixed_with((0, 0), np.nan),
        _mixed_with((2, 1), np.inf),
        np.full((4, 4), np.nan, dtype=complex),
    ],
    ids=["not-hermitian", "trace-4", "negative-eigenvalue", "nan", "inf", "all-nan"],
)
@pytest.mark.parametrize("k", [0, 3, 6])
def test_stack_check_rejects_what_from_matrix_rejects(bad, k):
    # A stack checked matrix by matrix: only the bad matrix at index k fails,
    # so the verdict on a matrix does not depend on its neighbours.
    rng = np.random.default_rng(k)
    stack = np.stack([OnSiteState.random_even(rng).matrix for _ in range(7)])
    stack[k] = bad
    for i, m in enumerate(stack):
        if i == k:
            with pytest.raises(ValueError, match="^density matrix"):
                OnSiteState.from_matrix(m)
        else:
            OnSiteState.from_matrix(m)


def test_from_matrix_symmetrises(rng):
    raw = OnSiteState.random_even(rng).matrix + 1e-12j * np.triu(np.ones((4, 4)), 1)
    mat = OnSiteState.from_matrix(raw).matrix  # Hermitian only to 1e-12 before
    assert not mat.flags.writeable
    assert np.array_equal(mat, mat.conj().T)
    assert np.array_equal(mat, 0.5 * (raw + raw.conj().T))
    with pytest.raises(ValueError, match="4x4"):
        OnSiteState.from_matrix(np.eye(3))


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_property_random_even_states_valid(seed):
    rho = OnSiteState.random_even(np.random.default_rng(seed))
    m = rho.matrix
    assert abs(np.trace(m).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(m).min() >= RANK_FLOOR / 4.0 - 1e-15  # full rank
    assert parity_commutator_norm(m) < 1e-12


def test_pure_pair_superposition_expectations():
    rho = OnSiteState.pair_superposition(np.pi / 6.0)
    z = rho.pair_expectation()
    assert abs(z - np.sin(np.pi / 6.0) * np.cos(np.pi / 6.0)) < 1e-15


def test_mixture_validation():
    good = ProductMixture.from_components(
        [(0.5, OnSiteState.vacuum()), (0.5, OnSiteState.maximally_mixed())]
    )
    assert good.weights == (0.5, 0.5)
    with pytest.raises(ValueError):
        ProductMixture.from_components([(0.5, OnSiteState.vacuum())])  # weights != 1
    with pytest.raises(ValueError):
        ProductMixture.from_components(
            [(1.5, OnSiteState.vacuum()), (-0.5, OnSiteState.maximally_mixed())]
        )
    odd = OnSiteState.pure([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ProductMixture.from_components([(1.0, odd)])
