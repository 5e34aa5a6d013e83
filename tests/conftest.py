import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import logsumexp

from mfbcs import fock, model


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def decoupled_hamiltonian_n(n_sites, params, c):
    """Dense H_N(c) = sum_x of the decoupled one-site operator at site x."""
    h_site = model.decoupled_hamiltonian(params, c)
    return sum(fock.embed_local(n_sites, x, h_site) for x in range(n_sites)).toarray()


def decoupled_pressure_n(n_sites, params, spec, c):
    """(beta N)^{-1} ln Trace e^{-beta H_N(c)}, the pressure of the decoupled H_N(c)."""
    w = np.linalg.eigvalsh(decoupled_hamiltonian_n(n_sites, params, c))
    return float(logsumexp(-spec.beta * w) / (spec.beta * n_sites))


def total_number(n_sites):
    """Sparse total occupation, the sum of a+ a over every mode."""
    out = sp.csr_matrix((4**n_sites, 4**n_sites), dtype=complex)
    for x in range(n_sites):
        for spin in fock.SPINS:
            a = fock.embed(n_sites, x, spin)
            out = out + a.conj().T @ a
    return out.tocsr()


def parity_operator(n_sites):
    """Sparse diagonal (-1)**(total occupation)."""
    occupation = total_number(n_sites).diagonal().real
    return sp.diags(np.where(occupation % 2, -1.0, 1.0).astype(complex), format="csr")
