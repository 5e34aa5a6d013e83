r"""Fermionic Fock spaces and CAR operator matrices.

Single site
-----------

One lattice site carries two spin modes (up, down), so its Fock space is
4-dimensional.  The basis ordering is fixed once and for all across the
whole package:

    index 0 : vacuum
    index 1 : one spin-up fermion
    index 2 : one spin-down fermion
    index 3 : doubly occupied, defined as  a+_up a+_dn |vac>

With this convention the annihilators have integer entries

    a_up = |0><1| + |2><3|          a_dn = |0><2| - |1><3|

and the pair annihilator ``a_dn @ a_up`` has the single entry <0|.|3> = +1.

Many sites
----------

``n_sites`` sites give a 4**n_sites dimensional space, ordered site-major
with site 0 as the leftmost Kronecker factor.  Modes are ordered site-major
with spin-up before spin-down inside a site.  Operators for site x carry a
parity (Jordan-Wigner) string over all earlier sites,

    a_{x,s} = P (x) P (x) ... (x) a_s (x) 1 (x) ... (x) 1,

where P = diag(1,-1,-1,1) is the one-site parity.  Any fixed sign
convention satisfying the canonical anti-commutation relations

    {a_i, a_j} = 0,      {a_i, a+_j} = delta_ij 1

is admissible; this one keeps all matrix entries in {0, +1, -1}, so
``car_report`` returns exactly zero rather than merely something small.

Matrices are built over integers, stored as sparse CSR in complex floating
point.  Dense conversion is left to the caller.  Every N-site builder stops
at n_sites = 5 (dimension 1024): larger product states are handled without
any 4**N object, by the closed-form site series of
:func:`mfbcs.dynamics.product_site_series`.  scipy.sparse is imported by the
builders that call it, so importing this module does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from .errors import CapacityError

if TYPE_CHECKING:
    import scipy.sparse as sp

SPINS = ("up", "dn")

#: Largest site count for which 4**N operators and states are materialized.
DENSE_SITE_LIMIT = 5


def _onsite_matrices() -> Dict[str, np.ndarray]:
    a_up = np.zeros((4, 4))
    a_up[0, 1] = 1.0
    a_up[2, 3] = 1.0
    a_dn = np.zeros((4, 4))
    a_dn[0, 2] = 1.0
    a_dn[1, 3] = -1.0
    parity = np.diag([1.0, -1.0, -1.0, 1.0])
    return {
        "a_up": a_up,
        "a_dn": a_dn,
        "n_up": a_up.T @ a_up,
        "n_dn": a_dn.T @ a_dn,
        "parity": parity,
    }


_ONSITE = _onsite_matrices()

# Public single-site constants (complex copies; callers must not mutate).
A_UP: np.ndarray = _ONSITE["a_up"].astype(complex)
A_DN: np.ndarray = _ONSITE["a_dn"].astype(complex)
N_UP: np.ndarray = _ONSITE["n_up"].astype(complex)
N_DN: np.ndarray = _ONSITE["n_dn"].astype(complex)
PARITY_1: np.ndarray = _ONSITE["parity"].astype(complex)
#: Pair annihilator a_dn a_up (single entry <0|.|3> = +1).
PAIR: np.ndarray = A_DN @ A_UP
#: Pair creator (a_dn a_up)^dagger = a+_up a+_dn.
PAIR_DAG: np.ndarray = PAIR.conj().T
IDENTITY_1: np.ndarray = np.eye(4, dtype=complex)

#: The one-site observables tabulated by ``simulate`` and ``converge`` and
#: compared with the mean-field flow: density d, magnetization m, double
#: occupancy w and the Cooper-pair field z.  Placed at site 0 they need no
#: parity string.
SITE_OBSERVABLES: Dict[str, np.ndarray] = {
    "d": N_UP + N_DN,
    "m": N_UP - N_DN,
    "w": N_UP @ N_DN,
    "z": PAIR,
}
#: Real columns of the table; the complex pair field splits into quadratures.
SITE_COLUMNS = ("d", "m", "w", "z_re", "z_im")


def site_columns(series: Sequence) -> Dict[str, np.ndarray]:
    """Real columns of (d, m, w, z) values given in SITE_OBSERVABLES order."""
    d, m, w, z = series
    return {
        "d": np.real(d), "m": np.real(m), "w": np.real(w),
        "z_re": np.real(z), "z_im": np.imag(z),
    }


def check_site_count(n_sites: int) -> None:
    """Validate a site count for a 4**N build: 1 <= n_sites <= DENSE_SITE_LIMIT."""
    if n_sites < 1:
        raise ValueError(f"site count must be >= 1, got {n_sites}")
    if n_sites > DENSE_SITE_LIMIT:
        raise CapacityError(
            f"n_sites={n_sites} exceeds the dense limit {DENSE_SITE_LIMIT}; "
            "product states at any site count go through "
            "dynamics.product_site_series"
        )


def embed(n_sites: int, site: int, spin: str) -> sp.csr_matrix:
    """Annihilator a_{site,spin} on the n_sites-site space, sparse CSR.

    Site 0 is the leftmost tensor factor; a parity string runs over all
    sites left of ``site``.
    """
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    check_site_count(n_sites)
    if not 0 <= site < n_sites:
        raise ValueError(f"site index {site} out of range for n_sites={n_sites}")
    if spin not in SPINS:
        raise ValueError(f"spin must be one of {SPINS}, got {spin!r}")
    local = _ONSITE["a_up"] if spin == "up" else _ONSITE["a_dn"]
    out = sp.identity(1, dtype=complex, format="csr")
    for x in range(n_sites):
        if x < site:
            factor = _ONSITE["parity"]
        elif x == site:
            factor = local
        else:
            factor = np.eye(4)
        out = sp.kron(out, sp.csr_matrix(factor.astype(complex)), format="csr")
    return out


def embed_local(n_sites: int, site: int, op: np.ndarray) -> sp.csr_matrix:
    """Embed an arbitrary 4x4 operator at ``site`` with no parity string.

    Correct as-is for even operators; odd one-site operators should be
    assembled from :func:`embed` instead.
    """
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    check_site_count(n_sites)
    if not 0 <= site < n_sites:
        raise ValueError(f"site index {site} out of range for n_sites={n_sites}")
    if op.shape != (4, 4):
        raise ValueError(f"expected a 4x4 operator, got shape {op.shape}")
    out = sp.identity(1, dtype=complex, format="csr")
    for x in range(n_sites):
        factor = op.astype(complex) if x == site else np.eye(4, dtype=complex)
        out = sp.kron(out, sp.csr_matrix(factor), format="csr")
    return out


def parity_operator(n_sites: int) -> sp.csr_matrix:
    """Diagonal operator (-1)**(total occupation), sparse."""
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    check_site_count(n_sites)
    diag = np.ones(1)
    for _ in range(n_sites):
        diag = np.kron(diag, np.diag(_ONSITE["parity"]))
    return sp.diags(diag.astype(complex), format="csr")


@dataclass(frozen=True)
class FermionOperatorSet:
    """All CAR matrices for a fixed site count.

    Dictionaries are keyed by (site, spin).  Everything is immutable after
    construction and safe to share between threads.
    """

    n_sites: int
    annihilators: Dict[Tuple[int, str], sp.csr_matrix] = field(repr=False)
    creators: Dict[Tuple[int, str], sp.csr_matrix] = field(repr=False)
    numbers: Dict[Tuple[int, str], sp.csr_matrix] = field(repr=False)
    parity: sp.csr_matrix = field(repr=False)

    @classmethod
    def build(cls, n_sites: int) -> "FermionOperatorSet":
        check_site_count(n_sites)
        ann: Dict[Tuple[int, str], sp.csr_matrix] = {}
        cre: Dict[Tuple[int, str], sp.csr_matrix] = {}
        num: Dict[Tuple[int, str], sp.csr_matrix] = {}
        for x in range(n_sites):
            for s in SPINS:
                a = embed(n_sites, x, s)
                ann[(x, s)] = a
                cre[(x, s)] = a.conj().T.tocsr()
                num[(x, s)] = (cre[(x, s)] @ a).tocsr()
        return cls(
            n_sites=n_sites,
            annihilators=ann,
            creators=cre,
            numbers=num,
            parity=parity_operator(n_sites),
        )

    @property
    def dim(self) -> int:
        return 4**self.n_sites

    def modes(self) -> List[Tuple[int, str]]:
        return [(x, s) for x in range(self.n_sites) for s in SPINS]

    def total_number(self) -> sp.csr_matrix:
        # imported here, not at module level: scipy.sparse takes ~0.2 s to load
        import scipy.sparse as sp

        out = sp.csr_matrix((self.dim, self.dim), dtype=complex)
        for key in self.modes():
            out = out + self.numbers[key]
        return out.tocsr()


def _max_abs(m: sp.spmatrix) -> float:
    m = m.tocsr()
    return 0.0 if m.nnz == 0 else float(np.max(np.abs(m.data)))


def car_report(ops: FermionOperatorSet) -> float:
    """Maximum absolute violation over every anticommutator identity.

    Checks {a_i, a_j} = 0 and {a_i, a+_j} = delta_ij over all mode pairs.
    A correct construction returns exactly 0.0 because all entries are
    integers.
    """
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    modes = ops.modes()
    eye = sp.identity(ops.dim, dtype=complex, format="csr")
    worst = 0.0
    for i, ki in enumerate(modes):
        ai = ops.annihilators[ki]
        for kj in modes[i:]:
            aj = ops.annihilators[kj]
            worst = max(worst, _max_abs(ai @ aj + aj @ ai))
        for kj in modes:
            adj = ops.creators[kj]
            anti = ai @ adj + adj @ ai
            if ki == kj:
                anti = anti - eye
            worst = max(worst, _max_abs(anti))
    return worst


def condensate_op(n_sites: int) -> sp.csr_matrix:
    """Zero-mode pair annihilator  n_sites**(-1/2) * sum_x a_{x,dn} a_{x,up}.

    Annihilates one Cooper pair in the condensate; even, with operator norm
    at most sqrt(n_sites).
    """
    # imported here, not at module level: scipy.sparse takes ~0.2 s to load
    import scipy.sparse as sp

    check_site_count(n_sites)
    out = sp.csr_matrix((4**n_sites, 4**n_sites), dtype=complex)
    pair = PAIR  # even one-site operator, no string needed
    for x in range(n_sites):
        out = out + embed_local(n_sites, x, pair)
    return (out / np.sqrt(n_sites)).tocsr()
