"""Normalization + gauge maps taking a family member to its reduced form.

The reduced two-site matrix is

    H_red = N0 * (G x G) (H - (V/2)(sz_1 + sz_2)) (G^-1 x G^-1),

with a per-family constant N0 and diagonal gauge G = diag(1, g1, 1); the
result depends only on the family's reduced parameters.  Two conventions make
that literal:

* the diagonal entries are first canonicalized to the symmetric telescoping
  frame (reductions must not see the telescoping freedom), and
* gauge and normalization square roots are evaluated from the reduced
  parameters with principal branches, so equal reduced data gives an
  entrywise-equal matrix for different free-parameter draws.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import (apply_frame, invariants, symmetric_diagonal,
                          two_site_matrix)
from .families import FAMILIES, _normalize_branch

SZ = np.diag([0.0, 1.0, 2.0]).astype(complex)
I3 = np.eye(3, dtype=complex)
SZ_TWO_SITE = np.kron(SZ, I3) + np.kron(I3, SZ)


def _canonical_two_site(params):
    inv = invariants(params)
    canon = params.replace(v=symmetric_diagonal(inv))
    return two_site_matrix(canon) - (inv.V / 2) * SZ_TWO_SITE


def reduce_two_site(params, n0, gamma):
    """Apply the reduction map with an explicit normalization and gauge ratio
    gamma = g0 g2 / g1^2 (entries scale by gamma^(difference of |1> counts))."""
    m = _canonical_two_site(params)
    g1 = 1 / np.sqrt(complex(gamma))
    gg = np.kron(np.diag([1.0, g1, 1.0]), np.diag([1.0, g1, 1.0]))
    return complex(n0) * gg @ m @ np.diag(1 / np.diag(gg))


def reduce_hamiltonian(params, match):
    """Reduced 9x9 matrix and reduced parameters for a classified Hamiltonian.

    The reduction is performed in the match's P/C/T frame (where the family
    formulas hold).
    """
    fam = FAMILIES[match.tag]
    branch = _normalize_branch(fam, match.branch)
    framed = apply_frame(params, match.frame)
    red = fam.member_reduced(framed, match.free_params, branch)
    n0, gamma = fam.reduction_gauge(match.free_params, branch, red)
    return reduce_two_site(framed, n0, gamma), red
