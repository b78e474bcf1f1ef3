"""Brute-force reference spectra: dense diagonalization per S^z sector.

Chain matrices here are generically non-Hermitian complex matrices, so the
general eigensolver is used and eigenvalues are compared as complex numbers.
Matching against Bethe-ansatz output is multiset-aware (each reference
eigenvalue is consumed once per multiplicity) with an absolute tolerance
after normalizing by the largest matrix entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import ChainSpec, sector_basis, two_site_matrix, _apply_bonds

SECTOR_DIM_CAP = 20000


@dataclass
class SectorSpectrum:
    M: int
    eigenvalues: np.ndarray
    dimension: int
    matrix: np.ndarray | None = None   # the sector matrix, when built here


@dataclass
class SectorReport:
    M: int
    dimension: int
    matched: int
    unmatched: list = field(default_factory=list)
    coverage: float = 0.0


def sector_matrix(params, L, M):
    """Restriction of the periodic chain to the S^z = M occupation basis."""
    ChainSpec(L)  # raises unless 2 <= L <= L_max
    basis = sector_basis(L, M)
    index = {s: i for i, s in enumerate(basis)}
    return _apply_bonds(two_site_matrix(params), basis, index, L)


def sector_spectrum(params, L, M):
    """Eigenvalues of the (L, M) sector matrix, returned with the matrix."""
    H = sector_matrix(params, L, M)
    if H.shape[0] > SECTOR_DIM_CAP:
        raise ValueError(f"sector dimension {H.shape[0]} exceeds cap")
    try:
        ev = np.linalg.eigvals(H) if H.size else np.empty(0, complex)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed for L={L}, M={M}: {exc}")
    return SectorSpectrum(M=M, eigenvalues=ev, dimension=H.shape[0], matrix=H)


def match_multiset(values, reference, tol):
    """Greedy nearest matching of values into the reference multiset.

    Returns (number matched, list of unmatched values).
    """
    pool = list(reference)
    unmatched = []
    matched = 0
    for v in values:
        if not pool:
            unmatched.append(v)
            continue
        dist = [abs(v - r) for r in pool]
        k = int(np.argmin(dist))
        if dist[k] <= tol:
            pool.pop(k)
            matched += 1
        else:
            unmatched.append(v)
    return matched, unmatched


def compare(cba_solutions, ed, tol=1e-8, scale=1.0):
    """Match accepted Bethe energies against a sector spectrum."""
    energies = [sol.energy for sol in cba_solutions]
    matched, unmatched = match_multiset(energies, ed.eigenvalues, tol * scale)
    report = SectorReport(M=ed.M, dimension=ed.dimension, matched=matched,
                          unmatched=unmatched)
    report.coverage = matched / ed.dimension if ed.dimension else 1.0
    return report
