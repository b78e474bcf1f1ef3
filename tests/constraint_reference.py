"""Reference forms of the solvability constraint sums, for the tests.

The single-point sums constraint_e21, constraint_e12 and constraint_e22
take one momentum tuple.  is_cba_solvable is the identity test as it reads
with one pair table per sum, built on the fly from a writable copy of its
sample rows, and with each summand's momenta gathered and combined in
place: the package's test, which shares one table between E21 and E12 and
reads geometry built at import, must give every bit of its answer.

The right operand of every product in the sums is a named array or a
number, never a temporary: numpy computes x * (temporary) of 256 KiB or
more in place, as (temporary) * x, and complex multiplication does not
commute to the last bit where the CPU fuses multiply-adds.  So each row
of a batch, however large, has the bits of a table of its own.
"""

import numpy as np

from bethe_forge import constraints
from bethe_forge.constraints import (_PairTable, invariants,
                                     permutation_table)


def _adjacent_n(table, perms, k):
    """(n, len(perms)) N(perm[k], perm[k+1]) of each row of perms."""
    return table._n[:, table.col[perms[:, k], perms[:, k + 1]]]


def e21_terms(params, table):
    h, inv = params, invariants(params)
    perms, _, _ = permutation_table(3)
    a, b, c = (table.Z[:, perms[:, k]] for k in range(3))
    ab_sum, recip, ab = a + b, 1 / a + 1 / b + 1 / c, a * b
    inner = inv.X21 - h.q * ab_sum - h.p * recip + h.tp / ab
    w = (_adjacent_n(table, perms, 0) * inner
         + _adjacent_n(table, perms, 1) * h.s3 * b + h.t2 / a)
    w = c * w
    return table.amps * w


def e12_terms(params, table):
    h, inv = params, invariants(params)
    perms, _, _ = permutation_table(3)
    a, b, c = (table.Z[:, perms[:, k]] for k in range(3))
    inv_a, abc_sum, recip = 1 / a, a + b + c, 1 / b + 1 / c
    inner = inv.X12 - h.q * abc_sum - h.p * recip + h.sp * b * c
    w = (_adjacent_n(table, perms, 1) * inner
         + _adjacent_n(table, perms, 0) * h.t3 / b + h.t1 * c)
    w = inv_a * w
    return table.amps * w


def e22_terms(params, table):
    h, inv = params, invariants(params)
    perms, _, _ = permutation_table(4)
    a, b, c, d = (table.Z[:, perms[:, k]] for k in range(4))
    n01, n23 = _adjacent_n(table, perms, 0), _adjacent_n(table, perms, 2)
    cd, ab = c * d, a * b
    abcd_sum, recip = a + b + c + d, 1 / a + 1 / b + 1 / c + 1 / d
    inner = (inv.X22 + inv.Y + h.tp / ab - h.q * abcd_sum + h.sp * c * d
             - h.p * recip)
    w = n01 * n23 * inner + n23 * h.t2 / a + n01 * h.t1 * d
    w = cd * w
    return table.amps * w


TERMS = {"E21": (3, e21_terms), "E12": (3, e12_terms), "E22": (4, e22_terms)}


def _single(params, z, which):
    M, term_fn = TERMS[which]
    z = [complex(w) for w in z]
    if len(z) != M:
        raise ValueError(f"{which} takes {M} momenta")
    if any(w == 0 for w in z):
        raise ValueError("invalid momentum z = 0")
    table = _PairTable(params, np.array([z], complex))
    if table.singular()[0] and np.any(table.lam[0] != 0):
        raise ValueError("resample momenta: Lambda singular at this point")
    # where Lambda vanishes identically on this parameter ray, resampling
    # cannot help: S and N are NaN there, and so is the sum
    return complex(sum(term_fn(params, table).T)[0])


def constraint_e21(params, z):
    """Symmetrized sum over S3 of the double+right-neighbour integrand."""
    return _single(params, z, "E21")


def constraint_e12(params, z):
    """Symmetrized sum over S3 of the double+left-neighbour integrand."""
    return _single(params, z, "E12")


def constraint_e22(params, z):
    """Symmetrized sum over S4 of the adjacent double-double integrand."""
    return _single(params, z, "E22")


def constraint_batch(params, Z, which):
    """(relative residuals, singular mask, largest |summand|) of one sum over
    a momentum batch, on its own pair table of a writable copy of Z."""
    table = _PairTable(params, np.array(Z))
    terms = TERMS[which][1](params, table)
    total = sum(terms.T)       # added in permutation order
    scale = np.abs(terms).max(axis=1)
    rel = np.abs(total) / np.where(scale > 0, scale, 1.0)
    return rel, table.singular(), scale


def is_cba_solvable(params, tol=1e-9):
    """(solvable, max_residual, failing_constraint, samples, vacuous) of the
    identity test at constraints.SAMPLE_TABLES, one sum at a time."""
    params.check_gates()
    tables = constraints.SAMPLE_TABLES
    residuals, vacuous = {}, True
    for which, (M, _) in TERMS.items():
        Z = tables[which]
        with np.errstate(all="ignore"):
            rel, bad, scale = constraint_batch(params, Z, which)
            if bad.any():
                s_rel, s_bad, s_scale = constraint_batch(
                    params, tables["spare"][:, :M], which)
                rel = np.concatenate([rel[~bad], s_rel[~s_bad]])[:len(Z)]
                scale = np.concatenate([scale[~bad], s_scale[~s_bad]])[:len(Z)]
        if rel.size < len(Z):
            raise constraints.GateViolation(
                "S is singular at every momentum sample")
        vacuous = vacuous and bool(np.all(scale == 0))
        m = float(np.max(rel))
        residuals[which] = m if np.isfinite(m) else np.inf
    worst = max(residuals.values())
    failing = next((w for w, m in residuals.items() if m > tol), None)
    return worst <= tol, worst, failing, len(Z), vacuous
