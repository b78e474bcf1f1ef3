"""Scattering data and solvability constraints for the coordinate Bethe ansatz.

Momenta are represented by z = e^{ik} directly (k itself is never stored, so
there are no branch cuts).  The central object is the function Lambda(z1, z2);
the two-body scattering amplitude is S(z1, z2) = -Lambda(z1, z2)/Lambda(z2, z1)
and the double-occupancy decay coefficient is

    N(z1, z2) = (z1 - z2)(p + q z1 z2)(t2 + t1 z1 z2) / (2 Lambda(z2, z1)).

The pair table (_PairTable) is the one home of these: it takes Lambda over
every ordered pair of an (n, M) momentum batch in one call and builds S, N,
the singular rule and amps, the (n, M!) plane-wave amplitudes of every
permutation (the product of S over its inversions), from it.  amps is one
gather-and-multiply pass per inversion over permutation_table's padded
inversion index; A(perm) reads one column.  s_matrix, n_factor and
pair_row are one-row reads of that table (s_matrix and n_factor in Python
complex arithmetic, as the Bethe solver's BAE residuals); the Bethe solver
and eigenvector assembly read it too.

A Hamiltonian is CBA-solvable iff three symmetrized sums vanish identically in
the momenta; this module tests that by randomized evaluation (a rational
function vanishing at generic sample points vanishes identically, up to a
measure-zero failure set).  Each sum's summands are one (n, M!) array:
amps times the integrand over the momenta gathered in every permutation's
order, with N at its adjacent pairs.

Batch size never changes a bit of Lambda, its gradient or the pair table.
For an array temporary of 256 KiB or more numpy computes x * (temporary),
x of the same shape, in place as (temporary) * x, and complex
multiplication, fused where the CPU has FMA, does not commute to the last
bit.  So in lambda_fn, lambda_grad, the pair table and the Bethe solver's
Newton kernel the right operand of such a product is always a named array.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .hamiltonian import invariants

S_SING_TOL = 1e-13


def _coeffs(params):
    """(p, q, s1, s2, t1, t2, tp, sp, X11, Y), memoized on the instance."""
    c = getattr(params, "_lambda_coeffs", None)
    if c is None:
        inv = invariants(params)
        c = (params.p, params.q, params.s1, params.s2, params.t1, params.t2,
             params.tp, params.sp, inv.X11, inv.Y)
        object.__setattr__(params, "_lambda_coeffs", c)
    return c


def lambda_fn(params, z1, z2):
    """Lambda(z1, z2); polynomial in both momenta.  Vectorizes over arrays,
    each entry computed as it would be alone (see the module docstring on
    batch size)."""
    p, q, s1, s2, t1, t2, tp, sp, X11, Y = _coeffs(params)
    zz, zs = z1 * z2, z1 + z2
    f1 = s1 + s2 * zz
    u = z2 * f1 * (t2 + t1 * zz)
    a = Y * zz - q * zz * zs - p * zs + sp * zz * zz + tp
    b = X11 * z2 - q * zz - p
    return u - a * b


def lambda_grad(params, z1, z2):
    """(d/dz1, d/dz2) of lambda_fn, for Newton iterations on the BAE."""
    p, q, s1, s2, t1, t2, tp, sp, X11, Y = _coeffs(params)
    zz, zs = z1 * z2, z1 + z2
    f1 = s1 + s2 * zz
    f2 = t2 + t1 * zz
    a = Y * zz - q * zz * zs - p * zs + sp * zz * zz + tp
    b = X11 * z2 - q * zz - p
    da1 = Y * z2 - q * z2 * (2 * z1 + z2) - p + 2 * sp * z1 * z2 * z2
    da2 = Y * z1 - q * z1 * (z1 + 2 * z2) - p + 2 * sp * z1 * z1 * z2
    df = s2 * f2 + t1 * f1
    db1, db2 = -q * z2, X11 - q * z1
    d1 = z2 * z2 * df - da1 * b - a * db1
    d2 = f1 * f2 + zz * df - da2 * b - a * db2
    return d1, d2


@functools.lru_cache(maxsize=8)
def ordered_pairs(M):
    """Read-only index arrays of the M(M-1) ordered pairs (i, j), i != j, in
    row-major order: I, J, and the (M, M) map col[i, j] from a pair to its
    position (-1 on the diagonal).  Lambda over every pair of an (n, M)
    momentum batch is then one call, lambda_fn(params, Z[:, I], Z[:, J])."""
    I, J = np.nonzero(~np.eye(M, dtype=bool))
    col = np.full((M, M), -1)
    col[I, J] = np.arange(len(I))
    for a in (I, J, col):
        a.setflags(write=False)
    return I, J, col


@functools.lru_cache(maxsize=8)
def permutation_table(M):
    """Read-only tables of the M! permutations of range(M), in
    itertools.permutations order: perms (M!, M); inv (M!, K), K = M(M-1)/2,
    the ordered-pair positions (ordered_pairs' col[a, b]) of each
    permutation's inversions (a, b), a < b, in (a, b) order; and index, the
    map from a permutation tuple to its row.  Rows of inv are padded at the
    front with M(M-1), the position of a column of ones: multiplying the
    columns in turn onto a one then multiplies ones first, which is exact,
    and each product takes the rounding of its unpadded product."""
    perms = np.array(list(itertools.permutations(range(M))), int)
    _, _, col = ordered_pairs(M)
    pos = np.argsort(perms, axis=1)
    K = M * (M - 1) // 2
    inv = np.full((len(perms), K), M * (M - 1))
    for r in range(len(perms)):
        pairs = [col[a, b] for a in range(M) for b in range(a + 1, M)
                 if pos[r, a] > pos[r, b]]
        inv[r, K - len(pairs):] = pairs
    for a in (perms, inv):
        a.setflags(write=False)
    return perms, inv, {tuple(p): r for r, p in enumerate(perms.tolist())}


def _ratio(num, den):
    """num / den elementwise; NaN where den is exactly 0 (a singular pair),
    which also keeps object-dtype tables from raising ZeroDivisionError."""
    return np.divide(num, den, out=np.full(num.shape, np.nan, num.dtype),
                     where=den != 0)


class _PairTable:
    """Lambda over all ordered pairs of an (n, M) momentum batch, and what is
    built from it: S(i, j), N(i, j), A(perm) and the singular masks.

    Z may be complex128 or an object array of Python complex numbers; the
    table then computes in that arithmetic."""

    def __init__(self, params, Z):
        self.I, self.J, self.col = ordered_pairs(Z.shape[1])
        self.Z = Z
        self.params = params
        self.lam = lambda_fn(params, Z[:, self.I], Z[:, self.J])
        # den[:, k] = Lambda(z_j, z_i) for pair k = (i, j): the denominator
        # of S(i, j) and N(i, j)
        self.den = self.lam[:, self.col[self.J, self.I]]

    def singular_pairs(self):
        """(n, M(M-1)) mask of the pairs (i, j) where S(i, j) and N(i, j) are
        singular: |Lambda(z_j, z_i)| <= S_SING_TOL max(|Lambda(z_i, z_j)|,
        |Lambda(z_j, z_i)|, 1e-300).  An overflowed (infinite) Lambda is
        not singular: its S and N are not finite and fail where they are
        used, whereas a singular point would be resampled."""
        num, den = np.abs(self.lam), np.abs(self.den)
        scale = np.maximum(np.maximum(num, den), 1e-300)
        return (den <= S_SING_TOL * scale) & (scale < np.inf)

    def singular(self):
        """Per-row mask: some pair of the row is singular."""
        return np.any(self.singular_pairs(), axis=1)

    def singular_at(self, row, what="S", pair=None):
        """"singular {what} at (z1, z2)" for a singular pair of the row:
        pair (i, j) if given, else the first in row-major order; None if
        there is none."""
        bad = self.singular_pairs()[row]
        for k in range(len(bad)) if pair is None else [self.col[pair]]:
            if bad[k]:
                z1 = complex(self.Z[row, self.I[k]])
                z2 = complex(self.Z[row, self.J[k]])
                return f"singular {what} at ({z1}, {z2})"
        return None

    def require(self, what="S", pair=None):
        """Self, or ValueError naming a singular pair of row 0 (singular_at)."""
        msg = self.singular_at(0, what, pair)
        if msg:
            raise ValueError(msg)
        return self

    @functools.cached_property
    def _s(self):
        return _ratio(-self.lam, self.den)

    @functools.cached_property
    def _n(self):
        h = self.params
        Zi, Zj = self.Z[:, self.I], self.Z[:, self.J]
        zz = Zi * Zj
        return _ratio((Zi - Zj) * (h.p + h.q * zz) * (h.t2 + h.t1 * zz),
                      2 * self.den)

    def S(self, i, j):
        return self._s[:, self.col[i, j]]

    def N(self, i, j):
        return self._n[:, self.col[i, j]]

    @functools.cached_property
    def amps(self):
        """(n, M!) plane-wave coefficients of every permutation, in
        permutation_table order: the product of S over the permutation's
        inversions (A_id = 1, A_{sigma T_j} = S(z_{sigma(j)}, z_{sigma(j+1)})
        A_sigma), multiplied onto a one in (a, b) order."""
        _, inv, _ = permutation_table(self.Z.shape[1])
        s = np.concatenate([self._s, np.ones((len(self.Z), 1), self._s.dtype)],
                           axis=1)
        out = np.ones((len(self.Z), len(inv)), complex)
        for k in range(inv.shape[1]):
            factor = s[:, inv[:, k]]
            out = out * factor
        return out

    def A(self, perm):
        """The amps column of perm."""
        return self.amps[:, permutation_table(self.Z.shape[1])[2][tuple(perm)]]

    def adjacent_n(self, perms, k):
        """(n, len(perms)) N(perm[k], perm[k+1]) of each row of perms."""
        return self._n[:, self.col[perms[:, k], perms[:, k + 1]]]


def pair_row(params, z):
    """The pair table of the single momentum tuple z."""
    return _PairTable(params, np.array([z], complex))


def _exact_pair(params, z1, z2):
    """The pair table of (z1, z2) in Python complex arithmetic (object
    dtype), the arithmetic of the batched BAE residuals."""
    return _PairTable(params, np.array([[complex(z1), complex(z2)]], object))


def s_matrix(params, z1, z2):
    """Two-body scattering amplitude S(z1, z2) = -Lambda(z1,z2)/Lambda(z2,z1)."""
    return complex(_exact_pair(params, z1, z2).require("S", (0, 1)).S(0, 1)[0])


def n_factor(params, z1, z2):
    """Decay coefficient attaching to a doubly occupied site."""
    return complex(_exact_pair(params, z1, z2).require("N", (0, 1)).N(0, 1)[0])


def _e21_terms(params, table):
    h, inv = params, invariants(params)
    perms, _, _ = permutation_table(3)
    a, b, c = (table.Z[:, perms[:, k]] for k in range(3))
    w = c * (table.adjacent_n(perms, 0) * (inv.X21 - h.q * (a + b)
                                           - h.p * (1 / a + 1 / b + 1 / c)
                                           + h.tp / (a * b))
             + table.adjacent_n(perms, 1) * h.s3 * b + h.t2 / a)
    return table.amps * w


def _e12_terms(params, table):
    h, inv = params, invariants(params)
    perms, _, _ = permutation_table(3)
    a, b, c = (table.Z[:, perms[:, k]] for k in range(3))
    w = (1 / a) * (table.adjacent_n(perms, 1) * (inv.X12 - h.q * (a + b + c)
                                                 - h.p * (1 / b + 1 / c)
                                                 + h.sp * b * c)
                   + table.adjacent_n(perms, 0) * h.t3 / b + h.t1 * c)
    return table.amps * w


def _e22_terms(params, table):
    h, inv = params, invariants(params)
    perms, _, _ = permutation_table(4)
    a, b, c, d = (table.Z[:, perms[:, k]] for k in range(4))
    n01, n23 = table.adjacent_n(perms, 0), table.adjacent_n(perms, 2)
    w = c * d * (n01 * n23
                 * (inv.X22 + inv.Y + h.tp / (a * b)
                    - h.q * (a + b + c + d) + h.sp * c * d
                    - h.p * (1 / a + 1 / b + 1 / c + 1 / d))
                 + n23 * h.t2 / a + n01 * h.t1 * d)
    return table.amps * w


_CONSTRAINTS = {"E21": (3, _e21_terms), "E12": (3, _e12_terms), "E22": (4, _e22_terms)}


def _constraint_batch(params, Z, which):
    """(relative residuals, singular mask) for one constraint over a momentum batch."""
    _, term_fn = _CONSTRAINTS[which]
    table = _PairTable(params, Z)
    bad = table.singular()
    terms = term_fn(params, table)
    total = sum(terms.T)       # added in permutation order
    scale = np.abs(terms).max(axis=1)
    rel = np.abs(total) / np.where(scale > 0, scale, 1.0)
    return rel, bad


def _single(params, z, which):
    M, _ = _CONSTRAINTS[which]
    z = [complex(w) for w in z]
    if len(z) != M:
        raise ValueError(f"{which} takes {M} momenta")
    if any(w == 0 for w in z):
        raise ValueError("invalid momentum z = 0")
    table = pair_row(params, z)
    if table.singular()[0] and np.any(table.lam[0] != 0):
        raise ValueError("resample momenta: Lambda singular at this point")
    # where Lambda vanishes identically on this parameter ray, resampling
    # cannot help: S and N are NaN there, and so is the sum
    return complex(sum(_CONSTRAINTS[which][1](params, table).T)[0])


def constraint_e21(params, z):
    """Symmetrized sum over S3 of the double+right-neighbour integrand."""
    return _single(params, z, "E21")


def constraint_e12(params, z):
    """Symmetrized sum over S3 of the double+left-neighbour integrand."""
    return _single(params, z, "E12")


def constraint_e22(params, z):
    """Symmetrized sum over S4 of the adjacent double-double integrand."""
    return _single(params, z, "E22")


@dataclass(frozen=True)
class SolvabilityVerdict:
    solvable: bool
    max_residual: float
    samples: int
    failing_constraint: str | None = None
    tol: float = 1e-9


def random_momenta(rng, shape, rmin=0.5, rmax=2.0):
    """Uniform draws on the annulus rmin <= |z| <= rmax."""
    r = rng.uniform(rmin, rmax, shape)
    ph = rng.uniform(0.0, 2 * np.pi, shape)
    return r * np.exp(1j * ph)


def is_cba_solvable(params, n_samples=20, tol=1e-9, seed=0, rng=None):
    """Randomized identity test of the three solvability constraint sums.

    Each constraint is evaluated at n_samples independent momentum tuples
    drawn on an annulus (resampled where Lambda degenerates); the residual is
    the sum magnitude relative to the largest individual summand, so the test
    is scale-invariant in the parameters.
    """
    params.check_gates()
    if rng is None:
        rng = np.random.default_rng(seed)
    worst = 0.0
    failing = None
    for which in ("E21", "E12", "E22"):
        M = _CONSTRAINTS[which][0]
        rel = np.empty(0)
        for _ in range(8):
            need = n_samples - rel.size
            if need <= 0:
                break
            Z = random_momenta(rng, (need, M))
            with np.errstate(all="ignore"):   # overflow fails the test below
                r, bad = _constraint_batch(params, Z, which)
            rel = np.concatenate([rel, r[~bad]])
        if rel.size < n_samples:
            raise RuntimeError("could not draw nonsingular momenta")
        m = float(np.max(rel))
        if not np.isfinite(m):
            m = np.inf      # a NaN residual must fail, not compare false
        if m > worst:
            worst = m
        if m > tol and failing is None:
            failing = which
    return SolvabilityVerdict(solvable=worst <= tol, max_residual=worst,
                              samples=n_samples, failing_constraint=failing,
                              tol=tol)
