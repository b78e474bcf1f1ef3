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
and eigenvector assembly read it too.  The table computes in complex128
or, given a PyComplexArray, in CPython's complex arithmetic, bit for bit,
on float64 arrays; Lambda, S, N and the singular rule then have one
implementation for both.

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


def _parts(x):
    """(re, im) float64 parts of a PyComplexArray, a complex ndarray or a
    number; a real number x is (x, +0.0), as Python's complex arithmetic
    takes it.  None for any other type."""
    if isinstance(x, PyComplexArray):
        return x.re, x.im
    if isinstance(x, np.ndarray) and x.dtype.kind == "c":
        return x.real, x.imag
    if isinstance(x, (int, float, complex, np.number)):
        z = complex(x)
        return z.real, z.imag
    return None


def _sum(ar, ai, br, bi):
    return ar + br, ai + bi


def _diff(ar, ai, br, bi):
    return ar - br, ai - bi


def _prod(ar, ai, br, bi):
    """CPython's _Py_c_prod on float64 parts: four products, unfused."""
    return ar * br - ai * bi, ar * bi + ai * br


def _quot(ar, ai, br, bi):
    """CPython's _Py_c_quot on float64 parts (Smith's algorithm): divided
    through by br where |br| >= |bi|, else by bi.  The second branch is the
    first with the parts of a and of b swapped and its imaginary numerator
    negated (t - v, not v - t, which would flip a zero's sign), so both are
    one pass with the branch picked per element.  Where either part of b
    is NaN, ratio is NaN and so is the result, as CPython's third branch
    gives; at b = 0, where CPython raises, the result is NaN too."""
    first = np.abs(br) >= np.abs(bi)
    big, small = np.where(first, br, bi), np.where(first, bi, br)
    u, v = np.where(first, ar, ai), np.where(first, ai, ar)
    ratio = small / big
    denom = big + small * ratio
    t = u * ratio
    return (u + v * ratio) / denom, np.where(first, v - t, t - v) / denom


class PyComplexArray:
    """Complex numbers as a pair of float64 arrays re, im, with the
    arithmetic of CPython's complex type, bit for bit, on every element at
    once.  Each operation is the float64 sequence of Objects/complexobject.c,
    each step rounded by numpy as C rounds it.  That holds where the
    interpreter's compiler fuses no multiply-add (x86-64 builds without FMA
    flags); where it does, TestPyComplexArray fails:

    * a + b, a - b, -a: part by part;
    * a * b: _Py_c_prod (_prod);
    * a / b: _Py_c_quot, both of its branches (_quot);
    * a ** n, n an int: c_powi, repeated squaring as c_powu (1 / a^-n for
      n <= 0);
    * abs(a): hypot, a float64 array.

    The other operand may be a number, real or complex, or a complex
    ndarray; a real number is (x, +0.0), as in Python, so signed zeros,
    infinities and NaNs come out as there.  Where Python raises, this type
    gives IEEE values: NaN for a zero divisor (ZeroDivisionError), an
    infinite power or abs of finite input (OverflowError).  Python takes a
    polar formula for |n| > 100; this type squares on, which no BAE
    residual of the solver reaches (M >= 2 sectors stop at L = 55).
    numpy's floating-point warnings are the caller's to silence
    (np.errstate), as Python's complex gives none.  ndarrays and numpy
    scalars defer to this type's reflected operators
    (__array_ufunc__ = None)."""

    __slots__ = ("re", "im")
    __array_ufunc__ = None

    def __init__(self, re, im):
        self.re, self.im = re, im

    @classmethod
    def of(cls, z):
        """z, a complex ndarray (whose parts it views) or a number, as a
        PyComplexArray."""
        return cls(*_parts(z))

    @property
    def shape(self):
        return np.shape(self.re)

    def __getitem__(self, key):
        return PyComplexArray(self.re[key], self.im[key])

    def __setitem__(self, key, value):
        self.re[key], self.im[key] = _parts(value)

    def copy(self):
        return PyComplexArray(np.array(self.re), np.array(self.im))

    def to_complex(self):
        """The values as a complex128 ndarray (parts copied, not combined by
        arithmetic, so every bit stays)."""
        out = np.empty(self.shape, complex)
        out.real, out.imag = self.re, self.im
        return out

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def _operator(op, reflected=False):
        """The method self op other (other op self if reflected)."""
        def method(self, other):
            b = _parts(other)
            if b is None:
                return NotImplemented
            a = (self.re, self.im)
            return PyComplexArray(*(op(*b, *a) if reflected else op(*a, *b)))
        return method

    __add__, __radd__ = _operator(_sum), _operator(_sum, True)
    __sub__, __rsub__ = _operator(_diff), _operator(_diff, True)
    __mul__, __rmul__ = _operator(_prod), _operator(_prod, True)
    __truediv__, __rtruediv__ = _operator(_quot), _operator(_quot, True)
    del _operator

    def __neg__(self):
        return PyComplexArray(-self.re, -self.im)

    def __abs__(self):
        return np.hypot(self.re, self.im)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            return NotImplemented
        m, bit = abs(int(n)), 1
        r, p = (np.ones(self.shape), np.zeros(self.shape)), (self.re, self.im)
        while bit <= m:
            if m & bit:
                r = _prod(*r, *p)
            bit <<= 1
            if bit <= m:
                p = _prod(*p, *p)
        return PyComplexArray(*(_quot(1.0, 0.0, *r) if n <= 0 else r))


def _ratio(num, den):
    """num / den elementwise; NaN where den is exactly 0 (a singular pair).
    A PyComplexArray quotient is NaN there already."""
    if isinstance(num, PyComplexArray):
        return num / den
    return np.divide(num, den, out=np.full(num.shape, np.nan, num.dtype),
                     where=den != 0)


class _PairTable:
    """Lambda over all ordered pairs of an (n, M) momentum batch, and what is
    built from it: S(i, j), N(i, j), A(perm) and the singular masks.

    Z may be complex128 or a PyComplexArray (or an object array of Python
    complex numbers); the table then computes in that arithmetic.  amps and
    adjacent_n take a complex128 table."""

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
        num, den = abs(self.lam), abs(self.den)
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


def _exact_pair(params, z1, z2, what):
    """S(z1, z2) or N(z1, z2) (what) from the pair table of (z1, z2) in
    Python complex arithmetic (PyComplexArray), the arithmetic of the
    batched BAE residuals; ValueError where it is singular."""
    with np.errstate(all="ignore"):
        table = _PairTable(params, PyComplexArray.of(
            np.array([[complex(z1), complex(z2)]])))
        table.require(what, (0, 1))
        return complex(getattr(table, what)(0, 1)[0])


def s_matrix(params, z1, z2):
    """Two-body scattering amplitude S(z1, z2) = -Lambda(z1,z2)/Lambda(z2,z1)."""
    return _exact_pair(params, z1, z2, "S")


def n_factor(params, z1, z2):
    """Decay coefficient attaching to a doubly occupied site."""
    return _exact_pair(params, z1, z2, "N")


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
