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
inversion index; A(perm) reads one column.  s_matrix and n_factor are
one-row reads of that table (in Python complex arithmetic, as the Bethe
solver's BAE residuals); the Bethe solver and eigenvector assembly read it
too.  The table computes in complex128 or, given a PyComplexArray, in
CPython's complex arithmetic, bit for bit, on float64 arrays; Lambda, S, N
and the singular rule then have one implementation for both.

A Hamiltonian is CBA-solvable iff three symmetrized sums vanish identically in
the momenta; this module tests that at fixed generic points (SAMPLE_TABLES;
a rational function vanishing there vanishes identically, up to a
measure-zero failure set), so the verdict depends on the input alone.
Each sum's summands are one (n, M!) array: amps times the integrand over
the momenta in every permutation's order, with N at its adjacent pairs.
One pass gives each sum's residual and its largest |summand|; where every
summand is exactly 0 (N vanishes identically, as where t1 = t2 = 0) the
verdict is vacuous and says so.

A pair table splits into its geometry (_Geometry), the parts that read
the momenta alone: the pair gathers, z_i z_j, z_i + z_j, z_i - z_j, the
momenta in every permutation's order and the sums' sub-expressions of
them (a + b, 1/a + 1/b + 1/c, a b, ...), and the rest, which reads the
parameters.  The geometries of the solvability test's samples (_SAMPLES)
are module constants, built once, at import.  The three-body table is
built once per Hamiltonian and memoized on it (_three_body): the Bethe
solver's S = -1 test reads the table the solvability test reads.  A
table built on a batch rather than a geometry builds its own.  Each part
is the expression its reader would evaluate, in the same order (h.sp * b
* c stays (h.sp * b) * c), and rows never interact, so the solvability
test, which reads E21 and E12 from one table of their 40 stacked rows,
keeps every bit of one table per sum evaluating its momenta in place.

Batch size never changes a bit of Lambda, its gradient or the pair table.
For an array temporary of 256 KiB or more numpy computes x * (temporary),
x of the same shape, in place as (temporary) * x, and complex
multiplication, fused where the CPU has FMA, does not commute to the last
bit.  So in lambda_fn, lambda_grad, the pair table and the Bethe solver's
Newton kernel the right operand of such a product is always a named array.
The three-body sums (_e21_terms, _e12_terms) do not: from 2,731 rows,
where their (n, 6) summands reach 256 KiB, rows round by batch (2,437 and
1,515 of 3,000 gB rows differ from one-row tables).  No caller reaches
that size: the solvability test reads tables of 40 and 20 rows.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .hamiltonian import GateViolation, invariants

S_SING_TOL = 1e-13
CONSTRAINT_TOL = 1e-9    # default tolerance of the sums and of classify


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
    return _lambda(params, z1 * z2, z1 + z2, z2)


def _lambda(params, zz, zs, z2):
    """Lambda from the momentum-only parts zz = z1 z2, zs = z1 + z2 and z2:
    lambda_fn's kernel, and the pair table's on its geometry."""
    p, q, s1, s2, t1, t2, tp, sp, X11, Y = _coeffs(params)
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


class _Geometry:
    """The momentum-only parts of the pair table of an (n, M) batch Z: the
    gathers Zi, Zj of the ordered pairs and zz = Zi Zj, zs = Zi + Zj, and,
    built on first use, zd = Zi - Zj, the momenta in every permutation's
    order and the sub-expressions of the constraint sums that do not read
    the parameters.  Each is the expression its reader would otherwise
    evaluate, in the same order, so a table on this geometry has every bit
    of one that evaluates its momenta in place."""

    def __init__(self, Z):
        self.Z = Z
        self.M = Z.shape[1]
        self.I, self.J, self.col = ordered_pairs(self.M)
        self.swap = self.col[self.J, self.I]
        self.Zi, self.Zj = Z[:, self.I], Z[:, self.J]
        self.zz = self.Zi * self.Zj
        self.zs = self.Zi + self.Zj

    @functools.cached_property
    def zd(self):
        return self.Zi - self.Zj

    @functools.cached_property
    def perm_z(self):
        """The M (n, M!) arrays of the momenta in permutation_table order."""
        perms, _, _ = permutation_table(self.M)
        return tuple(self.Z[:, perms[:, k]] for k in range(self.M))

    @functools.cached_property
    def adjacent(self):
        """The M - 1 (M!,) columns of the ordered pairs (perm[k], perm[k+1])."""
        perms, _, _ = permutation_table(self.M)
        return tuple(self.col[perms[:, k], perms[:, k + 1]]
                     for k in range(self.M - 1))

    @functools.cached_property
    def e21(self):
        a, b, c = self.perm_z
        return a + b, 1 / a + 1 / b + 1 / c, a * b

    @functools.cached_property
    def e12(self):
        a, b, c = self.perm_z
        return 1 / a, a + b + c, 1 / b + 1 / c

    @functools.cached_property
    def e22(self):
        a, b, c, d = self.perm_z
        return c * d, a * b, a + b + c + d, 1 / a + 1 / b + 1 / c + 1 / d


class _PairTable:
    """Lambda over all ordered pairs of an (n, M) momentum batch, and what is
    built from it: S(i, j), N(i, j), A(perm) and the singular masks.

    Z may be complex128 or a PyComplexArray (or an object array of Python
    complex numbers); the table then computes in that arithmetic.  amps and
    adjacent_n take a complex128 table.  Z may also be a _Geometry, whose
    momentum-only parts the table then reads; a batch gets one of its own."""

    def __init__(self, params, Z):
        self.geom = Z if isinstance(Z, _Geometry) else _Geometry(Z)
        self.I, self.J, self.col = self.geom.I, self.geom.J, self.geom.col
        self.Z = self.geom.Z
        # N's couplings, not params: a table memoized on params (_three_body)
        # holds no reference cycle, so it goes when params goes
        self.n_couplings = params.p, params.q, params.t2, params.t1
        self.lam = _lambda(params, self.geom.zz, self.geom.zs, self.geom.Zj)
        # den[:, k] = Lambda(z_j, z_i) for pair k = (i, j): the denominator
        # of S(i, j) and N(i, j)
        self.den = self.lam[:, self.geom.swap]

    def singular_pairs(self):
        """(n, M(M-1)) mask of the pairs (i, j) where S(i, j) and N(i, j) are
        singular: |Lambda(z_j, z_i)| <= S_SING_TOL max(|Lambda(z_i, z_j)|,
        |Lambda(z_j, z_i)|, 1e-300).  An overflowed (infinite) Lambda is
        not singular: its S and N are not finite and fail where they are
        used, whereas is_cba_solvable replaces a singular sample row."""
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
        (p, q, t2, t1), g = self.n_couplings, self.geom
        pq, t21 = p + q * g.zz, t2 + t1 * g.zz
        return _ratio(g.zd * pq * t21, 2 * self.den)

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

    def adjacent_n(self, k):
        """(n, M!) N(perm[k], perm[k+1]) of every permutation, in
        permutation_table order."""
        return self._n[:, self.geom.adjacent[k]]


def _require_lambda(*tables):
    """Raise GateViolation where Lambda is exactly 0 at every row of the
    pair tables: S and N are then undefined, as check_gates would say."""
    if not any(table.lam.any() for table in tables):
        raise GateViolation("Lambda ≡ 0: S and N are undefined, "
                            "outside the classification hypotheses")


def _require_rows(kept, needed):
    """Raise GateViolation where fewer than needed sample rows are kept
    nonsingular, as where Lambda underflows to a subnormal (below the
    singular rule's 1e-300 floor): S and N are undefined."""
    if kept < needed:
        raise GateViolation("S is singular at every momentum sample, as where "
                            "Lambda underflows: S and N are undefined, "
                            "outside the classification hypotheses")


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
    a, b, c = table.geom.perm_z
    ab_sum, recip, ab = table.geom.e21
    w = c * (table.adjacent_n(0) * (inv.X21 - h.q * ab_sum - h.p * recip
                                    + h.tp / ab)
             + table.adjacent_n(1) * h.s3 * b + h.t2 / a)
    return table.amps * w


def _e12_terms(params, table):
    h, inv = params, invariants(params)
    _, b, c = table.geom.perm_z
    inv_a, abc_sum, recip = table.geom.e12
    w = (table.adjacent_n(1) * (inv.X12 - h.q * abc_sum - h.p * recip
                                + h.sp * b * c)
         + table.adjacent_n(0) * h.t3 / b + h.t1 * c)
    w = inv_a * w
    return table.amps * w


def _e22_terms(params, table):
    h, inv = params, invariants(params)
    a, b, c, d = table.geom.perm_z
    cd, ab, abcd_sum, recip = table.geom.e22
    n01, n23 = table.adjacent_n(0), table.adjacent_n(2)
    w = (n01 * n23
         * (inv.X22 + inv.Y + h.tp / ab - h.q * abcd_sum + h.sp * c * d
            - h.p * recip)
         + n23 * h.t2 / a + n01 * h.t1 * d)
    w = cd * w
    return table.amps * w


_CONSTRAINTS = {"E21": (3, _e21_terms), "E12": (3, _e12_terms), "E22": (4, _e22_terms)}


def _sums(params, table, which):
    """One constraint sum at every row of a pair table: (relative residual,
    largest |summand|) per row.  The summands are added in permutation
    order; the residual is |sum| over the largest |summand| (0 where every
    summand is 0)."""
    terms = _CONSTRAINTS[which][1](params, table)
    total = np.add.accumulate(terms, axis=1)[:, -1]
    scale = np.abs(terms).max(axis=1)
    return np.abs(total) / np.where(scale > 0, scale, 1.0), scale


@dataclass(frozen=True)
class SolvabilityVerdict:
    """The identity test's answer.  vacuous: every summand of all three sums
    is exactly 0 at every sample row used (N vanishes identically, as where
    t1 = t2 = 0), so the sums vanish without testing the couplings;
    solvable does not look at it."""
    solvable: bool
    max_residual: float
    samples: int
    failing_constraint: str | None = None
    tol: float = CONSTRAINT_TOL
    vacuous: bool = False


def _sample_tables():
    """The fixed momenta of the identity test, read-only: 20 rows of 3 for
    E21 and E12, 20 rows of 4 for E22, and a spare block of 20 rows of 4
    whose first M columns stand in for singular rows.  They are points of
    the annulus 0.5 <= |z| <= 2, radius then phase uniform, in the order
    numpy's default_rng(0) draws them; no argument or option moves them."""
    rng = np.random.default_rng(0)
    tables = {}
    for name, M in (("E21", 3), ("E12", 3), ("E22", 4), ("spare", 4)):
        r = rng.uniform(0.5, 2.0, (20, M))
        tables[name] = r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, (20, M)))
        tables[name].setflags(write=False)
    return tables


def _samples(tables):
    """The geometries is_cba_solvable reads, of sample tables keyed and
    shaped as SAMPLE_TABLES: the E21 rows over the E12 rows (one table for
    both three-body sums), the E22 rows, and the spare block's first 3 and
    4 columns, keyed by M."""
    return (_Geometry(np.concatenate([tables["E21"], tables["E12"]])),
            _Geometry(tables["E22"]),
            {M: _Geometry(tables["spare"][:, :M]) for M in (3, 4)})


SAMPLE_TABLES = _sample_tables()
_SAMPLES = _samples(SAMPLE_TABLES)


def _three_body(params):
    """The pair table of params on the three-body samples (_SAMPLES[0]),
    built once per Hamiltonian and samples and memoized on the instance, as
    invariants is: is_cba_solvable and bethe._is_trivial_s read the same
    one."""
    table = params.__dict__.get("_three_body")
    if table is None or table.geom is not _SAMPLES[0]:
        table = _PairTable(params, _SAMPLES[0])
        object.__setattr__(params, "_three_body", table)
    return table


def is_cba_solvable(params, tol=CONSTRAINT_TOL):
    """Identity test of the three solvability constraint sums at the fixed
    momenta of SAMPLE_TABLES (read at import, as _SAMPLES), the first
    nonsingular rows of the spare block standing in where Lambda
    degenerates.  The residual is the sum
    magnitude relative to the largest individual summand, so the test is
    scale-invariant in the parameters.

    E21 and E12 are read from one pair table of their stacked rows, E22
    from its own; rows never interact, so each row has the bits of a table
    of its own sum.  Each three-body sum is evaluated over all 40 rows and
    read at its own 20: at this size a numpy pass costs its call, not its
    rows.  Where Lambda is exactly 0 at every row of both tables, or where
    no nonsingular row is left to stand in (_require_rows), S and N are
    undefined: that raises GateViolation, as check_gates does."""
    params.check_gates()
    three_body, four_body, spares = _SAMPLES
    n = len(three_body.Z) // 2
    residuals, vacuous = {}, True
    with np.errstate(all="ignore"):   # overflow fails the test below
        three = _three_body(params)
        four = _PairTable(params, four_body)
        _require_lambda(three, four)
        bad3, bad4 = three.singular(), four.singular()
        for which, table, bad, rows in (("E21", three, bad3[:n], slice(None, n)),
                                        ("E12", three, bad3[n:], slice(n, None)),
                                        ("E22", four, bad4, slice(None))):
            rel, scale = (x[rows] for x in _sums(params, table, which))
            if bad.any():
                spare = _PairTable(params, spares[table.geom.M])
                ok = ~spare.singular()
                rel, scale = (np.concatenate([x[~bad], y[ok]])[:len(bad)]
                              for x, y in zip((rel, scale),
                                              _sums(params, spare, which)))
            _require_rows(rel.size, len(bad))
            vacuous = vacuous and not scale.any()
            m = float(np.max(rel))
            # a NaN residual must fail, not compare false
            residuals[which] = m if np.isfinite(m) else np.inf
    worst = max(residuals.values())
    failing = next((w for w, m in residuals.items() if m > tol), None)
    return SolvabilityVerdict(solvable=worst <= tol, max_residual=worst,
                              samples=len(bad), failing_constraint=failing,
                              tol=tol, vacuous=vacuous)
