"""Scattering data and the randomized solvability test."""

import itertools
import math
import operator
from pathlib import Path

import numpy as np
import pytest

import bethe_forge as bf
from bethe_forge import bethe, constraints
from bethe_forge.constraints import PyComplexArray, _Geometry, _PairTable

from conftest import cdraw, draw_free, family_instance, random_params
from constraint_reference import (constraint_e12, constraint_e21,
                                  constraint_e22)
import constraint_reference as reference


class TestLambda:
    def test_zero_params(self, rng):
        z1, z2 = cdraw(rng), cdraw(rng)
        assert bf.lambda_fn(bf.HamiltonianParams(), z1, z2) == 0

    def test_gzf_proportional_to_closed_form(self, rng):
        """For the gZF family Lambda factorizes; S built from it must match
        the family's printed two-parameter form."""
        h = bf.construct("gZF", draw_free("gZF", rng))
        fam = bf.FAMILIES["gZF"]
        red = fam.reduced({k: getattr(h, k) for k in ("p", "tp", "t2", "s1")},
                          fam.branches[0])
        for _ in range(20):
            z1, z2 = cdraw(rng), cdraw(rng)
            s = bf.s_matrix(h, z1, z2)
            s_fam = fam.s_closed(red, z1, z2)
            assert abs(s - s_fam) < 1e-10 * abs(s_fam)

    def test_equal_momenta_smoke(self, rng):
        h = random_params(rng)
        z = cdraw(rng)
        val = bf.lambda_fn(h, z, z)
        assert np.isfinite(val)

    def test_gradient(self, rng):
        from bethe_forge.constraints import lambda_grad
        h = random_params(rng)
        z1, z2 = cdraw(rng), cdraw(rng)
        d1, d2 = lambda_grad(h, z1, z2)
        eps = 1e-7
        fd1 = (bf.lambda_fn(h, z1 + eps, z2) - bf.lambda_fn(h, z1 - eps, z2)) / (2 * eps)
        fd2 = (bf.lambda_fn(h, z1, z2 + eps) - bf.lambda_fn(h, z1, z2 - eps)) / (2 * eps)
        assert abs(d1 - fd1) < 1e-6 * max(1, abs(fd1))
        assert abs(d2 - fd2) < 1e-6 * max(1, abs(fd2))


class TestBatchSize:
    """Batch size never changes a bit.  numpy computes x * (temporary) of
    256 KiB or more in place as (temporary) * x, and fused complex
    multiplication does not commute to the last bit; 3,000 rows of six
    momentum pairs, or of three momenta, are past that size."""

    def _chunked(self, f, *args):
        parts = [f(*(a[i:i + 100] for a in args))
                 for i in range(0, len(args[0]), 100)]
        if isinstance(parts[0], tuple):
            return tuple(np.concatenate(p) for p in zip(*parts))
        return np.concatenate(parts)

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_lambda_tables_equal_their_chunks(self, tag, rng):
        """lambda_fn and lambda_grad on 3,000 random rows equal the same
        rows in chunks of 100, bit for bit."""
        h, _ = family_instance(tag, rng)
        Z = cdraw(rng, 36000, rmax=2.0).reshape(3000, 12)
        z1, z2 = Z[:, :6], Z[:, 6:]
        got = bf.lambda_fn(h, z1, z2)
        want = self._chunked(lambda a, b: bf.lambda_fn(h, a, b), z1, z2)
        assert got.tobytes() == want.tobytes()
        got = constraints.lambda_grad(h, z1, z2)
        want = self._chunked(lambda a, b: constraints.lambda_grad(h, a, b),
                             z1, z2)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_pair_table_equals_its_chunks(self, rng):
        """S, N and the plane-wave amplitudes of 3,000 root sets equal those
        of the same root sets 100 at a time, bit for bit."""
        h, _ = family_instance("gIK", rng)
        Z = cdraw(rng, 9000, rmax=2.0).reshape(3000, 3)
        table = _PairTable(h, Z)
        for attr in ("_s", "_n", "amps"):
            want = self._chunked(lambda a: getattr(_PairTable(h, a), attr), Z)
            assert getattr(table, attr).tobytes() == want.tobytes()


def _edge_values(rng, n):
    """n complex numbers whose parts mix |x| from 1e-150 to 1e150 (the two
    parts up to 1e8 apart, so both quotient branches are taken), small
    integers (exact cancellations, signed zero results, |re| = |im| ties)
    and the edge values +-0, +-inf, NaN, subnormals and 1.5e308."""
    mag = 10.0 ** rng.uniform(-150, 150, n)
    re = mag * rng.normal(size=n)
    im = mag * rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n)
    edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     1e-310, -2.5e-320, 1.5e308, -1.5e308])
    small = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0])
    for part in (re, im):
        k = rng.random(n) < 0.1
        part[k] = rng.choice(edge, k.sum())
        k = rng.random(n) < 0.15
        part[k] = rng.choice(small, k.sum())
    return _complex(re, im)


def _complex(re, im):
    """The complex128 array of these parts, every bit kept."""
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


def _python(op, *columns):
    """op over Python numbers element by element: the complex128 array of
    its values (0 where it raised) and the mask of the elements where
    Python raised ZeroDivisionError or OverflowError."""
    out = np.zeros(len(columns[0]), complex)
    raised = np.zeros(len(columns[0]), bool)
    for k, args in enumerate(zip(*columns)):
        try:
            out[k] = op(*args)
        except (ZeroDivisionError, OverflowError):
            raised[k] = True
    return out, raised


def _bits(z):
    """The bit patterns of the parts of a complex array, every NaN as one
    pattern: which operand's NaN an operation on two NaNs passes on, and
    so its sign bit, follows the order of the operands in numpy's loops,
    which no value here depends on."""
    parts = np.stack([np.real(z), np.imag(z)]).astype(float)
    return np.where(np.isnan(parts), np.nan, parts).view(np.uint64)


def _scalar(x):
    """x as the object-dtype path sees it: a numpy scalar as its item."""
    return x.item() if isinstance(x, np.generic) else x


class TestPyComplexArray:
    """PyComplexArray against Python's complex arithmetic, bit for bit
    (signed zeros included, a NaN as a NaN), on 10^5 edge-heavy values:
    the arithmetic of the batched BAE residuals and energies."""

    N = 100_000

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(20131)
        return _edge_values(rng, self.N), _edge_values(rng, self.N)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_binary(self, pairs, op):
        """a op b for array operands; where Python raises (b = 0 in a
        quotient) the value is NaN."""
        a, b = pairs
        want, raised = _python(op, a.tolist(), b.tolist())
        with np.errstate(all="ignore"):
            got = op(PyComplexArray.of(a), PyComplexArray.of(b)).to_complex()
        assert np.array_equal(_bits(got)[:, ~raised], _bits(want)[:, ~raised])
        assert raised.sum() == (op is operator.truediv) * np.sum(b == 0)
        assert np.isnan(got[raised].real).all()
        assert np.isnan(got[raised].imag).all()

    @pytest.mark.parametrize("other", [
        2, 0, -1, 0.5, -0.0, np.inf, np.nan, np.float64(-3.0),
        1.5 - 2j, complex(0.0, -0.0), complex(np.inf, 1.0),
        np.complex128(0.3 + 1e-300j), "complex array"])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_mixed_operands(self, pairs, op, other):
        """A real or complex number or a complex ndarray on either side, as
        the object-dtype path meets Python ints, floats and complex
        numbers: a real one enters Python's complex arithmetic as
        (x, +0.0)."""
        a, b = (x[:20_000] for x in pairs)
        if other == "complex array":
            other, py = b, b.tolist()
        else:
            py = [_scalar(other)] * len(a)
        for args, pyargs in (((PyComplexArray.of(a), other), (a.tolist(), py)),
                             ((other, PyComplexArray.of(a)), (py, a.tolist()))):
            want, raised = _python(op, *pyargs)
            with np.errstate(all="ignore"):
                got = op(*args).to_complex()
            assert np.array_equal(_bits(got)[:, ~raised],
                                  _bits(want)[:, ~raised])
            assert np.isnan(got[raised]).all()

    def test_neg_and_abs(self, pairs):
        """-a part by part; abs(a) is hypot's float64 value, infinite where
        Python's raises OverflowError."""
        a, _ = pairs
        with np.errstate(all="ignore"):
            neg = (-PyComplexArray.of(a)).to_complex()
            got = abs(PyComplexArray.of(a))
        assert np.array_equal(_bits(neg), _bits(_python(operator.neg,
                                                        a.tolist())[0]))
        want, raised = _python(abs, a.tolist())
        assert got.dtype == float
        assert np.array_equal(_bits(got[~raised]), _bits(want[~raised].real))
        assert raised.any() and np.isposinf(got[raised]).all()

    def test_integer_powers(self, pairs):
        """a ** n for n = 1..100 on 2,000 values each (half of them within
        10^+-3 of the unit circle, so that most powers stay finite), and
        n = 0, -1, -2, -7: c_powi's repeated squaring and reciprocal.
        Where Python raises OverflowError a part is infinite; where it
        raises ZeroDivisionError (0 to a negative power) both are NaN."""
        a, _ = pairs
        rng = np.random.default_rng(7)
        near = 10.0 ** rng.uniform(-3, 3, 1000) * np.exp(
            2j * np.pi * rng.random(1000))
        base = np.concatenate([a[:1000], near])
        finite = 0
        for n in list(range(-2, 101)) + [-7]:
            want, raised = _python(lambda z: z ** n, base.tolist())
            with np.errstate(all="ignore"):
                got = (PyComplexArray.of(base) ** n).to_complex()
            assert np.array_equal(_bits(got)[:, ~raised],
                                  _bits(want)[:, ~raised]), n
            assert np.all(np.isinf(got[raised].real)
                          | np.isinf(got[raised].imag)
                          | (np.isnan(got[raised].real)
                             & np.isnan(got[raised].imag))), n
            finite += np.count_nonzero(~raised)
        assert finite >= 100_000

    def test_rows_read_and_write(self):
        """Indexing reads and writes both parts; copy and to_complex keep
        every bit; complex() reads one element."""
        z = _complex(np.array([[1.0, -0.0], [np.nan, 2.5]]),
                     np.array([[-0.0, np.inf], [1.0, -3.0]]))
        x = PyComplexArray.of(z).copy()
        assert x.shape == (2, 2)
        assert np.array_equal(_bits(x[:, ::-1].to_complex()),
                              _bits(z[:, ::-1]))
        x[:, 0] = np.ones(2, complex)
        assert np.array_equal(_bits(x.to_complex()[:, 1]), _bits(z[:, 1]))
        assert x.to_complex()[:, 0].tolist() == [1, 1]
        assert np.array_equal(_bits(z), _bits(PyComplexArray.of(z).to_complex()))
        assert complex(x[1, 1]) == 2.5 - 3j


class TestSMatrix:
    def test_equal_momenta(self, rng):
        h = random_params(rng)
        z = cdraw(rng)
        assert abs(bf.s_matrix(h, z, z) + 1) < 1e-12

    def test_unitarity(self, rng):
        for _ in range(100):
            h = random_params(rng)
            z1, z2 = cdraw(rng), cdraw(rng)
            assert abs(bf.s_matrix(h, z1, z2) * bf.s_matrix(h, z2, z1) - 1) < 1e-10

    def test_trivial_for_17v1a(self, rng):
        h, _ = family_instance("17V1a", rng)
        for _ in range(10):
            z1, z2 = cdraw(rng), cdraw(rng)
            assert abs(bf.s_matrix(h, z1, z2) + 1) < 1e-12

    def test_singular_s_raises(self, rng):
        # 14V1 has S = -(z2 - tau_p)/(z1 - tau_p): pole at z1 = tau_p
        free = draw_free("14V1", rng)
        h = bf.construct("14V1", free, {"eps": 1})
        taup = free["tp"] / free["p"]
        with pytest.raises(ValueError, match="singular S"):
            bf.s_matrix(h, taup, cdraw(rng))


class TestNFactor:
    def test_antisymmetric_zero(self, rng):
        h = random_params(rng)
        z = cdraw(rng)
        scale = abs(bf.n_factor(h, z, 1.31 * z))
        assert abs(bf.n_factor(h, z, z)) <= 1e-12 * max(scale, 1)

    def test_gzf_closed_form(self, rng):
        free = draw_free("gZF", rng)
        h = bf.construct("gZF", free)
        fam = bf.FAMILIES["gZF"]
        red = fam.reduced(free, fam.branches[0])
        for _ in range(20):
            z1, z2 = cdraw(rng), cdraw(rng)
            expect = fam.n_closed(red, z1, z2)
            assert abs(bf.n_factor(h, z1, z2) - expect) < 1e-10 * max(1, abs(expect))

    def test_14v2_closed_form(self, rng):
        free = draw_free("14V2", rng)
        h = bf.construct("14V2", free)
        taup = free["tp"] / free["p"]
        tau2 = free["t2"] / free["p"]
        for _ in range(20):
            z1, z2 = cdraw(rng), cdraw(rng)
            expect = (tau2 * (z1 - z2) * (z1 * z2 + taup**2)
                      / (2 * taup * (z1 - taup) * (z2 - taup)))
            assert abs(bf.n_factor(h, z1, z2) - expect) < 1e-10 * max(1, abs(expect))


class TestAmplitude:
    def test_identity(self, rng):
        h = random_params(rng)
        z = cdraw(rng, 3)
        assert bf.amplitude(h, z, (0, 1, 2)) == 1

    def test_transposition(self, rng):
        h = random_params(rng)
        z = cdraw(rng, 2)
        expect = bf.s_matrix(h, z[0], z[1])
        assert abs(bf.amplitude(h, z, (1, 0)) - expect) < 1e-12


class TestPairTable:
    @pytest.mark.parametrize("tag", (None,) + bf.FAMILY_ORDER)
    def test_batch_rows_equal_one_row_reads(self, tag, rng):
        """S, N and A read from an (n, M) batch equal s_matrix, n_factor and
        amplitude (one-row reads) row by row, M = 2..4; so does the
        singular mask."""
        h = random_params(rng) if tag is None else family_instance(tag, rng)[0]

        def close(a, b):
            assert abs(a - b) <= 1e-13 * max(1, abs(b))

        for M in (2, 3, 4):
            Z = np.array([cdraw(rng, M) for _ in range(5)])
            table = _PairTable(h, Z)
            for r, z in enumerate(Z):
                row = _PairTable(h, z[None])
                assert table.singular()[r] == row.singular()[0]
                for i, j in itertools.permutations(range(M), 2):
                    close(table.S(i, j)[r], bf.s_matrix(h, z[i], z[j]))
                    close(table.N(i, j)[r], bf.n_factor(h, z[i], z[j]))
                for perm in itertools.permutations(range(M)):
                    close(table.A(perm)[r], bf.amplitude(h, z, perm))


class TestConstraintSums:
    def test_gzf_residuals(self, rng):
        h = bf.construct("gZF", draw_free("gZF", rng))
        for _ in range(10):
            z3, z4 = cdraw(rng, 3), cdraw(rng, 4)
            for fn, z in ((constraint_e21, z3), (constraint_e12, z3),
                          (constraint_e22, z4)):
                assert abs(fn(h, z)) < 1e-9

    def test_gik_e12_and_perturbation(self, rng):
        h, _ = family_instance("gIK", rng)
        z3 = cdraw(rng, 3)
        assert abs(constraint_e12(h, z3)) < 1e-9
        hp = h.replace(t3=h.t3 + 0.1)
        assert abs(constraint_e12(hp, z3)) > 1e-3

    def test_gb_e22_and_perturbation(self, rng):
        h, _ = family_instance("gB", rng)
        z4 = cdraw(rng, 4)
        assert abs(constraint_e22(h, z4)) < 1e-9
        hp = h.replace(tp=h.tp + 0.1)
        assert abs(constraint_e22(hp, z4)) > 1e-6

    def test_perturbed_gzf_fails(self, rng):
        h = bf.construct("gZF", draw_free("gZF", rng))
        hp = h.replace(s3=h.s3 + 0.1)
        assert abs(constraint_e21(hp, cdraw(rng, 3))) > 1e-3

    def test_smoke_t2_only(self, rng):
        # Lambda vanishes identically on this ray: must evaluate, not raise
        h = bf.HamiltonianParams(t2=1)
        constraint_e21(h, cdraw(rng, 3))

    def test_symmetrized_vanishing_for_families(self, rng):
        # on solvable points the sums vanish for every input ordering
        for _ in range(20):
            h, _ = family_instance("SpR", rng)
            z3, z4 = cdraw(rng, 3), cdraw(rng, 4)
            for fn, z in ((constraint_e21, z3), (constraint_e12, z3),
                          (constraint_e22, z4)):
                perm = list(z)
                rng.shuffle(perm)
                assert abs(fn(h, z)) < 1e-9 and abs(fn(h, perm)) < 1e-9

    def test_permutation_cocycle(self, rng):
        # relabeling the momenta multiplies the symmetrized sum by the
        # inverse scattering amplitude of the relabeling permutation
        for _ in range(25):
            h = random_params(rng)
            z3, z4 = cdraw(rng, 3), cdraw(rng, 4)
            for fn, z in ((constraint_e21, z3), (constraint_e12, z3),
                          (constraint_e22, z4)):
                base = fn(h, z)
                pi = tuple(rng.permutation(len(z)))
                permuted = [z[i] for i in pi]
                a_pi = bf.amplitude(h, z, pi)
                assert abs(fn(h, permuted) * a_pi - base) < 1e-9 * max(1, abs(base))


def _reference_terms(which, params, table):
    """The per-permutation loops of one constraint sum: (n, M!) summands in
    itertools.permutations order, each plane-wave coefficient the product
    of S over the permutation's inversions."""
    h, inv, Z = params, bf.invariants(params), table.Z
    M = 4 if which == "E22" else 3
    terms = []
    for perm in itertools.permutations(range(M)):
        pos = {v: i for i, v in enumerate(perm)}
        A = np.ones(len(Z), complex)
        for x in range(M):
            for y in range(x + 1, M):
                if pos[x] > pos[y]:
                    A = A * table.S(x, y)
        zs = [Z[:, i] for i in perm]
        if which == "E21":
            a, b, c = zs
            i, j, k = perm
            w = c * (table.N(i, j) * (inv.X21 - h.q * (a + b)
                                      - h.p * (1 / a + 1 / b + 1 / c)
                                      + h.tp / (a * b))
                     + table.N(j, k) * h.s3 * b + h.t2 / a)
        elif which == "E12":
            a, b, c = zs
            i, j, k = perm
            w = (1 / a) * (table.N(j, k) * (inv.X12 - h.q * (a + b + c)
                                            - h.p * (1 / b + 1 / c)
                                            + h.sp * b * c)
                           + table.N(i, j) * h.t3 / b + h.t1 * c)
        else:
            a, b, c, d = zs
            i, j, k, l = perm
            w = c * d * (table.N(i, j) * table.N(k, l)
                         * (inv.X22 + inv.Y + h.tp / (a * b)
                            - h.q * (a + b + c + d) + h.sp * c * d
                            - h.p * (1 / a + 1 / b + 1 / c + 1 / d))
                         + table.N(k, l) * h.t2 / a + table.N(i, j) * h.t1 * d)
        terms.append(A * w)
    return np.array(terms).T


class TestBatchedTerms:
    @pytest.mark.parametrize("tag", (None,) + bf.FAMILY_ORDER)
    def test_match_per_permutation_loops(self, tag, rng):
        """The (n, M!) summands of each constraint, their sum and the
        relative residual match the per-permutation loops to 1e-13 of the
        largest summand, for every family and for generic inputs."""
        for _ in range(5):
            h = (random_params(rng) if tag is None
                 else family_instance(tag, rng)[0])
            for which, (M, term_fn) in constraints._CONSTRAINTS.items():
                Z = np.array([cdraw(rng, M) for _ in range(8)])
                table = _PairTable(h, Z)
                got, ref = term_fn(h, table), _reference_terms(which, h, table)
                assert got.shape == ref.shape
                scale = np.abs(ref).max(axis=1)
                assert np.all(np.abs(got - ref) <= 1e-13 * scale[:, None])
                assert np.all(np.abs(got.sum(axis=1) - ref.sum(axis=1))
                              <= 1e-13 * scale)
                rel = constraints._sums(h, _PairTable(h, Z), which)[0]
                ref_rel = np.abs(ref.sum(axis=1)) / scale
                assert np.all(np.abs(rel - ref_rel) <= 1e-13)


class TestReferenceBatch:
    @pytest.mark.parametrize("which, n", [("E21", 3000), ("E12", 3000),
                                          ("E22", 1000)])
    def test_batch_rows_equal_one_row_tables(self, which, n):
        """The reference's summands and residuals over a batch whose (n, M!)
        summands pass 256 KiB, where numpy computes x * (temporary) in
        place as (temporary) * x, equal those of a table of each row alone,
        bit for bit, on the gB preset."""
        from bethe_forge.cli import load_input
        h = load_input(Path(constraints.__file__).parent / "presets"
                       / "gB.json")
        rng = np.random.default_rng(3)
        M, term_fn = reference.TERMS[which]
        Z = np.array([cdraw(rng, M, 0.5, 2.0) for _ in range(n)])
        assert n * math.factorial(M) * 16 >= 1 << 18
        with np.errstate(all="ignore"):
            got = term_fn(h, _PairTable(h, Z))
            want = np.concatenate([term_fn(h, _PairTable(h, z[None]))
                                   for z in Z])
            rel = reference.constraint_batch(h, Z, which)[0]
            one = [reference.constraint_batch(h, z[None], which)[0]
                   for z in Z]
        assert got.tobytes() == want.tobytes()
        assert rel.tobytes() == np.concatenate(one).tobytes()


class TestSolvability:
    def test_families_pass(self, rng):
        for tag in bf.FAMILY_ORDER:
            h, _ = family_instance(tag, rng)
            verdict = bf.is_cba_solvable(h)
            assert verdict.solvable, (tag, verdict.max_residual)
            assert verdict.max_residual <= 1e-9

    def test_random_draw_fails(self, rng):
        verdict = bf.is_cba_solvable(random_params(rng))
        assert not verdict.solvable
        assert verdict.failing_constraint in ("E21", "E12", "E22")

    def test_small_perturbation_detected(self, rng):
        h = bf.construct("gZF", draw_free("gZF", rng))
        hp = h.replace(t3=h.t3 + 1e-3)
        verdict = bf.is_cba_solvable(hp)
        assert not verdict.solvable

    def test_rank2_gate(self):
        h = bf.HamiltonianParams(p=1, q=1)
        with pytest.raises(bf.GateViolation, match="rank-2"):
            bf.is_cba_solvable(h)

    def test_pseudo_excitation_gate(self):
        h = bf.HamiltonianParams(t1=1, t2=1)
        with pytest.raises(bf.GateViolation, match="pseudo-excitation"):
            bf.is_cba_solvable(h)

    @pytest.mark.parametrize("slot", ["q", "v"])
    def test_nan_input_not_solvable(self, slot, rng):
        """A NaN residual fails its constraint instead of comparing false."""
        h, _ = family_instance("gZF", rng)
        if slot == "q":
            bad = h.replace(q=float("nan"))
        else:
            v = np.array(h.v)
            v[1, 1] = np.nan
            bad = h.replace(v=v)
        verdict = bf.is_cba_solvable(bad)
        assert not verdict.solvable
        assert verdict.max_residual == float("inf")
        assert verdict.failing_constraint in ("E21", "E12", "E22")

    def test_sample_tables_fixed(self):
        """The samples are read-only tables of fixed shapes on the annulus
        0.5 <= |z| <= 2; the first entry of each is pinned, so a change in
        how they are drawn shows here and not as a moved verdict."""
        tables = constraints.SAMPLE_TABLES
        assert {k: t.shape for k, t in tables.items()} == {
            "E21": (20, 3), "E12": (20, 3), "E22": (20, 4), "spare": (20, 4)}
        for t in tables.values():
            assert not t.flags.writeable
            with pytest.raises(ValueError):
                t[0, 0] = 1.0
            assert np.all((abs(t) >= 0.5) & (abs(t) <= 2.0))
        assert [tables[k][0, 0] for k in ("E21", "E12", "E22", "spare")] == [
            -1.201459865067195 + 0.8214664653073405j,
            0.6513644808802428 - 0.7803366867179948j,
            -0.7118527846056448 - 0.30493308308615813j,
            -0.5157802718795096 + 0.6157797602243086j]

    def test_singular_rows_replaced_from_spare(self, monkeypatch, rng):
        """A row where S is singular gives way to the first nonsingular
        spare row; with none left S and N are undefined at every sample,
        and the test raises the hypothesis gate's GateViolation.  For an
        input that fails E21 alone, the spare row that stands in is made
        its worst row, so the verdict reads that row's residual."""
        h, _ = family_instance("gZF", rng)
        table = _singular_row(h, constraints.SAMPLE_TABLES["E21"])
        assert _PairTable(h, table).singular().tolist() == [True] + [False] * 19
        failing = _failing_only(h, "E21")
        spare, worst = _worst_spare(failing, "E21", rng)
        _patch_samples(monkeypatch, E21=table)
        verdict = bf.is_cba_solvable(h)
        assert verdict.solvable and verdict.samples == 20
        rows = _PairTable(h, np.concatenate(
            [table[1:], constraints.SAMPLE_TABLES["spare"][:1, :3]]))
        rel, bad = constraints._sums(h, rows, "E21")[0], rows.singular()
        assert not bad.any() and verdict.max_residual >= rel.max()
        _patch_samples(monkeypatch, spare=spare)
        verdict = bf.is_cba_solvable(failing)
        assert verdict.failing_constraint == "E21"
        assert verdict.max_residual.hex() == worst.hex()
        _patch_samples(monkeypatch, E21=np.tile(table[0], (20, 1)),
                       spare=np.tile(np.append(table[0], 1.0), (20, 1)))
        with pytest.raises(bf.GateViolation, match="singular at every"):
            bf.is_cba_solvable(h)

    @pytest.mark.parametrize("couplings", [dict(s1=1, t3=1),
                                           dict(s2=0.5, s3=2)],
                             ids=["s1-t3", "s2-s3"])
    def test_vanishing_lambda_is_a_gate(self, couplings):
        """Both gates pass, but Lambda is exactly 0 at every sample row and
        every spare row, so no row can stand in: the test raises
        GateViolation naming Lambda ≡ 0, not the singular samples of
        tables patched to one singular point."""
        h = bf.HamiltonianParams(**couplings)
        h.check_gates()
        three, four, spares = constraints._SAMPLES
        for geom in (three, four, *spares.values()):
            assert not _PairTable(h, geom).lam.any()
        with pytest.raises(bf.GateViolation, match="Lambda ≡ 0"):
            bf.is_cba_solvable(h)

    def test_verdict_consistency(self, rng):
        h, _ = family_instance("17V2", rng)
        verdict = bf.is_cba_solvable(h, tol=1e-8)
        assert verdict.samples == 20 and verdict.tol == 1e-8
        assert verdict.solvable == (verdict.max_residual <= verdict.tol)


def _framed_member(tag, rng):
    """A member of family tag seen through a random P/C/T frame, gauge and
    telescoping term."""
    h, _ = family_instance(tag, rng)
    word = bf.hamiltonian.FRAME_WORDS[rng.integers(8)]
    h = bf.apply_frame(h, word)
    return bf.apply_telescopic(bf.apply_gauge(h, cdraw(rng, 3)), cdraw(rng, 3))


def _verdict_bits(verdict):
    """The package's verdict as the reference's tuple, the residual by its
    bits (float.hex tells -0.0 from 0.0)."""
    return (verdict.solvable, verdict.max_residual.hex(),
            verdict.failing_constraint, verdict.samples, verdict.vacuous)


def _reference_bits(params):
    solvable, worst, failing, samples, vacuous = reference.is_cba_solvable(
        params)
    return solvable, worst.hex(), failing, samples, vacuous


def _patch_samples(monkeypatch, **tables):
    """Patch entries of SAMPLE_TABLES and the geometry is_cba_solvable
    reads (_SAMPLES), rebuilt from them by the package's own builder, so
    that the package and the reference read the same samples."""
    for name, table in tables.items():
        monkeypatch.setitem(constraints.SAMPLE_TABLES, name, table)
    monkeypatch.setattr(constraints, "_SAMPLES",
                        constraints._samples(constraints.SAMPLE_TABLES))


# the diagonal coupling that enters one sum alone, through X21, X12 or X22
_ONE_SUM_COUPLING = {"E21": (2, 1), "E12": (1, 2), "E22": (2, 2)}


def _failing_only(h, which):
    """A solvable h with the coupling that enters which's sum alone moved
    by 1e-3: which fails, the other two sums stay at rounding level, and
    Lambda, S and N do not change."""
    v = np.array(h.v)
    v[_ONE_SUM_COUPLING[which]] += 1e-3
    return h.replace(v=v)


def _worst_spare(h, which, rng):
    """A copy of the spare block whose first row has a larger reference
    residual of which than every row of which's samples (taken before they
    are patched), and that residual: the worst of 1,000 rows drawn on the
    annulus, read off their batch, whose rows have the bits of tables of
    their own (TestReferenceBatch)."""
    M = reference.TERMS[which][0]
    floor = reference.constraint_batch(
        h, constraints.SAMPLE_TABLES[which], which)[0].max()
    rows = np.array([cdraw(rng, M, 0.5, 2.0) for _ in range(1000)])
    rel = reference.constraint_batch(h, rows, which)[0]
    row, worst = rows[np.argmax(rel)], rel.max()
    assert worst > floor
    spare = np.array(constraints.SAMPLE_TABLES["spare"])
    spare[0, :M] = row
    return spare, worst


def _singular_row(h, table):
    """A writable copy of table whose row 0 has S(z0, z1) singular: z1 a
    root of Lambda(z1, z0), degree 3 in z1, polished by Newton, that is no
    root of Lambda(z0, z1)."""
    table = np.array(table)
    z0, x = table[0, 0], np.exp(2j * np.pi * np.arange(6) / 6)
    roots = np.roots(np.polyfit(x, bf.lambda_fn(h, x, z0), 3))
    z1 = roots[np.argmax(abs(bf.lambda_fn(h, z0, roots)))]
    for _ in range(2):
        z1 -= bf.lambda_fn(h, z1, z0) / constraints.lambda_grad(h, z1, z0)[0]
    table[0, 1] = z1
    return table


class TestOnePass:
    """is_cba_solvable reads E21 and E12 from one pair table of their
    stacked rows and the momentum-only parts from geometry built once;
    its verdict has every bit of the reference's, which builds one table
    per sum on the fly and gathers and combines the momenta in place."""

    @pytest.mark.parametrize("tag", (None,) + bf.FAMILY_ORDER)
    def test_equals_one_table_per_sum(self, tag, rng):
        """Members in random frames, gauges and telescoping terms, and
        generic inputs."""
        for _ in range(10):
            h = (random_params(rng) if tag is None
                 else _framed_member(tag, rng))
            assert _verdict_bits(bf.is_cba_solvable(h)) == _reference_bits(h)

    @pytest.mark.parametrize("slot", ["p", "q", "t1", "t2", "s3", "tp", "v"])
    def test_nan_slots(self, slot, rng):
        h = _framed_member("gB", rng)
        if slot == "v":
            v = np.array(h.v)
            v[2, 1] = np.nan
            bad = h.replace(v=v)
        else:
            bad = h.replace(**{slot: complex(np.nan, 0.0)})
        verdict = bf.is_cba_solvable(bad)
        assert not verdict.solvable and not verdict.vacuous
        assert _verdict_bits(verdict) == _reference_bits(bad)

    @pytest.mark.parametrize("which", ["E21", "E12", "E22"])
    def test_singular_sample_row(self, which, monkeypatch, rng):
        """A singular row of any sum's samples gives way to the spare
        block as in the reference.  For an input that fails which alone,
        the spare row that stands in is made the worst row: the verdict
        reads its residual only if the patched samples are read."""
        member = family_instance("gZF", rng)[0]
        for h in (member, random_params(rng)):
            table = _singular_row(h, constraints.SAMPLE_TABLES[which])
            assert _PairTable(h, table).singular()[0]
            _patch_samples(monkeypatch, **{which: table})
            assert (_verdict_bits(bf.is_cba_solvable(h))
                    == _reference_bits(h))
            monkeypatch.undo()
        h = _failing_only(member, which)
        spare, worst = _worst_spare(h, which, rng)
        _patch_samples(monkeypatch, spare=spare, **{
            which: _singular_row(h, constraints.SAMPLE_TABLES[which])})
        verdict = bf.is_cba_solvable(h)
        assert verdict.failing_constraint == which
        assert verdict.max_residual.hex() == worst.hex()
        assert _verdict_bits(verdict) == _reference_bits(h)


class TestSharedTable:
    @pytest.mark.parametrize("tag", (None,) + bf.FAMILY_ORDER)
    def test_rows_equal_tables_of_their_own(self, tag, rng):
        """Lambda, S, N, amps and the singular mask of the 40-row E21/E12
        table equal those of a 20-row table of each, bit for bit."""
        h = random_params(rng) if tag is None else _framed_member(tag, rng)
        shared = _PairTable(h, constraints._SAMPLES[0])
        for rows, which in ((slice(None, 20), "E21"), (slice(20, None), "E12")):
            own = _PairTable(h, constraints.SAMPLE_TABLES[which])
            for attr in ("lam", "_s", "_n", "amps"):
                assert (getattr(shared, attr)[rows].tobytes()
                        == getattr(own, attr).tobytes()), (which, attr)
            assert np.array_equal(shared.singular()[rows], own.singular())

    def test_geometry_parts_equal_in_place(self):
        """Every part of the kept sample geometry equals the same
        expression evaluated on a writable copy, bit for bit."""
        def parts(geom):
            sums = geom.e21 + geom.e12 if geom.M == 3 else geom.e22
            return [x.tobytes() for x in (geom.Zi, geom.Zj, geom.zz, geom.zs,
                                          geom.zd, *geom.perm_z, *sums)]

        three, four, spares = constraints._SAMPLES
        assert spares[4].Z.shape == (20, 4)
        for geom in (three, four, *spares.values()):
            assert parts(geom) == parts(_Geometry(np.array(geom.Z)))

    @pytest.mark.parametrize("tag", (None,) + bf.FAMILY_ORDER)
    def test_fresh_geometry_reads_alike(self, tag, monkeypatch, rng):
        """The sample geometry built anew from a copy of SAMPLE_TABLES
        gives the verdict bits and the S = -1 answer of the kept one."""
        h = random_params(rng) if tag is None else _framed_member(tag, rng)
        kept = _verdict_bits(bf.is_cba_solvable(h)), bethe._is_trivial_s(h)
        _patch_samples(monkeypatch, **{
            name: np.array(table)
            for name, table in constraints.SAMPLE_TABLES.items()})
        assert constraints._SAMPLES[1].Z.flags.writeable
        assert (_verdict_bits(bf.is_cba_solvable(h)),
                bethe._is_trivial_s(h)) == kept


class TestVacuousVerdict:
    """Every summand of all three sums is exactly 0 where N vanishes
    identically: the 14V/17V members in frames with t1 = t2 = 0.  The
    verdict says so; solvable does not change."""

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_exactly_where_t1_and_t2_vanish(self, tag, rng):
        for word in bf.hamiltonian.FRAME_WORDS:
            h, _ = family_instance(tag, rng)
            h = bf.apply_telescopic(bf.apply_gauge(bf.apply_frame(h, word),
                                                   cdraw(rng, 3)),
                                    cdraw(rng, 3))
            verdict = bf.is_cba_solvable(h)
            assert verdict.solvable
            assert verdict.vacuous == (h.t1 == 0 and h.t2 == 0), (tag, word)
            if verdict.vacuous:
                assert verdict.max_residual == 0

    def test_generic_inputs_not_vacuous(self, rng):
        for _ in range(10):
            assert not bf.is_cba_solvable(random_params(rng)).vacuous

    def test_presets_not_vacuous(self):
        from bethe_forge.cli import load_input
        presets = sorted((Path(constraints.__file__).parent / "presets")
                         .glob("*.json"))
        assert len(presets) == 19
        for path in presets:
            verdict = bf.is_cba_solvable(load_input(path))
            assert verdict.solvable and not verdict.vacuous, path.stem

    @pytest.mark.parametrize("tag", ["14V1", "14V2", "17V1a", "17V1b", "17V2"])
    def test_off_family_members_flagged(self, tag):
        """The 14V/17V presets in frame PT (where t1 = t2 = 0 and p != 0),
        with p scaled by 1 + 1e-3, are on no family, yet every summand
        vanishes: "solvable" with residual 0, and vacuous."""
        from bethe_forge.cli import load_input
        path = Path(constraints.__file__).parent / "presets" / f"{tag}.json"
        h = bf.apply_frame(load_input(path), "PT")
        h = h.replace(p=h.p * (1 + 1e-3))
        verdict = bf.is_cba_solvable(h)
        assert verdict.solvable and verdict.vacuous
        assert verdict.max_residual == 0
        assert bf.classify(h) is None
