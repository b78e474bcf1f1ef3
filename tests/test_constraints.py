"""Scattering data and the randomized solvability test."""

import itertools
import operator

import numpy as np
import pytest

import bethe_forge as bf
from bethe_forge import constraints
from bethe_forge.constraints import PyComplexArray, _PairTable, pair_row

from conftest import cdraw, draw_free, family_instance, random_params


class TestLambda:
    def test_zero_params(self, rng):
        z1, z2 = cdraw(rng), cdraw(rng)
        assert bf.lambda_fn(bf.HamiltonianParams(), z1, z2) == 0

    def test_gzf_proportional_to_closed_form(self, rng):
        """For the gZF family Lambda factorizes; S built from it must match
        the family's printed two-parameter form."""
        h = bf.construct("gZF", draw_free("gZF", rng))
        red = bf.family_reduced("gZF", {k: getattr(h, k) for k in
                                        ("p", "tp", "t2", "s1")})
        for _ in range(20):
            z1, z2 = cdraw(rng), cdraw(rng)
            s = bf.s_matrix(h, z1, z2)
            s_fam = bf.family_s_matrix("gZF", red, z1, z2)
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
        Z = constraints.random_momenta(rng, (3000, 12))
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
        Z = constraints.random_momenta(rng, (3000, 3))
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
        red = bf.family_reduced("gZF", free)
        for _ in range(20):
            z1, z2 = cdraw(rng), cdraw(rng)
            expect = bf.family_n_factor("gZF", red, z1, z2)
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
                assert table.singular()[r] == pair_row(h, z).singular()[0]
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
            for fn, z in ((bf.constraint_e21, z3), (bf.constraint_e12, z3),
                          (bf.constraint_e22, z4)):
                assert abs(fn(h, z)) < 1e-9

    def test_gik_e12_and_perturbation(self, rng):
        h, _ = family_instance("gIK", rng)
        z3 = cdraw(rng, 3)
        assert abs(bf.constraint_e12(h, z3)) < 1e-9
        hp = h.replace(t3=h.t3 + 0.1)
        assert abs(bf.constraint_e12(hp, z3)) > 1e-3

    def test_gb_e22_and_perturbation(self, rng):
        h, _ = family_instance("gB", rng)
        z4 = cdraw(rng, 4)
        assert abs(bf.constraint_e22(h, z4)) < 1e-9
        hp = h.replace(tp=h.tp + 0.1)
        assert abs(bf.constraint_e22(hp, z4)) > 1e-6

    def test_perturbed_gzf_fails(self, rng):
        h = bf.construct("gZF", draw_free("gZF", rng))
        hp = h.replace(s3=h.s3 + 0.1)
        assert abs(bf.constraint_e21(hp, cdraw(rng, 3))) > 1e-3

    def test_smoke_t2_only(self, rng):
        # Lambda vanishes identically on this ray: must evaluate, not raise
        h = bf.HamiltonianParams(t2=1)
        bf.constraint_e21(h, cdraw(rng, 3))

    def test_symmetrized_vanishing_for_families(self, rng):
        # on solvable points the sums vanish for every input ordering
        for _ in range(20):
            h, _ = family_instance("SpR", rng)
            z3, z4 = cdraw(rng, 3), cdraw(rng, 4)
            for fn, z in ((bf.constraint_e21, z3), (bf.constraint_e12, z3),
                          (bf.constraint_e22, z4)):
                perm = list(z)
                rng.shuffle(perm)
                assert abs(fn(h, z)) < 1e-9 and abs(fn(h, perm)) < 1e-9

    def test_permutation_cocycle(self, rng):
        # relabeling the momenta multiplies the symmetrized sum by the
        # inverse scattering amplitude of the relabeling permutation
        for _ in range(25):
            h = random_params(rng)
            z3, z4 = cdraw(rng, 3), cdraw(rng, 4)
            for fn, z in ((bf.constraint_e21, z3), (bf.constraint_e12, z3),
                          (bf.constraint_e22, z4)):
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
                rel, _ = constraints._constraint_batch(h, Z, which)
                ref_rel = np.abs(ref.sum(axis=1)) / scale
                assert np.all(np.abs(rel - ref_rel) <= 1e-13)


class TestSolvability:
    def test_families_pass(self, rng):
        for tag in bf.FAMILY_ORDER:
            h, _ = family_instance(tag, rng)
            verdict = bf.is_cba_solvable(h, seed=1)
            assert verdict.solvable, (tag, verdict.max_residual)
            assert verdict.max_residual <= 1e-9

    def test_random_draw_fails(self, rng):
        verdict = bf.is_cba_solvable(random_params(rng), seed=1)
        assert not verdict.solvable
        assert verdict.failing_constraint in ("E21", "E12", "E22")

    def test_small_perturbation_detected(self, rng):
        h = bf.construct("gZF", draw_free("gZF", rng))
        hp = h.replace(t3=h.t3 + 1e-3)
        verdict = bf.is_cba_solvable(hp, seed=1)
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

    def test_verdict_consistency(self, rng):
        h, _ = family_instance("17V2", rng)
        verdict = bf.is_cba_solvable(h, n_samples=7, tol=1e-8)
        assert verdict.samples == 7 and verdict.tol == 1e-8
        assert verdict.solvable == (verdict.max_residual <= verdict.tol)
