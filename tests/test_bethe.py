"""Bethe-equation solving, eigenvector assembly, eigenpair verification."""

import cmath
import functools
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import bethe_forge as bf
from bethe_forge import bethe
from bethe_forge.cli import load_input, main
from bethe_forge.constraints import (_PairTable, lambda_fn, lambda_grad,
                                     ordered_pairs, permutation_table)

from conftest import cdraw, draw_free, family_instance, random_params

PRESETS = Path(bf.__file__).parent / "presets"
PRESET_NAMES = sorted(p.stem for p in PRESETS.glob("*.json"))


class TestEnergy:
    def test_vacuum(self, rng):
        assert bf.energy(random_params(rng), []) == 0

    def test_single_unit_momentum(self, rng):
        h = random_params(rng)
        V = bf.invariants(h).V
        assert abs(bf.energy(h, [1.0]) - (V + h.q + h.p)) < 1e-12

    def test_no_hopping_energy_counts_excitations(self, rng):
        # with p = q = 0 the energy is M V regardless of the momenta
        h = random_params(rng).replace(p=0, q=0)
        V = bf.invariants(h).V
        for M in (1, 2, 3):
            z = cdraw(rng, M)
            assert abs(bf.energy(h, z) - M * V) < 1e-12

    def test_zero_momentum_rejected(self, rng):
        with pytest.raises(ValueError, match="invalid momentum"):
            bf.energy(random_params(rng), [0.0])


class TestBAEResidual:
    def test_single_excitation_roots(self, rng):
        h = random_params(rng)
        L = 5
        for n in range(L):
            assert bf.bae_residual(h, [np.exp(2j * np.pi * n / L)], L) < 1e-12

    def test_random_point_large(self, rng):
        h, _ = family_instance("gZF", rng)
        assert bf.bae_residual(h, cdraw(rng, 2), 4) > 1e-3

    def test_singularity_gives_inf(self, rng):
        free = draw_free("14V1", rng)
        h = bf.construct("14V1", free, {"eps": 1})
        taup = free["tp"] / free["p"]
        assert bf.bae_residual(h, [taup, cdraw(rng)], 4) == float("inf")


def _reference_bae_residual(params, z, L):
    """Scalar loop over s_matrix: max_j |z_j^L - prod_{n != j} S(z_n, z_j)|,
    +inf at an S singularity."""
    z = [complex(w) for w in z]
    res = 0.0
    for j, zj in enumerate(z):
        prod = 1.0 + 0j
        try:
            for n, zn in enumerate(z):
                if n != j:
                    prod *= bf.s_matrix(params, zn, zj)
        except ValueError:
            return float("inf")
        val = abs(zj**L - prod)
        if not np.isfinite(val):
            return float("inf")
        res = max(res, val)
    return res


def _singular_point(params, rng, M):
    """M momenta where S(z_0, z_1) is singular: Lambda(z_1, z_0) = 0 to
    rounding while Lambda(z_0, z_1) is not (a zero of a factor the two
    share is 0/0, not a pole).  Newton on the first argument of Lambda from
    random starts."""
    z0 = cdraw(rng)
    for _ in range(50):
        w = cdraw(rng, rmin=0.2, rmax=3.0)
        for _ in range(60):
            d1, _ = lambda_grad(params, w, z0)
            if d1 == 0:
                break
            w = w - lambda_fn(params, w, z0) / d1
        den, num = abs(lambda_fn(params, w, z0)), abs(lambda_fn(params, z0, w))
        if 0.05 < abs(w) < 20 and den <= 1e-14 * num:
            return [z0, complex(w)] + list(cdraw(rng, M - 2))
    raise AssertionError("no pole of S found")


class TestBatchedBAEResidual:
    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_matches_scalar_loop(self, tag, rng, monkeypatch):
        """The batched residuals equal the scalar s_matrix loop row by row,
        M = 1..3: random points, solve_bae roots and, where S is not
        identically -1, a singular point (inf on both sides)."""
        h, _ = family_instance(tag, rng)
        L = 5
        monkeypatch.setattr(bethe, "MAX_ITER", 40)
        for M in (1, 2, 3):
            rows = [cdraw(rng, M) for _ in range(8)]
            rows += [s.z for s in bf.solve_bae(h, L, M)][:8]
            if M >= 2 and tag not in bf.TRIVIAL_S_TAGS:
                rows.append(_singular_point(h, rng, M))
            got = bethe._bae_residuals(h, np.array(rows, complex), L)
            for z, r in zip(rows, got):
                ref = _reference_bae_residual(h, z, L)
                if ref == float("inf"):
                    assert r == ref
                else:
                    assert abs(r - ref) <= 1e-12 * max(1, ref), (z, r, ref)
            if M >= 2 and tag not in bf.TRIVIAL_S_TAGS:
                assert got[-1] == float("inf")


def _object_bae_residuals(params, Z, L):
    """The batched BAE residuals in Python complex numbers: the pair table
    and the BAE sides over an object array, the reference for the
    PyComplexArray arithmetic of _bae_residuals."""
    table = _PairTable(params, Z.astype(object))
    lhs, rhs = bethe._bae_sides(table, L)
    res = np.abs(lhs - rhs).astype(float).max(axis=1, initial=0.0)
    res[table.singular() | ~np.isfinite(res)] = np.inf
    return res


def _object_pair(params, z1, z2, what):
    """S or N of (z1, z2) from an object-array pair table, or the message of
    the ValueError naming its singular pair."""
    table = _PairTable(params, np.array([[complex(z1), complex(z2)]], object))
    try:
        table.require(what, (0, 1))
    except ValueError as exc:
        return str(exc)
    return complex(getattr(table, what)(0, 1)[0])


@functools.lru_cache(maxsize=None)
def _newton_rows(name, L):
    """The rows _newton_batch returns for a preset from the start grid."""
    h = bf.with_zero_v00(load_input(PRESETS / f"{name}.json"))
    return bethe._newton_batch(h, *bethe._block_starts(L), L)


class TestExactArithmetic:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_object_arrays(self, name, rng):
        """_bae_residuals, _energies, s_matrix and n_factor equal their
        Python complex values over object arrays bit for bit (energies:
        _reference_energy), at L = 4..9 on every row the solver checks
        (the M = 2 companion pairs, the M = 3 Newton rows and the trivial-S
        seeds) and on random M = 2, 3 rows; S and N at pairs of those
        roots, singular pairs giving the same message."""
        h = bf.with_zero_v00(load_input(PRESETS / f"{name}.json"))
        pairs = 0
        for L in range(4, 10):
            batches = [bethe._m2_pairs(h, L), _newton_rows(name, L),
                       np.array(bethe._multiset_seeds(L, 3), complex),
                       cdraw(rng, 40).reshape(20, 2),
                       cdraw(rng, 60).reshape(20, 3)]
            for Z in batches:
                Z = Z[~np.any(np.abs(Z) < 1e-8, axis=1)]
                got = bethe._bae_residuals(h, Z, L)
                assert _bits(got) == _bits(_object_bae_residuals(h, Z, L))
                E = bethe._energies(h, Z)
                for z, e in zip(Z, E):
                    assert _bits(e) == _bits(_reference_energy(h, z))
                for z1, z2 in Z[::7, :2]:
                    for fn, what in ((bf.s_matrix, "S"), (bf.n_factor, "N")):
                        try:
                            val = fn(h, z1, z2)
                        except ValueError as exc:
                            val = str(exc)
                        want = _object_pair(h, z1, z2, what)
                        assert type(val) is type(want)
                        assert (val == want if isinstance(val, str)
                                else _bits(val) == _bits(want))
                        pairs += 1
        assert pairs > 200


class TestSolveBAE:
    def test_m0_is_the_empty_root_set(self, rng):
        sols = bf.solve_bae(random_params(rng), 6, 0)
        assert [(s.z, s.energy, s.bae_residual, s.degenerate_flag)
                for s in sols] == [((), 0, 0.0, False)]

    def test_m1_exact(self, rng):
        h = random_params(rng)
        L = 6
        sols = bf.solve_bae(h, L, 1)
        assert len(sols) == L
        roots = sorted(np.exp(2j * np.pi * np.arange(L) / L),
                       key=lambda z: (z.real, z.imag))
        got = sorted((s.z[0] for s in sols), key=lambda z: (z.real, z.imag))
        assert np.allclose(got, roots)
        for s in sols:
            assert s.bae_residual < 1e-12

    def test_trivial_s_family_roots(self, rng):
        # scattering is identically -1: solutions are multisets of z^L = -1
        h, _ = family_instance("17V1a", rng)
        L = 4
        sols = bf.solve_bae(h, L, 2)
        assert len(sols) == L * (L + 1) // 2
        for s in sols:
            for z in s.z:
                assert abs(z**L + 1) < 1e-10

    def test_m_cap(self, rng):
        with pytest.raises(ValueError, match="M <= 3"):
            bf.solve_bae(random_params(rng), 4, 4)

    def test_gzf_energies_in_ed_spectrum(self, rng):
        h, _ = family_instance("gZF", rng)
        L = 4
        sols = bf.solve_bae(h, L, 2)
        assert sols
        Hs = bf.sector_matrix(h, L, 2)
        ev = np.linalg.eigvals(Hs)
        scale = max(1.0, float(np.max(np.abs(Hs))))
        for s in sols:
            psi = bf.assemble_eigenvector(h, s.z, L)
            if psi.is_null:
                continue
            assert np.min(np.abs(ev - s.energy)) < 1e-8 * scale

    def test_deterministic(self, rng):
        h, _ = family_instance("SpR", rng)
        a = bf.solve_bae(h, 4, 2)
        b = bf.solve_bae(h, 4, 2)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.z == y.z

    @staticmethod
    def _sectors(name, L, M, seed, capsys):
        """The sectors of verify --json for a preset at one --seed."""
        main(["verify", str(PRESETS / f"{name}.json"), "--L", str(L),
              "--M", str(M), "--seed", str(seed), "--json"])
        return json.loads(capsys.readouterr().out)["sectors"]

    def test_m2_roots_do_not_depend_on_seed(self, capsys):
        """M = 2 root sets come from one polynomial per momentum block, or
        in closed form where S = -1 at the fixed probe pairs, so --seed
        changes no root set, check or match of verify --json, for Newton
        families and a trivial-S one (17V1a)."""
        for name in ("gIK", "bariev", "17V2", "17V1a"):
            runs = [self._sectors(name, 7, 2, k, capsys) for k in (0, 1, 7)]
            assert runs[0][0]["solutions"], name
            assert runs[0] == runs[1] == runs[2], name

    def test_m3_roots_do_not_depend_on_seed(self, capsys):
        """M = 3 Newton starts from a fixed grid on each block line, and
        the trivial-S probe pairs are fixed, so --seed changes no root set,
        check or match of verify --json."""
        for name in ("gIK", "bariev", "17V2", "17V1a"):
            runs = [self._sectors(name, 6, 3, k, capsys) for k in (0, 1, 7)]
            assert runs[0][0]["solutions"], name
            assert runs[0] == runs[1] == runs[2], name

    def test_m3_near_coincident_clusters_rejected(self):
        """Near a coincident point the block system is degenerate (F_1 = F_2
        on z1 = z2) and Newton reaches NEWTON_TOL about 1e-3 from it; such
        sets pass bae_tol but fail as eigenvectors.  martins_1A at L = 3
        gave 22 unverified and 8 null sets around (1, 1, 1) before
        converged rows had to pass the one-more-step test."""
        h = load_input(PRESETS / "martins_1A.json")
        rep = bf.verify_sector(h, 3, 3, bethe.BAE_TOL, 1e-8)
        outcomes = [c.outcome for c in rep.checks]
        assert rep.passed and rep.matched == 2
        assert "unverified" not in outcomes and "null" not in outcomes


def _reference_canonical(z):
    """The canonical order as a stable sort by (Re, Im) in Python."""
    return tuple(sorted((complex(w) for w in z),
                        key=lambda w: (w.real, w.imag)))


def _reference_energy(params, z):
    """M V + sum_n (q z_n + p / z_n), summed from the int 0 in Python
    complex arithmetic."""
    total = 0
    for w in z:
        w = complex(w)
        total = total + (params.q * w + params.p / w)
    return len(z) * bf.invariants(params).V + total


def _reference_coincident(z):
    return any(abs(complex(a) - complex(b)) <= bethe.DEGENERATE_TOL
               for a, b in itertools.combinations(z, 2))


def _bits(z):
    return np.array(z, complex).tobytes()


class TestBookkeeping:
    """solve_bae's canonical order, coincident flags and energies, taken as
    array passes over all root sets, equal the one-row Python rules."""

    def test_trivial_s_root_sets(self):
        """Every trivial-S root set of 17V1a, 17V1b and 14V2 at L = 3..13,
        M = 2, 3 (6,798 sets): z tuple, energy, BAE residual and flag as
        the one-row rules give them on the multiset seeds, bit for bit."""
        count = 0
        for name in ("17V1a", "17V1b", "14V2"):
            h = bf.with_zero_v00(load_input(PRESETS / f"{name}.json"))
            for L in range(3, 14):
                for M in (2, 3):
                    Z = np.array(bethe._multiset_seeds(L, M), complex)
                    res = bethe._bae_residuals(h, Z, L)
                    got = bf.solve_bae(h, L, M)
                    assert len(got) == len(Z)
                    for sol, zs, r in zip(got, Z, res):
                        assert _bits(sol.z) == _bits(_reference_canonical(zs))
                        assert _bits(sol.energy) == \
                            _bits(_reference_energy(h, zs))
                        assert sol.bae_residual == r
                        assert sol.degenerate_flag == _reference_coincident(zs)
                    count += len(got)
        assert count == 6798

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_solved_root_sets(self, name):
        """L = 4..9, M = 0..3: each solution's z is canonical and its flag
        is the one-row rule's on it; its energy is the one-row rule's on it
        bit for bit, except at trivial S for M >= 2, where the energy is
        summed in seed order (test_trivial_s_root_sets); M < 2 keeps the
        order of itertools.combinations over the roots of unity."""
        for L in range(4, 10):
            for M in range(4):
                h, sols = _preset_solutions(name, L, M)
                seed_order = M >= 2 and bethe._is_trivial_s(h)
                for sol in sols:
                    assert _bits(sol.z) == _bits(_reference_canonical(sol.z))
                    assert seed_order or _bits(sol.energy) == \
                        _bits(_reference_energy(h, sol.z))
                    assert sol.degenerate_flag == \
                        _reference_coincident(sol.z)
                if M < 2:
                    roots = [np.exp(2j * np.pi * n / L) for n in range(L)]
                    assert [_bits(s.z) for s in sols] == \
                        [_bits(c) for c in itertools.combinations(roots, M)]

    def test_batches_and_one_row_reads(self, rng):
        """On random batches with ties in the real part, exact duplicates,
        near-coincident roots and signed zeros: the batch functions equal
        the one-row rules row by row, and _canonical, _coincident and
        energy (their one-row reads) do too."""
        h, _ = family_instance("gB", rng)
        for M in (0, 1, 2, 3):
            Z = cdraw(rng, 200 * M).reshape(200, M)
            if M >= 2:
                Z[::3, 1] = Z[::3, 0].real + 1j * rng.uniform(-1, 1, 67)
                Z[1::5, 1] = Z[1::5, 0]
                Z[2::7, 1] = Z[2::7, 0] + 0.9 * bethe.DEGENERATE_TOL
                Z[3::11, 0] = complex(-0.0, 0.5)
                Z[3::11, 1] = complex(0.0, 0.5)
            canon = bethe._canonical_rows(Z)
            E = bethe._energies(h, Z)
            flags = bethe._coincident_rows(Z)
            for z, c, e, f in zip(Z, canon, E, flags):
                want = _reference_canonical(z)
                assert _bits(c) == _bits(want)
                assert bethe._canonical(z) == want
                assert _bits(e) == _bits(_reference_energy(h, z))
                assert _bits(bf.energy(h, z)) == _bits(e)
                assert f == bethe._coincident(z) == _reference_coincident(z)
            if M >= 2:
                assert 0 < flags.sum() < len(Z)


class TestBlockStarts:
    @pytest.mark.parametrize("L", [3, 4, 7, 9])
    def test_on_block_lines(self, L):
        """Every start lies on its block line z1 z2 z3 = w, w an L-th root
        of unity: first the C(L, 3) multisets of distinct roots of unity,
        then the same ceil(GRID_STARTS / L) grid points in every block.
        The arrays are read-only and the same on every build."""
        Z, w = bethe._block_starts(L)
        k = -(-bethe.GRID_STARTS // L)
        m = L * (L - 1) * (L - 2) // 6
        assert Z.shape == (m + L * k, 3) and w.shape == (len(Z),)
        assert np.all(np.abs(np.prod(Z, axis=1) - w) <= 1e-14)
        assert np.all(np.abs(w**L - 1) <= 1e-12)
        assert np.all(np.abs(np.abs(Z[:m]) - 1) <= 1e-15)
        assert np.all(np.abs(Z[:m, [0, 0, 1]] - Z[:m, [1, 2, 2]]) > 0.1)
        grid = Z[m:, :2].reshape(L, k, 2)
        assert np.array_equal(grid, np.broadcast_to(grid[0], grid.shape))
        assert np.all((np.abs(grid) >= 0.5) & (np.abs(grid) <= 2))
        assert not Z.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            Z[0, 0] = 0
        again = bethe._block_starts.__wrapped__(L)
        assert np.array_equal(Z, again[0]) and np.array_equal(w, again[1])


# matched M = 2 states per preset at L = 4..9 (verify --seed 0) with the
# seeded Newton solver the polynomial roots replaced
_M2_MATCHED_BY_NEWTON = {
    "14V1": (6, 10, 15, 19, 26, 29),
    "14V2": (6, 10, 15, 21, 28, 36),
    "17V1a": (6, 10, 15, 21, 28, 36),
    "17V1b": (6, 10, 15, 21, 28, 36),
    "17V2": (6, 9, 14, 20, 21, 31),
    "SB5": (10, 14, 17, 24, 30, 38),
    "SpR": (8, 15, 20, 24, 32, 37),
    "bariev": (7, 13, 15, 25, 26, 37),
    "gB": (9, 15, 20, 25, 28, 34),
    "gIK": (9, 14, 16, 24, 27, 31),
    "gZF": (8, 11, 16, 21, 27, 35),
    "izergin_korepin": (5, 11, 14, 23, 24, 36),
    "main_branch_genus5": (7, 9, 10, 18, 24, 31),
    "martins_1A": (3, 7, 10, 14, 14, 23),
    "martins_1B": (6, 13, 17, 23, 25, 34),
    "martins_2A": (5, 11, 14, 23, 24, 36),
    "martins_2B": (7, 13, 16, 26, 29, 39),
    "special_branch_genus5": (8, 13, 15, 20, 26, 27),
    "zamolodchikov_fateev": (5, 8, 9, 14, 14, 24),
}


class TestM2Completeness:
    @pytest.mark.parametrize("name", sorted(_M2_MATCHED_BY_NEWTON))
    def test_not_below_seeded_newton(self, name):
        """At L = 4..9 every preset matches at least as many M = 2 states as
        seeded Newton did, and every root set accepted verifies and
        matches (the seeded solver left one unverified state in
        main_branch_genus5 at L = 6).  Without the Newton polish gB at
        L = 5 matches one state fewer."""
        h = load_input(PRESETS / f"{name}.json")
        for L, before in zip(range(4, 10), _M2_MATCHED_BY_NEWTON[name]):
            rep = bf.verify_sector(h, L, 2, bethe.BAE_TOL, 1e-8)
            assert rep.matched >= before, L
            assert rep.passed, L


# matched M = 3 states per preset at L = 3..9 (verify --seed 0) with Newton
# on the block lines from the fixed start grid; at L = 5..9 each is at least
# the count of the 3-unknown Newton from 300 random starts (which was at
# least that of 100 random starts run to the iteration cap).  At L = 4
# main_branch_genus5 matches 3: the random starts of seed 0 found 4, those
# of seeds 1..5 found 2 or 3.
_M3_MATCHED = {
    "14V1": (1, 4, 10, 19, 32, 49, 59),
    "14V2": (1, 4, 10, 20, 35, 56, 84),
    "17V1a": (1, 4, 10, 20, 35, 56, 84),
    "17V1b": (1, 4, 10, 20, 35, 56, 84),
    "17V2": (1, 3, 8, 13, 25, 32, 46),
    "SB5": (6, 15, 29, 42, 58, 81, 102),
    "SpR": (7, 16, 29, 46, 62, 80, 108),
    "bariev": (6, 6, 25, 39, 43, 71, 85),
    "gB": (5, 15, 25, 45, 62, 89, 103),
    "gIK": (6, 12, 23, 39, 54, 75, 84),
    "gZF": (7, 14, 21, 35, 44, 62, 66),
    "izergin_korepin": (2, 9, 16, 24, 47, 54, 88),
    "main_branch_genus5": (4, 3, 20, 26, 33, 50, 56),
    "martins_1A": (2, 5, 9, 18, 30, 23, 15),
    "martins_1B": (5, 7, 25, 31, 45, 60, 76),
    "martins_2A": (2, 9, 16, 24, 45, 55, 88),
    "martins_2B": (7, 5, 28, 38, 54, 72, 93),
    "special_branch_genus5": (7, 8, 26, 38, 41, 69, 80),
    "zamolodchikov_fateev": (2, 8, 9, 22, 29, 29, 42),
}


class TestM3Completeness:
    @pytest.mark.parametrize("name", sorted(_M3_MATCHED))
    def test_not_below_newton_to_the_cap(self, name):
        """At L = 3..9 every preset matches at least as many M = 3 states as
        the block solver did when it replaced seeded Newton (at L = 5..9 no
        fewer than seeded Newton, stalled rows dropped or run to the cap),
        and every root set accepted verifies and matches."""
        h = load_input(PRESETS / f"{name}.json")
        for L, before in zip(range(3, 10), _M3_MATCHED[name]):
            rep = bf.verify_sector(h, L, 3, bethe.BAE_TOL, 1e-8)
            assert rep.matched >= before, L
            assert rep.passed, L


def _reference_system(params, Z, L, sign):
    """Per-pair loop for F_j over a (n, M) batch of momentum tuples."""
    n, M = Z.shape
    lam = {(i, j): lambda_fn(params, Z[:, i], Z[:, j])
           for i in range(M) for j in range(M) if i != j}
    F = np.empty((n, M), complex)
    for j in range(M):
        pj = np.ones(n, complex)
        qj = np.ones(n, complex)
        for m in range(M):
            if m != j:
                pj = pj * lam[j, m]
                qj = qj * lam[m, j]
        F[:, j] = Z[:, j]**L * pj - sign * qj
    return F


def _reference_jacobian(params, Z, L, sign):
    n, M = Z.shape
    lam = {(i, j): lambda_fn(params, Z[:, i], Z[:, j])
           for i in range(M) for j in range(M) if i != j}
    grad = {(i, j): lambda_grad(params, Z[:, i], Z[:, j])
            for i in range(M) for j in range(M) if i != j}

    def prod_excl(pairs, skip):
        out = np.ones(n, complex)
        for pr in pairs:
            if pr != skip:
                out = out * lam[pr]
        return out

    J = np.zeros((n, M, M), complex)
    for j in range(M):
        pj_pairs = [(j, m) for m in range(M) if m != j]
        qj_pairs = [(m, j) for m in range(M) if m != j]
        pj = prod_excl(pj_pairs, None)
        dP = sum(grad[j, m][0] * prod_excl(pj_pairs, (j, m))
                 for m in range(M) if m != j)
        dQ = sum(grad[m, j][1] * prod_excl(qj_pairs, (m, j))
                 for m in range(M) if m != j)
        J[:, j, j] = L * Z[:, j]**(L - 1) * pj + Z[:, j]**L * dP - sign * dQ
        for k in range(M):
            if k == j:
                continue
            dPk = grad[j, k][1] * prod_excl(pj_pairs, (j, k))
            dQk = grad[k, j][0] * prod_excl(qj_pairs, (k, j))
            J[:, j, k] = Z[:, j]**L * dPk - sign * dQk
    return J


def _reference_block_newton(params, Z0, w, L):
    """Damped Newton on the M = 3 block system over the whole batch every
    iteration: F and the 3 x 3 Jacobian from the per-pair loops, the 2 x 2
    system on (z1, z2) with z3 = w / (z1 z2) solved by np.linalg.solve, a
    sequential line search halving the step down to bethe.MIN_STEP, the
    stall rule, and the one-more-step acceptance test; returns the accepted
    rows."""
    Z = np.array(Z0, complex)
    n = len(Z)

    def on_line(Z2):
        with np.errstate(all="ignore"):
            return np.column_stack([Z2, w / (Z2[:, 0] * Z2[:, 1])])

    def resnorm(Zc):
        with np.errstate(all="ignore"):
            F = _reference_system(params, Zc, L, 1.0)
            scale = np.maximum(1.0, np.max(np.abs(Zc), axis=1)**L)
            return np.max(np.abs(F), axis=1) / scale

    def steps(rows):
        Zc = Z[rows]
        with np.errstate(all="ignore"):
            F = _reference_system(params, Zc, L, 1.0)
            J = _reference_jacobian(params, Zc, L, 1.0)
            A = np.empty((len(rows), 2, 2), complex)
            for i in range(2):
                for k in range(2):
                    A[:, i, k] = J[:, i, k] - J[:, i, 2] * (Zc[:, 2] / Zc[:, k])
        step = np.full((n, 2), np.nan, complex)
        for r, a, f in zip(rows, A, F):
            if np.all(np.isfinite(a)) and np.all(np.isfinite(f)):
                try:
                    step[r] = np.linalg.solve(a, -f[:2])
                except np.linalg.LinAlgError:
                    pass
        return step

    res = resnorm(Z)
    active = np.isfinite(res)
    converged = np.zeros(n, bool)
    history = []
    for it in range(bethe.MAX_ITER):
        hit = active & (res <= bethe.NEWTON_TOL)
        converged |= hit
        active &= ~hit
        if it >= bethe.STALL_WINDOW:
            active &= res <= history[it - bethe.STALL_WINDOW] / bethe.STALL_FACTOR
        history.append(res.copy())
        if not active.any():
            break
        step = steps(np.flatnonzero(active))
        active &= np.all(np.isfinite(step), axis=1)
        if not active.any():
            break
        damp = np.ones(n)
        while True:
            with np.errstate(all="ignore"):
                trial = on_line(Z[:, :2] + damp[:, None] * step)
            rt = resnorm(trial)
            worse = active & ~(rt < res) & (damp > bethe.MIN_STEP)
            if not worse.any():
                break
            damp[worse] *= bethe.DAMPING
        active &= rt < res
        Z[active] = trial[active]
        res[active] = rt[active]
    converged |= active & (res <= bethe.NEWTON_TOL)
    done = np.flatnonzero(converged)
    step = steps(done)[done]
    scale = np.maximum(1.0, np.max(np.abs(Z[done]), axis=1))
    with np.errstate(invalid="ignore"):
        keep = np.max(np.abs(step), axis=1) <= bethe.DEDUP_TOL * scale
    return Z[done[keep]]


def _same_points(got, ref):
    """Whether two batches of points agree to 1e-12 relative, row by row."""
    return (got.shape == ref.shape and np.all(
        np.abs(got - ref) <= 1e-12 * np.maximum(1, np.abs(ref))))


class TestNewtonMatchesReference:
    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_same_roots_as_reference(self, tag, rng, monkeypatch):
        """solve_bae over the block Newton, with its closed-form 2 x 2 solve
        and batched line search, returns the same M = 3 root sets, to 1e-12
        relative and in any order, as over the per-pair loops with
        np.linalg.solve and the sequential line search.  Sets with a BAE
        residual within a factor 10 of bae_tol are left out: at large
        |z|^L that residual is noise-limited near 1e-10, so whether such a
        set is accepted, and which row of its cluster is kept, follows
        rounding.  Newton also runs for the trivial-S families here, which
        solve_bae otherwise answers without it."""
        h, _ = family_instance(tag, rng)
        monkeypatch.setattr(bethe, "_is_trivial_s", lambda *args: False)
        monkeypatch.setattr(bethe, "MAX_ITER", 40)
        clear = bethe.BAE_TOL / 10
        for L in (4, 5):
            got = bf.solve_bae(h, L, 3)
            with monkeypatch.context() as mp:
                mp.setattr(bethe, "_newton_batch", _reference_block_newton)
                ref = bf.solve_bae(h, L, 3)
            assert got
            for one, other in ((got, ref), (ref, got)):
                for a in one:
                    assert a.bae_residual > clear or any(
                        _same_points(np.array(a.z), np.array(perm))
                        for b in other
                        for perm in itertools.permutations(b.z)), a.z


class TestNewtonBatch:
    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_same_rows_as_reference(self, tag, rng, monkeypatch):
        """_newton_batch, with its carried Lambda table, closed-form 2 x 2
        solve and two-stage line search, accepts the same rows at the same
        points, to 1e-12 relative, as the per-pair loops with np.linalg.solve
        and the sequential line search, from the solver's start grid.  Rows
        at zeros of the cleared system that are not BAE solutions (BAE
        residual of order 1, where Lambda factors vanish) are left out: in
        the 14V2, 17V1 and 17V2 families such zeros form curves, and where
        on them a row lands follows the rounding of its steps."""
        h, _ = family_instance(tag, rng)
        monkeypatch.setattr(bethe, "MAX_ITER", 40)
        for L in (4, 5):
            Z0, w = bethe._block_starts(L)
            got = bethe._newton_batch(h, Z0, w, L)
            ref = _reference_block_newton(h, Z0, w, L)
            got = got[bethe._bae_residuals(h, got, L) <= 1e-6]
            ref = ref[bethe._bae_residuals(h, ref, L) <= 1e-6]
            assert len(got) and _same_points(got, ref)


class TestLineSearchFloor:
    """The line search stops at MIN_STEP = 2^-13.  The factors below it,
    down to 2^-24, which the solver tried before, only ever move rows
    that do not solve the BAE."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_keep_every_row(self, name, monkeypatch):
        """Every preset at L = 4..9: the same rows, bit for bit, as with
        the floor at 2^-24."""
        h = bf.with_zero_v00(load_input(PRESETS / f"{name}.json"))
        monkeypatch.setattr(bethe, "MIN_STEP", 2.0 ** -24)
        for L in range(4, 10):
            ref = bethe._newton_batch(h, *bethe._block_starts(L), L)
            assert _newton_rows(name, L).tobytes() == ref.tobytes()
            assert _newton_rows(name, L).shape == ref.shape

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_family_members_keep_every_solution(self, tag, rng, monkeypatch):
        """Three random members of every family at L = 4..6: the rows with
        a BAE residual of at most 1e-6 are the same, bit for bit, as with
        the floor at 2^-24 (in 17V1b the two floors can end on different
        rows at zeros of the cleared system that are no BAE solutions)."""
        floor = bethe.MIN_STEP
        for _ in range(3):
            h, _ = family_instance(tag, rng)
            for L in (4, 5, 6):
                Z0, w = bethe._block_starts(L)
                rows = []
                for step in (floor, 2.0 ** -24):
                    monkeypatch.setattr(bethe, "MIN_STEP", step)
                    Z = bethe._newton_batch(h, Z0, w, L)
                    rows.append(Z[bethe._bae_residuals(h, Z, L) <= 1e-6])
                assert len(rows[0])
                assert rows[0].tobytes() == rows[1].tobytes()


def _reference_block_steps(params, Z, L):
    """The block Newton steps by the chain rule from _bae_system's F and
    3 x 3 Jacobian: A = J[:2, :2] - J[:2, 2] (z3/z1, z3/z2), solved in
    closed form."""
    with np.errstate(all="ignore"):
        F, Jac = bethe._bae_system(params, Z, L, 1.0)
        A = Jac[:, :2, :2] - Jac[:, :2, 2:] * (Z[:, 2:] / Z[:, :2])[:, None, :]
        det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
        return np.column_stack([A[:, 1, 1] * F[:, 0] - A[:, 0, 1] * F[:, 1],
                                A[:, 0, 0] * F[:, 1] - A[:, 1, 0] * F[:, 0]]
                               ) / -det[:, None]


class TestBlockSteps:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_equal_to_chain_rule_reduction(self, name):
        """_block_steps, which forms F_1, F_2 and the 2 x 2 block Jacobian
        straight from the Lambda and dLambda tables, gives the steps of the
        chain-rule reduction of _bae_system's 3 x 3 Jacobian to the last
        bit, and non-finite steps on the same rows (a zero may differ in
        sign: _bae_system adds onto 0 and multiplies by the system's
        sign).  At L = 4, 9 and 30, on the start grid, on the points one
        full step from it, on rows with a zero root (z3 infinite) and on
        rows with coincident roots (z1 = z2, where F_1 = F_2 and the
        Jacobian is singular), each a batch of start-grid size as in the
        solver."""
        h = load_input(PRESETS / f"{name}.json")
        I, J, _ = ordered_pairs(3)
        for L in (4, 9, 30):
            Z0, w = bethe._block_starts(L)
            with np.errstate(all="ignore"):
                stepped = Z0[:, :2] + _reference_block_steps(h, Z0, L)
                stepped[~np.isfinite(stepped)] = 1.0
                zero = Z0[:, :2].copy()
                zero[::7, 0] = 0
                batches = [Z0] + [bethe._on_line(z2, w)
                                  for z2 in (stepped, zero, Z0[:, [0, 0]])]
            for Z in batches:
                with np.errstate(all="ignore"):
                    lam = lambda_fn(h, Z[:, I], Z[:, J])
                    got = bethe._block_steps(h, Z, L, lam)
                ref = _reference_block_steps(h, Z, L)
                finite = np.all(np.isfinite(ref), axis=1)
                assert np.array_equal(np.all(np.isfinite(got), axis=1),
                                      finite)
                assert np.array_equal(got[finite], ref[finite])

    def test_steps_do_not_depend_on_batch_size(self):
        """_block_steps on a 2,748-row batch, the L = 9 start grid and three
        copies of it moved off the grid, equals the same rows in their own
        687-row batches bit for bit: the big batch is past the 256 KiB at
        which numpy computes x * (temporary) in place, operands swapped."""
        h = load_input(PRESETS / "gIK.json")
        L = 9
        Z0, w = bethe._block_starts(L)
        batches = [Z0] + [bethe._on_line(Z0[:, :2] * f, w)
                          for f in (1.01, 0.99, 1.02 - 0.01j)]
        with np.errstate(all="ignore"):
            lams = [bethe._residual(h, Z, L, 1.0)[1] for Z in batches]
            got = bethe._block_steps(h, np.concatenate(batches), L,
                                     np.concatenate(lams))
            want = np.concatenate([bethe._block_steps(h, Z, L, lam)
                                   for Z, lam in zip(batches, lams)])
        assert len(got) == 2748
        assert got.tobytes() == want.tobytes()

    def test_m3_solve_builds_no_dense_jacobian(self, monkeypatch):
        """The M = 3 solve never calls _bae_system (kept for M = 2's
        _polish) and finds the same root sets without it."""
        h = load_input(PRESETS / "gB.json")
        want = bf.solve_bae(h, 5, 3)

        def no_system(*args):
            raise AssertionError("_bae_system called on the M = 3 path")

        monkeypatch.setattr(bethe, "_bae_system", no_system)
        got = bf.solve_bae(h, 5, 3)
        assert got and got == want

    def test_row_max_fold_is_np_max(self):
        """The column fold equals np.max(axis=1), NaN and inf rows
        included, for 1 to 4 columns."""
        rng = np.random.default_rng(3)
        for cols in (1, 2, 3, 4):
            A = rng.standard_normal((40, cols))
            A.flat[rng.choice(A.size, A.size // 3, replace=False)] = np.nan
            A.flat[rng.choice(A.size, A.size // 4, replace=False)] = np.inf
            A.flat[rng.choice(A.size, A.size // 5, replace=False)] = -np.inf
            got, want = bethe._row_max(A), np.max(A, axis=1)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.isnan(got), np.isnan(want))

    def test_error_state_restored(self, monkeypatch):
        """solve_bae leaves numpy's floating-point error state as it found
        it, also when lambda_fn raises inside the Newton loop; in the loop
        overflow, division by zero and invalid results are ignored."""
        h = load_input(PRESETS / "gB.json")
        before = np.geterr()
        bf.solve_bae(h, 5, 3)
        assert np.geterr() == before
        calls, seen = [], []

        def failing(*args):
            seen.append(np.geterr())
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("lambda_fn failed")
            return lambda_fn(*args)

        monkeypatch.setattr(bethe, "lambda_fn", failing)
        with pytest.raises(RuntimeError, match="lambda_fn failed"):
            bf.solve_bae(h, 5, 3)
        assert len(calls) == 3 and np.geterr() == before
        assert all(e["over"] == e["divide"] == e["invalid"] == "ignore"
                   for e in seen)


class TestStallRule:
    @pytest.mark.parametrize("name", ["gB", "izergin_korepin"])
    def test_root_basins_converge(self, name):
        """Started within about 1e-4 of every accepted M = 3 root set at
        L = 7, on the line of its own block, coincident ones included,
        every row converges and passes the one-more-step test: the stall
        rule drops no row that has reached a root's basin."""
        L = 7
        h = load_input(PRESETS / f"{name}.json")
        Z = np.array([s.z for s in bf.solve_bae(h, L, 3)])
        blocks = [bethe.momentum(z, L) for z in Z]
        w = np.exp(2j * np.pi * np.array(blocks) / L)
        wiggle = np.exp(2j * np.pi * np.random.default_rng(0).random((len(Z), 2)))
        Z0 = bethe._on_line(Z[:, :2] * (1 + 1e-4 * wiggle), w)
        got = bethe._newton_batch(h, Z0, w, L)
        assert len(Z) and len(got) == len(Z)


def _reference_distinct(sets):
    """The all-pairs duplicate scan: each set against every kept one, as
    multisets (some ordering of the kept set lies within DEDUP_TOL of the
    new one root by root)."""
    def same(za, zb):
        return any(np.max(np.abs(np.subtract(za, perm))) <= bethe.DEDUP_TOL
                   for perm in itertools.permutations(zb))

    kept, out = [], []
    for i, zs in enumerate(sets):
        if any(same(zs, prev) for prev in kept):
            continue
        kept.append(zs)
        out.append(i)
    return out


class TestDistinct:
    def test_gb_solve_same_as_all_pairs_scan(self, monkeypatch):
        """On a gB solve at L = 9, M = 3 the windowed scan keeps exactly the
        root sets, in the same order, that the all-pairs scan keeps, and
        there were duplicates to drop."""
        h = bf.with_zero_v00(load_input(str(PRESETS / "gB.json")))
        real, seen = bethe._distinct, []

        def record(sets):
            seen.extend(sets)
            return real(sets)

        monkeypatch.setattr(bethe, "_distinct", record)
        got = bf.solve_bae(h, 9, 3)
        assert real(seen) == _reference_distinct(seen)
        assert len(seen) > len(got) > 0

    def test_clustered_sets(self, rng):
        """Canonical near-duplicates straddling DEDUP_TOL; sets whose first
        roots share a real part but differ elsewhere; and sets with two
        roots of one real part, which sort in either order once perturbed
        (a conjugate-like pair)."""
        base = [tuple(cdraw(rng, 3)) for _ in range(30)]
        base += [(b[0].real + 1j * rng.uniform(-1, 1),) + b[1:] for b in base]
        base += [(b[0], b[0].real + 1j * rng.uniform(-1, 1), b[2])
                 for b in base[:30]]
        sets = []
        for _ in range(600):
            b = base[rng.integers(len(base))]
            step = 0.8 * bethe.DEDUP_TOL * rng.uniform(-1, 1, (3, 2))
            sets.append(bethe._canonical(z + complex(*d)
                                         for z, d in zip(b, step)))
        got = bethe._distinct(sets)
        assert got == _reference_distinct(sets)
        assert len(base) < len(got) < len(sets)


class TestAmplitude:
    def test_identity_permutation(self, rng):
        h = random_params(rng)
        assert bf.amplitude(h, cdraw(rng, 3), (0, 1, 2)) == 1

    def test_adjacent_transposition(self, rng):
        h = random_params(rng)
        z = cdraw(rng, 2)
        assert abs(bf.amplitude(h, z, (1, 0)) - bf.s_matrix(h, z[0], z[1])) < 1e-12

    def test_reduced_word_independence(self, rng):
        """Building A along different adjacent-transposition words of the same
        permutation gives the same value (unitarity makes it well defined)."""
        h = random_params(rng)
        z = cdraw(rng, 3)

        def along_word(word):
            sigma = list(range(3))
            A = 1.0 + 0j
            for j in word:           # right-multiply by T_j
                A *= bf.s_matrix(h, z[sigma[j]], z[sigma[j + 1]])
                sigma[j], sigma[j + 1] = sigma[j + 1], sigma[j]
            return tuple(sigma), A

        s1, a1 = along_word((0, 1, 0))
        s2, a2 = along_word((1, 0, 1))
        assert s1 == s2  # both words give the (13) transposition
        assert abs(a1 - a2) < 1e-10 * max(1, abs(a1))
        assert abs(bf.amplitude(h, z, s1) - a1) < 1e-10 * max(1, abs(a1))

    def test_doubled_index_factor(self, rng):
        h, _ = family_instance("gB", rng)
        z = cdraw(rng, 2)
        expect = bf.n_factor(h, z[0], z[1])
        assert abs(bf.amplitude(h, z, (0, 1), doubled=(0,)) - expect) < 1e-12


def _positions(s):
    """Occupation string -> sorted 1-based excitation positions."""
    return tuple(site for site, n in enumerate(s, start=1) for _ in range(n))


def _reference_assembly(params, z, L):
    """Per-basis-state assembly loop: (vector, norm, amp_scale, degenerate)."""
    z = [complex(w) for w in z]
    M = len(z)
    degen = (M >= 2 and min(abs(a - b) for a, b in
                            itertools.combinations(z, 2)) <= 1e-6)
    S = {(a, b): bf.s_matrix(params, z[a], z[b])
         for a in range(M) for b in range(M) if a != b}
    N = {(a, b): bf.n_factor(params, z[a], z[b])
         for a in range(M) for b in range(M) if a != b}
    perms = []
    for sigma in itertools.permutations(range(M)):
        pos = {v: i for i, v in enumerate(sigma)}
        A = 1.0 + 0j
        for a in range(M):
            for b in range(a + 1, M):
                if pos[a] > pos[b]:
                    A *= S[a, b]
        perms.append((sigma, A))
    zpow = [[z[n] ** x for x in range(L + 1)] for n in range(M)]
    basis = bf.sector_basis(L, M)
    vec = np.zeros(len(basis), complex)
    scale = 0.0
    for i, s in enumerate(basis):
        xs = _positions(s)
        doubles = tuple(j for j in range(M - 1) if xs[j + 1] == xs[j])
        total = 0j
        for sigma, A in perms:
            term = A
            for j in doubles:
                term *= N[sigma[j], sigma[j + 1]]
            for n in range(M):
                term *= zpow[sigma[n]][xs[n]]
            total += term
            scale = max(scale, abs(term))
        vec[i] = total
    norm = float(np.sqrt(sum(abs(a)**2 for a in vec)))
    return vec, norm, scale, degen


def _assert_matches_reference(h, z, L, psi=None):
    vec, norm, scale, degen = _reference_assembly(h, z, L)
    psi = psi or bf.assemble_eigenvector(h, z, L)
    tol = 1e-12 * scale
    got = psi.to_vector(L)
    assert got.shape == vec.shape
    assert np.max(np.abs(got - vec)) <= tol
    assert abs(psi.norm - norm) <= tol
    assert abs(psi.amp_scale - scale) <= tol
    assert psi.degenerate_flag == degen
    ref_null = norm <= 1e-10 * max(scale, 1e-300)
    assert psi.is_null == ref_null
    return psi


def _assemble_python_powers(table, L):
    """_assemble over the whole sector with every power z**x taken by
    Python's complex power, one root at a time."""
    n, M = table.Z.shape
    X, doubled = bethe._sector_positions(L, M)
    zpow = np.array([[[w ** x for x in range(L + 1)] for w in row]
                     for row in table.Z.tolist()], complex)
    vecs = np.zeros((n, len(X)), complex)
    scale = np.zeros((n, len(X)))
    with np.errstate(all="ignore"):
        for s, sigma in enumerate(permutation_table(M)[0]):
            term = np.repeat(table.amps[:, s, None], len(X), axis=1)
            for j in range(M - 1):
                at = doubled[:, j]
                term[:, at] = (term[:, at]
                               * table.N(sigma[j], sigma[j + 1])[:, None])
            for k in range(M):
                factor = zpow[:, sigma[k], X[:, k]]
                term = term * factor
            vecs += term
            scale = np.maximum(scale, np.abs(term))
    return vecs, scale


class TestAssembleEigenvector:
    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_matches_reference_loop(self, tag, rng):
        """The vectorised assembly, one row and a batch of three alike,
        reproduces the per-basis-state loop for generic momenta,
        L in {3, 4, 5}, M in {1, 2, 3}; every M >= 2 basis has doubled-site
        states."""
        h, _ = family_instance(tag, rng)
        for L in (3, 4, 5):
            for M in (1, 2, 3):
                Z = np.array([cdraw(rng, M) for _ in range(3)])
                vecs, amp = bethe._assemble(_PairTable(h, Z), L)
                norms = np.linalg.norm(vecs, axis=1)
                for z, vec, norm, scale in zip(Z, vecs, norms,
                                               amp.max(axis=1)):
                    _assert_matches_reference(h, z, L)
                    batch_row = bethe.SectorEigenvector(
                        M, vec, norm, scale, bethe._coincident(z))
                    _assert_matches_reference(h, z, L, batch_row)

    def test_powers_as_python_powers(self, rng):
        """The numpy power table gives the vectors and term scales of
        Python's complex power bit for bit below L = 100, where both use
        binary powering; above, numpy takes exp and log and the M = 1
        vectors agree to 1e-13 relative."""
        for tag in ("gB", "14V1", "gIK"):
            h, _ = family_instance(tag, rng)
            for L, M in ((4, 3), (9, 3), (12, 2), (30, 1), (99, 1)):
                table = _PairTable(h, np.array([cdraw(rng, M)
                                                for _ in range(3)]))
                got, want = bethe._assemble(table, L), \
                    _assemble_python_powers(table, L)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
            for L in (100, 120, 170):
                roots = np.exp(2j * np.pi * np.arange(L) / L)[:, None]
                for Z in (roots, cdraw(rng, L)[:, None]):
                    table = _PairTable(h, Z)
                    (got, _), (want, _) = bethe._assemble(table, L), \
                        _assemble_python_powers(table, L)
                    assert np.all(np.abs(got - want)
                                  <= 1e-13 * np.abs(want))

    def test_amp_scale_is_the_largest_term(self, rng):
        """assemble_eigenvector's amp_scale, the maximum of _assemble's
        per-entry term maxima, is the largest term over the whole sector:
        bit for bit that of the Python-power assembly below L = 100."""
        for tag in bf.FAMILY_ORDER:
            h, _ = family_instance(tag, rng)
            for L, M in ((2, 3), (3, 1), (4, 2), (5, 3), (9, 3), (12, 2)):
                z = cdraw(rng, M)
                psi = bf.assemble_eigenvector(h, z, L)
                _, scale = _assemble_python_powers(_PairTable(h, z[None]), L)
                assert psi.amp_scale == float(scale.max())

    def test_rows_do_not_depend_on_the_batch(self, rng):
        """Each root set's amplitudes and term maxima are those of the same
        root set assembled alone, bit for bit, over the whole sector and
        at each single position (a one-entry array, which numpy would
        multiply unfused in place), doubled sites included."""
        for tag in ("gB", "14V1", "gIK"):
            h, _ = family_instance(tag, rng)
            for L, M in ((2, 3), (3, 2), (4, 3), (5, 1)):
                Z = np.array([cdraw(rng, M) for _ in range(5)])
                table = _PairTable(h, Z)
                dim = len(bethe._sector_positions(L, M)[0])
                for rows in [slice(None)] + [[r] for r in range(dim)]:
                    vecs, amp = bethe._assemble(table, L, rows)
                    for i, z in enumerate(Z):
                        v1, a1 = bethe._assemble(_PairTable(h, z[None]), L,
                                                 rows)
                        assert v1.tobytes() == vecs[i:i + 1].tobytes()
                        assert a1.tobytes() == amp[i:i + 1].tobytes()

    def test_chunks_do_not_move_a_bit(self, rng, monkeypatch):
        """_assemble taken in chunks of ASSEMBLE_CHUNK entries equals the
        one-chunk pass bit for bit: chunks of one root set (also where a
        chunk holds fewer entries than one root set's positions), of two
        and of four, the last one partial, over the whole sector and over
        a few positions."""
        for tag in ("gB", "14V1", "gIK"):
            h, _ = family_instance(tag, rng)
            for L, M in ((3, 2), (4, 3), (6, 3), (5, 1)):
                table = _PairTable(h, np.array([cdraw(rng, M)
                                                for _ in range(11)]))
                for rows in (slice(None), [0, 2, 3]):
                    vecs, amp = bethe._assemble(table, L, rows)
                    n = vecs.shape[1]
                    assert vecs.size <= bethe.ASSEMBLE_CHUNK
                    for chunk in (1, n, 2 * n, 4 * n + 1):
                        with monkeypatch.context() as m:
                            m.setattr(bethe, "ASSEMBLE_CHUNK", chunk)
                            v1, a1 = bethe._assemble(table, L, rows)
                        assert v1.tobytes() == vecs.tobytes()
                        assert a1.tobytes() == amp.tobytes()

    def test_to_vector_rejects_other_length(self, rng):
        psi = bf.assemble_eigenvector(random_params(rng), cdraw(rng, 2), 4)
        with pytest.raises(ValueError, match="L=5"):
            psi.to_vector(5)

    def test_m1_plane_wave(self, rng):
        h = random_params(rng)
        L = 5
        z = np.exp(2j * np.pi / L)
        psi = bf.assemble_eigenvector(h, [z], L)
        for occ, val in zip(bf.sector_basis(L, 1), psi.vector):
            (x,) = _positions(occ)
            assert abs(val - z**x) < 1e-12
            assert abs(abs(val) - 1) < 1e-12

    def test_m2_eigenpair(self, rng):
        h, _ = family_instance("gZF", rng)
        L = 4
        Hs = bf.sector_matrix(h, L, 2)
        good = 0
        for s in bf.solve_bae(h, L, 2):
            psi = bf.assemble_eigenvector(h, s.z, L)
            if psi.is_null:
                continue
            res = bf.verify_eigenpair(Hs, psi.to_vector(L), s.energy)
            assert res <= 1e-8
            good += 1
        assert good >= 5

    def test_m3_eigenpairs_trivial_s(self, rng):
        h, _ = family_instance("14V2", rng)
        L, M = 4, 3
        Hs = bf.sector_matrix(h, L, M)
        scale = max(1.0, float(np.max(np.abs(Hs))))
        ev = np.linalg.eigvals(Hs)
        checked = 0
        for s in bf.solve_bae(h, L, M):
            psi = bf.assemble_eigenvector(h, s.z, L)
            if psi.is_null:
                continue
            assert bf.verify_eigenpair(Hs, psi.to_vector(L), s.energy) <= 1e-8
            assert np.min(np.abs(ev - s.energy)) <= 1e-8 * scale
            checked += 1
        assert checked >= 3

    def test_m3_eigenpairs_generic_family(self, rng):
        h, _ = family_instance("SpR", rng)
        L, M = 4, 3
        Hs = bf.sector_matrix(h, L, M)
        checked = 0
        for s in bf.solve_bae(h, L, M):
            psi = bf.assemble_eigenvector(h, s.z, L)
            if psi.is_null or s.degenerate_flag:
                continue
            assert bf.verify_eigenpair(Hs, psi.to_vector(L), s.energy) <= 1e-8
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_eigenpair_soundness_small_chains(self, tag, rng):
        """Every accepted solution assembles into a true eigenvector,
        L in {3, 4}, M in {1, 2}."""
        h, _ = family_instance(tag, rng)
        for L in (3, 4):
            for M in (1, 2):
                Hs = bf.sector_matrix(h, L, M)
                for s in bf.solve_bae(h, L, M):
                    psi = bf.assemble_eigenvector(h, s.z, L)
                    if psi.is_null:
                        continue
                    res = bf.verify_eigenpair(Hs, psi.to_vector(L), s.energy)
                    assert res <= 1e-8, (tag, L, M, s.z, res)

    def test_degenerate_roots_flagged(self, rng):
        h, _ = family_instance("17V1a", rng)
        L = 4
        z = np.exp(1j * np.pi / L)
        psi = _assert_matches_reference(h, [z, z], L)
        assert psi.degenerate_flag
        # coinciding roots of a trivial-S family produce the null vector
        assert psi.is_null

    def test_summation_order_irrelevant(self, rng):
        h, _ = family_instance("gIK", rng)
        L = 4
        sols = bf.solve_bae(h, L, 2)
        s = sols[0]
        psi = bf.assemble_eigenvector(h, s.z, L)
        for occ, val in zip(bf.sector_basis(L, 2), psi.vector):
            xs = _positions(occ)
            doubles = tuple(j for j in range(1) if xs[j + 1] == xs[j])
            resum = sum(bf.amplitude(h, s.z, sigma, doubles)
                        * s.z[sigma[0]]**xs[0] * s.z[sigma[1]]**xs[1]
                        for sigma in reversed(list(
                            itertools.permutations(range(2)))))
            assert abs(val - resum) < 1e-10 * max(1, abs(val))


def _reference_momentum(z, L):
    """The one-root-set momentum in Python complex arithmetic."""
    P = 1
    for w in z:
        P *= complex(w)
    if not cmath.isfinite(P):
        return None
    m = round(L * cmath.phase(P) / (2 * cmath.pi)) % L
    return m if abs(P - cmath.exp(2j * cmath.pi * m / L)) <= bethe.MOMENTUM_TOL else None


@functools.lru_cache(maxsize=None)
def _preset_solutions(name, L, M):
    h = bf.with_zero_v00(load_input(PRESETS / f"{name}.json"))
    return h, tuple(bf.solve_bae(h, L, M))



class TestMomenta:
    def test_batch_matches_one_row_reference(self):
        """The batched momenta equal the one-row Python reference for every
        root set of every preset at L = 3..12, M = 1..3."""
        count = 0
        for name in PRESET_NAMES:
            for L in range(3, 13):
                for M in (1, 2, 3):
                    sols = _preset_solutions(name, L, M)[1]
                    Z = np.array([s.z for s in sols], complex).reshape(-1, M)
                    want = [_reference_momentum(z, L) for z in Z]
                    got = bethe._momenta(Z, L)
                    assert [None if m < 0 else m for m in got.tolist()] \
                        == want, (name, L, M)
                    assert [bf.momentum(z, L) for z in Z] == want
                    count += len(Z)
        assert count > 20000

    def test_edge_cases(self):
        L = 4
        Z = np.array([[1j, 1j], [1.0, 1 + 1e-3], [np.inf, 1.0],
                      [np.nan, 1.0], [-1.0, 1.0]], complex)
        want = [_reference_momentum(z, L) for z in Z]
        assert want == [2, None, None, None, 2]
        assert bethe._momenta(Z, L).tolist() == [2, -1, -1, -1, 2]
        assert bethe._momenta(np.empty((3, 0), complex), L).tolist() == [0] * 3
        assert bf.momentum((), L) == 0


def _reference_checks(params, sols, H, L, tol_eig, scale):
    """The per-root-set loop that check_roots batches: one-row assembly over
    the whole sector and residual against the sector matrix, and a pairwise
    vdot scan for equivalent states, as (momentum, outcome, eig_residual,
    message) per root set.  A root set with no translation block is
    unverified before assembly."""
    out, kept = [], {}
    for sol in sols:
        m = bf.momentum(sol.z, L)
        if sol.degenerate_flag:
            out.append((m, "coincident", None, None))
            continue
        if m is None:
            P = complex(np.prod(np.asarray(sol.z, complex)))
            out.append((m, "unverified", None,
                        f"no translation block: prod z = {P} is not an "
                        "L-th root of unity"))
            continue
        try:
            psi = bf.assemble_eigenvector(params, sol.z, L)
        except ValueError as exc:
            out.append((m, "singular", None, str(exc)))
            continue
        if psi.is_null:
            out.append((m, "null", None, None))
            continue
        vec = psi.to_vector(L)
        res = bf.verify_eigenpair(H, vec, sol.energy)
        if not res <= tol_eig * scale:
            out.append((m, "unverified", res, None))
            continue
        unit = vec / np.linalg.norm(vec)
        seen = kept.setdefault(m, [])
        dup = any(abs(sol.energy - e0) <= tol_eig * scale
                  and 1 - abs(np.vdot(v0, unit)) <= 1e-6 for e0, v0 in seen)
        if not dup:
            seen.append((sol.energy, unit))
        out.append((m, "equivalent" if dup else "verified", res, None))
    return out


def _assert_checks_match_reference(params, sols, L, M):
    """check_roots on the block matrices of sector_spectrum gives the
    reference's momentum, outcome and message for every root set.  The
    block residual is that of the block vector built from the
    representatives, which equals the whole Bethe vector's up to its
    translation defect; for a BAE solution (judged by its BAE residual b
    recomputed here) the two residuals agree within b + 1e-12."""
    spec = bf.sector_spectrum(params, L, M)
    H = bf.sector_matrix(params, L, M)
    scale = float(np.max(np.abs(H))) or 1.0
    assert spec.scale == float(np.max(np.abs(H)))
    got = bethe.check_roots(params, sols, spec.blocks, L, 1e-8, scale)
    want = _reference_checks(params, sols, H, L, 1e-8, scale)
    assert len(got) == len(want)
    for sol, g, (m, outcome, res, msg) in zip(sols, got, want):
        assert (g.momentum, g.outcome, g.message) == (m, outcome, msg)
        if res is None:
            assert g.eig_residual is None
            continue
        b = bf.bae_residual(params, sol.z, L)
        if b <= bethe.BAE_TOL:
            assert abs(g.eig_residual - res) <= b + 1e-12
    return [g.outcome for g in got]


class TestCheckRoots:
    def test_singular_and_null_rows_in_one_batch(self, rng):
        """A block holding a singular root set, a null one, one that is no
        eigenvector and true Bethe states gives the outcomes and messages
        of one-row calls."""
        free = draw_free("14V1", rng)
        h = bf.construct("14V1", free, {"eps": 1})
        L, M = 4, 2
        sols = [s for s in bf.solve_bae(h, L, M) if not s.degenerate_flag]
        m = bf.momentum(sols[0].z, L)
        K = np.exp(2j * np.pi * m / L)
        taup = free["tp"] / free["p"]
        w, u = np.sqrt(K), cdraw(rng)

        def sol(z):
            return bethe.BetheSolution(tuple(z), bf.energy(h, z), 0.0)

        # z1 = tp/p makes Lambda singular; (w, w) cancels to the null vector
        # (flagged coincident by the solver, so it reaches assembly only
        # when built by hand)
        batch = ([sol([taup, K / taup])] + sols[:3] + [sol([w, w])]
                 + [sol([u, K / u])] + sols[3:])
        outcomes = _assert_checks_match_reference(h, batch, L, M)
        assert outcomes[0] == "singular" and outcomes[4] == "null"
        assert outcomes[5] == "unverified"
        assert outcomes[1] == "verified"      # sols[0], in block m
        assert {bf.momentum(batch[i].z, L) for i in (0, 4, 5)} == {m}
        with pytest.raises(ValueError) as exc:
            bf.assemble_eigenvector(h, batch[0].z, L)
        blocks = bf.sector_spectrum(h, L, M).blocks
        chk = bethe.check_roots(h, batch[:1], blocks, L, 1e-8, 1.0)[0]
        assert chk.message == str(exc.value)

    def test_root_set_with_no_block_is_unverified(self, rng):
        """A root set whose prod z is no L-th root of unity cannot solve the
        BAE: it is unverified with a message naming prod z and no residual,
        wherever it sits in the batch, and the sector does not pass."""
        h, _ = family_instance("gIK", rng)
        L, M = 5, 2
        sols = [s for s in bf.solve_bae(h, L, M) if not s.degenerate_flag]
        z = (1.1 + 0.2j, 0.7 - 0.4j)
        stray = bethe.BetheSolution(z, bf.energy(h, z), 0.0)
        batch = sols[:2] + [stray] + sols[2:]
        outcomes = _assert_checks_match_reference(h, batch, L, M)
        blocks = bf.sector_spectrum(h, L, M).blocks
        chk = bethe.check_roots(h, batch, blocks, L, 1e-8, 1.0)[2]
        assert (chk.momentum, chk.outcome, chk.eig_residual) \
            == (None, "unverified", None)
        assert str(complex(z[0] * z[1])) in chk.message
        assert outcomes[:2] == outcomes[3:5] == ["verified"] * 2

    @pytest.mark.parametrize("name, M", [
        ("izergin_korepin", 2), ("izergin_korepin", 3), ("bariev", 2),
        ("zamolodchikov_fateev", 2)])
    def test_equivalent_states_match_pairwise_scan(self, name, M):
        """The Gram-matrix dedup marks the same equivalent states as the
        pairwise scan.  The batch is a sector's root sets (L = 9, seed 0),
        none of them equivalent, and each again in reversed order, which is
        the same state, as a conjugate-like pair sorted the other way is.
        Every copy of a verified set is equivalent."""
        L = 9
        h = bf.with_zero_v00(load_input(PRESETS / f"{name}.json"))
        sols = bf.solve_bae(h, L, M)
        again = [bethe.BetheSolution(s.z[::-1], s.energy, s.bae_residual,
                                     s.degenerate_flag) for s in sols]
        outcomes = _assert_checks_match_reference(h, sols + again, L, M)
        first, second = outcomes[:len(sols)], outcomes[len(sols):]
        assert "verified" in first and "equivalent" not in first
        assert second == ["equivalent" if o == "verified" else o
                          for o in first]

    def test_equal_state_needs_a_kept_match(self):
        """One verified state three times, with energies 0.6 tol_eig apart:
        the second is equivalent to the first; the third is within tol_eig
        only of the second, which is not kept, so it is verified, as in the
        one-row loop."""
        L, M, tol = 5, 2, 1e-8
        h = bf.with_zero_v00(load_input(PRESETS / "izergin_korepin.json"))
        spec = bf.sector_spectrum(h, L, M)
        sols = bf.solve_bae(h, L, M)
        checks = bethe.check_roots(h, sols, spec.blocks, L, tol, 1.0)
        sol = next(s for s, c in zip(sols, checks) if c.outcome == "verified")
        batch = [bethe.BetheSolution(sol.z, sol.energy + d * tol, 0.0)
                 for d in (-0.6, 0.0, 0.6)]
        got = bethe.check_roots(h, batch, spec.blocks, L, tol, 1.0)
        want = _reference_checks(h, batch, bf.sector_matrix(h, L, M), L,
                                 tol, 1.0)
        assert [g.outcome for g in got] == [w[1] for w in want] \
            == ["verified", "equivalent", "verified"]

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_matches_one_row_loop(self, tag, rng):
        """Every family at L = 5, M = 1..3: the batched checks equal the
        one-row loop root set by root set."""
        h, _ = family_instance(tag, rng)
        L = 5
        for M in (1, 2, 3):
            sols = bf.solve_bae(h, L, M)
            _assert_checks_match_reference(h, sols, L, M)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_match_one_row_loop(self, name):
        """Every preset at L = 4 and L = 7, M = 0..3: the block checks give
        the whole-sector reference's outcomes."""
        for L in (4, 7):
            for M in range(4):
                h, sols = _preset_solutions(name, L, M)
                _assert_checks_match_reference(h, list(sols), L, M)

    def test_long_trivial_chain_matches_one_row_loop(self):
        """17V1a at L = 12, M = 1..3 (sector dimension up to 352)."""
        for M in (1, 2, 3):
            h, sols = _preset_solutions("17V1a", 12, M)
            _assert_checks_match_reference(h, list(sols), 12, M)

    @pytest.mark.parametrize("L, M", [(12, 2), (16, 2), (11, 3)])
    def test_bound_state_root_sets_match_whole_sector(self, L, M):
        """Root sets with a root well inside the unit circle, |z|^L < 1e-2
        (a bound-state pair), where psi's translation defect relative to
        its terms may be up to b / |z|^L for the absolute BAE residual b:
        on every such root set of the presets the block check gives the
        whole-sector outcome, and its residual lies within b + 1e-12."""
        verified = 0
        for name in PRESET_NAMES:
            h, sols = _preset_solutions(name, L, M)
            bound = [s for s in sols if min(abs(w) for w in s.z) ** L < 1e-2]
            if bound:
                outcomes = _assert_checks_match_reference(h, bound, L, M)
                verified += outcomes.count("verified")
        assert verified >= 20

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_sector_pass_equals_block_by_block(self, name):
        """check_roots on a whole sector gives every root set the momentum,
        outcome and message of check_roots called once per translation
        block on that block's root sets alone (and once on the coincident
        and blockless ones), and its eigenpair residual within 1e-13:
        L = 5, 7, 9 at M = 2, 3, and the trivial-S presets at L = 12 too."""
        sizes = [(L, M) for L in (5, 7, 9) for M in (2, 3)]
        if name in ("17V1a", "17V1b", "14V2"):
            sizes += [(12, 2), (12, 3)]
        for L, M in sizes:
            h, sols = _preset_solutions(name, L, M)
            spec = bf.sector_spectrum(h, L, M)
            got = bethe.check_roots(h, list(sols), spec.blocks, L, 1e-8,
                                    spec.scale)
            groups = {}
            for i, sol in enumerate(sols):
                groups.setdefault(bf.momentum(sol.z, L), []).append(i)
            for rows in groups.values():
                alone = bethe.check_roots(h, [sols[i] for i in rows],
                                          spec.blocks, L, 1e-8, spec.scale)
                for i, want in zip(rows, alone):
                    g = got[i]
                    assert (g.momentum, g.outcome, g.message) == \
                        (want.momentum, want.outcome, want.message)
                    if want.eig_residual is None:
                        assert g.eig_residual is None
                    else:
                        assert abs(g.eig_residual - want.eig_residual) \
                            <= 1e-13

    def test_entry_cap_checked_before_the_amplitude_table(self, monkeypatch):
        """The sector's amplitude table, root sets reaching assembly times
        orbits (120 x 21 at 17V1a, L = 10, M = 3), passes through the entry
        cap: one entry below it check_roots refuses before the table is
        built, and at it the checks are those of the default cap."""
        L, M = 10, 3
        h, sols = _preset_solutions("17V1a", L, M)
        spec = bf.sector_spectrum(h, L, M)
        live = sum(not s.degenerate_flag for s in sols)
        entries = live * len(bf.hamiltonian._orbit_table(L, M)[2])
        assert entries == 120 * 21
        want = bethe.check_roots(h, list(sols), spec.blocks, L, 1e-8, 1.0)
        assemble = bethe._assemble

        def no_table(*args):
            raise AssertionError("amplitude table built past the cap")

        monkeypatch.setattr(bethe, "_assemble", no_table)
        monkeypatch.setattr(bf.hamiltonian, "ENTRY_CAP", entries - 1)
        with pytest.raises(ValueError, match=f"chain too large: {entries} "
                           f"array entries at L={L}, M={M} exceed cap"):
            bethe.check_roots(h, list(sols), spec.blocks, L, 1e-8, 1.0)
        monkeypatch.setattr(bethe, "_assemble", assemble)
        monkeypatch.setattr(bf.hamiltonian, "ENTRY_CAP", entries)
        assert bethe.check_roots(h, list(sols), spec.blocks, L, 1e-8,
                                 1.0) == want

    def test_defect_gate_on_perturbed_bound_states(self):
        """Each preset's deepest bound-state root set at L = 16, M = 2
        (|z|^L < 1e-2), its smallest root scaled by 1 + eps, eps = 1e-15 ..
        1e-9, so that b runs from about 1e-9 to 1e-3: phi's residual alone
        would verify sets whose whole Bethe vector fails, and the
        translation defect gate turns them down, naming the defect.  Every
        set the block check verifies verifies in the whole sector."""
        L, M = 16, 2
        gated = 0
        for name in PRESET_NAMES:
            h, sols = _preset_solutions(name, L, M)
            bound = [s for s in sols if not s.degenerate_flag
                     and min(abs(w) for w in s.z) ** L < 1e-2]
            if not bound:
                continue
            z = np.array(min(bound, key=lambda s: min(abs(w) for w in s.z)).z)
            small = np.argmin(np.abs(z))
            spec = bf.sector_spectrum(h, L, M)
            H = bf.sector_matrix(h, L, M)
            for eps in np.logspace(-15, -9, 13):
                zz = z.copy()
                zz[small] *= 1 + eps
                sol = bethe.BetheSolution(tuple(zz), bf.energy(h, zz), 0.0)
                got, = bethe.check_roots(h, [sol], spec.blocks, L, 1e-8,
                                         spec.scale)
                (_, want, _, _), = _reference_checks(h, [sol], H, L, 1e-8,
                                                      spec.scale)
                if got.outcome == "verified":
                    assert want == "verified", (name, eps)
                elif got.eig_residual <= 1e-8:
                    assert got.message.startswith("translation defect")
                    gated += 1
        assert gated >= 5


class TestSecondVacuum:
    def test_conjugate_run_covers_opposite_sector(self, rng):
        """Eigenvectors built on the all-|2> vacuum (charge-conjugated run)
        land, after the vacuum-energy shift, in the original chain's
        opposite-charge sector; together the two vacua cover both ends."""
        h, _ = family_instance("14V2", rng)
        L, M = 4, 2
        hc = bf.apply_charge_conjugation(h)
        shift = L * hc.v[0, 0]
        hc0 = bf.with_zero_v00(hc)
        Hc = bf.sector_matrix(hc0, L, M)
        spec_opposite = bf.sector_spectrum(h, L, 2 * L - M)
        scale = max(1.0, float(np.max(np.abs(Hc))))
        verified = 0
        for s in bf.solve_bae(hc0, L, M):
            psi = bf.assemble_eigenvector(hc0, s.z, L)
            if psi.is_null:
                continue
            if bf.verify_eigenpair(Hc, psi.to_vector(L), s.energy) <= 1e-8:
                verified += 1
                dist = np.min(np.abs(spec_opposite.eigenvalues
                                     - (s.energy + shift)))
                assert dist <= 1e-8 * scale
        assert verified >= L * (L - 1) // 2


class TestVerifyEigenpair:
    def test_pseudo_vacuum(self, rng):
        h = bf.with_zero_v00(random_params(rng))
        Hs = bf.sector_matrix(h, 3, 0)
        assert bf.verify_eigenpair(Hs, np.ones(1, complex), 0.0) == 0

    def test_zero_vector_rejected(self, rng):
        Hs = bf.sector_matrix(random_params(rng), 3, 1)
        with pytest.raises(ValueError, match="null"):
            bf.verify_eigenpair(Hs, np.zeros(3, complex), 1.0)

    def test_shift_property(self, rng):
        h = random_params(rng)
        Hs = bf.sector_matrix(h, 3, 1)
        ev, vecs = np.linalg.eig(Hs)
        delta = 0.37
        res = bf.verify_eigenpair(Hs, vecs[:, 0], ev[0] + delta)
        assert abs(res - delta) < 1e-8
