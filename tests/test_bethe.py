"""Bethe-equation solving, eigenvector assembly, eigenpair verification."""

import itertools
from pathlib import Path

import numpy as np
import pytest

import bethe_forge as bf
from bethe_forge import bethe
from bethe_forge.bethe import SolverConfig
from bethe_forge.cli import load_input
from bethe_forge.constraints import _PairTable, lambda_fn, lambda_grad

from conftest import cdraw, draw_free, family_instance, random_params

PRESETS = Path(bf.__file__).parent / "presets"


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
    def test_matches_scalar_loop(self, tag, rng):
        """The batched residuals equal the scalar s_matrix loop row by row,
        M = 1..3: random points, solve_bae roots and, where S is not
        identically -1, a singular point (inf on both sides)."""
        h, _ = family_instance(tag, rng)
        L = 5
        cfg = SolverConfig(random_seeds=10, max_iter=40)
        for M in (1, 2, 3):
            rows = [cdraw(rng, M) for _ in range(8)]
            rows += [s.z for s in bf.solve_bae(h, L, M, cfg)][:8]
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
        a = bf.solve_bae(h, 4, 2, SolverConfig(seed=7))
        b = bf.solve_bae(h, 4, 2, SolverConfig(seed=7))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.z == y.z


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


def _reference_newton(params, Z0, L, cfg):
    """Damped Newton over the whole batch every iteration, with a sequential
    line search of up to 25 damped trials; returns the converged rows."""
    Z = np.array(Z0, complex)
    n, M = Z.shape
    sign = (-1.0) ** (M - 1)

    def resnorm(Zc):
        F = _reference_system(params, Zc, L, sign)
        scale = np.maximum(1.0, np.max(np.abs(Zc), axis=1)**L)
        r = np.max(np.abs(F), axis=1) / scale
        return F, r

    F, res = resnorm(Z)
    active = np.isfinite(res)
    converged = np.zeros(n, bool)

    for _ in range(cfg.max_iter):
        hit = active & (res <= bethe.NEWTON_TOL)
        converged |= hit
        active &= ~hit
        if not active.any():
            break
        J = _reference_jacobian(params, Z, L, sign)
        det = np.linalg.det(J)
        bad = active & (~np.isfinite(det) | (np.abs(det) == 0))
        active &= ~bad
        if not active.any():
            break
        step = np.zeros_like(Z)
        idx = np.where(active)[0]
        try:
            step[idx] = np.linalg.solve(J[idx], -F[idx, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for i in idx:
                try:
                    step[i] = np.linalg.solve(J[i], -F[i])
                except np.linalg.LinAlgError:
                    active[i] = False
        if not active.any():
            break
        damp = np.ones(n)
        trial, rt = None, None
        for _ in range(25):
            trial = Z + damp[:, None] * step
            Ft, rt = resnorm(trial)
            worse = active & ~(rt < res) & (damp > 1e-8)
            if not worse.any():
                break
            damp[worse] *= bethe.DAMPING
        stuck = active & ~(rt < res)
        active &= ~stuck
        upd = active
        Z[upd] = trial[upd]
        F[upd] = Ft[upd]
        res[upd] = rt[upd]
    hit = active & (res <= bethe.NEWTON_TOL)
    converged |= hit
    return Z[converged]


class TestNewtonMatchesReference:
    CFG = SolverConfig(random_seeds=20, max_iter=40)

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_same_roots_as_reference(self, tag, rng, monkeypatch):
        """solve_bae over the pair-table Newton with its batched line search
        returns the same root sets, bit for bit, as over the per-pair loop
        with the sequential line search.  Newton also runs for the trivial-S
        families here, which solve_bae otherwise answers without it."""
        h, _ = family_instance(tag, rng)
        monkeypatch.setattr(bethe, "_is_trivial_s", lambda *args: False)
        for L in (4, 5):
            for M in (2, 3):
                got = bf.solve_bae(h, L, M, self.CFG)
                with monkeypatch.context() as mp:
                    mp.setattr(bethe, "_newton_batch", _reference_newton)
                    ref = bf.solve_bae(h, L, M, self.CFG)
                assert got
                assert ([(s.z, s.bae_residual) for s in got]
                        == [(s.z, s.bae_residual) for s in ref])


def _reference_distinct(sets):
    """The all-pairs duplicate scan: each set against every kept one."""
    kept, out = [], []
    for i, zs in enumerate(sets):
        if any(bethe._same(zs, prev) for prev in kept):
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
        """Near-duplicates straddling DEDUP_TOL, and sets whose first roots
        share a real part but differ elsewhere."""
        base = [tuple(cdraw(rng, 3)) for _ in range(30)]
        base += [(b[0].real + 1j * rng.uniform(-1, 1),) + b[1:] for b in base]
        sets = []
        for _ in range(400):
            b = base[rng.integers(len(base))]
            step = 0.8 * bethe.DEDUP_TOL * rng.uniform(-1, 1, (3, 2))
            sets.append(tuple(z + complex(*d) for z, d in zip(b, step)))
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
                for z, vec, norm, scale in zip(Z, vecs, norms, amp):
                    _assert_matches_reference(h, z, L)
                    batch_row = bethe.SectorEigenvector(
                        M, vec, norm, scale, bethe._coincident(z))
                    _assert_matches_reference(h, z, L, batch_row)

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
        cfg = SolverConfig(random_seeds=150)
        Hs = bf.sector_matrix(h, L, M)
        checked = 0
        for s in bf.solve_bae(h, L, M, cfg):
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
        cfg = SolverConfig(seed=1, random_seeds=30)
        for L in (3, 4):
            for M in (1, 2):
                Hs = bf.sector_matrix(h, L, M)
                for s in bf.solve_bae(h, L, M, cfg):
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


def _reference_checks(params, sols, H, L, tol_eig, scale):
    """The per-root-set loop that check_roots batches: one-row assembly and
    residual, and a pairwise vdot scan for equivalent states, as
    (momentum, outcome, eig_residual, message) per root set."""
    out, kept = [], {}
    for sol in sols:
        m = bf.momentum(sol.z, L)
        if sol.degenerate_flag:
            out.append((m, "coincident", None, None))
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
        if not res <= tol_eig:
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


def _assert_checks_match_reference(params, sols, H, L):
    scale = float(np.max(np.abs(H))) or 1.0
    got = bethe.check_roots(params, sols, H, L, 1e-8, scale)
    want = _reference_checks(params, sols, H, L, 1e-8, scale)
    assert len(got) == len(want)
    for g, (m, outcome, res, msg) in zip(got, want):
        assert (g.momentum, g.outcome, g.message) == (m, outcome, msg)
        if res is None:
            assert g.eig_residual is None
        else:
            assert abs(g.eig_residual - res) <= 1e-12 * max(1.0, res)
    return [g.outcome for g in got]


class TestCheckRoots:
    def test_singular_and_null_rows_in_one_batch(self, rng):
        """A block holding a singular root set, a null one, one that is no
        eigenvector and true Bethe states gives the outcomes and messages
        of one-row calls."""
        free = draw_free("14V1", rng)
        h = bf.construct("14V1", free, {"eps": 1})
        L, M = 4, 2
        H = bf.sector_matrix(h, L, M)
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
        outcomes = _assert_checks_match_reference(h, batch, H, L)
        assert outcomes[0] == "singular" and outcomes[4] == "null"
        assert outcomes[5] == "unverified"
        assert outcomes[1] == "verified"      # sols[0], in block m
        assert {bf.momentum(batch[i].z, L) for i in (0, 4, 5)} == {m}
        with pytest.raises(ValueError) as exc:
            bf.assemble_eigenvector(h, batch[0].z, L)
        chk = bethe.check_roots(h, batch[:1], H, L, 1e-8, 1.0)[0]
        assert chk.message == str(exc.value)

    @pytest.mark.parametrize("name, M", [
        ("izergin_korepin", 2), ("izergin_korepin", 3), ("bariev", 2),
        ("zamolodchikov_fateev", 2)])
    def test_equivalent_states_match_pairwise_scan(self, name, M):
        """The Gram-matrix dedup marks the same equivalent states as the
        pairwise scan, on sectors that have some (L = 7, seed 0)."""
        L = 7
        h = bf.with_zero_v00(load_input(PRESETS / f"{name}.json"))
        H = bf.sector_matrix(h, L, M)
        sols = bf.solve_bae(h, L, M, SolverConfig(seed=0))
        outcomes = _assert_checks_match_reference(h, sols, H, L)
        assert "equivalent" in outcomes

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_matches_one_row_loop(self, tag, rng):
        """Every family at L = 5, M = 1..3: the batched checks equal the
        one-row loop root set by root set."""
        h, _ = family_instance(tag, rng)
        L = 5
        for M in (1, 2, 3):
            H = bf.sector_matrix(h, L, M)
            sols = bf.solve_bae(h, L, M, SolverConfig(random_seeds=20))
            _assert_checks_match_reference(h, sols, H, L)


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
