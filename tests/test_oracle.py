"""Dense reference spectra and spectrum matching."""

import cmath
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bethe_forge as bf
from bethe_forge.bethe import BetheSolution
from bethe_forge.cli import load_input

from conftest import (annulus, cdraw, family_instance, match_multiset,
                      random_params, take_nearest)

PRESETS_DIR = Path(bf.__file__).parent / "presets"
PRESETS = sorted(PRESETS_DIR.glob("*.json"))
# the presets without s1 and s2, which never lower the number of 2s
GRADED_PRESETS = {"14V1", "14V2", "17V1a", "17V1b", "17V2"}


class TestSectorMatrix:
    def test_chain_length_guard(self, rng, monkeypatch):
        """The size guard refuses L < 2, M = 3 at L = 31 and M = 1 at
        L = 171 (dim L^2 past the work cap) before the basis is built."""
        def no_basis(*args):
            raise AssertionError("sector basis built past the guard")

        h = random_params(rng)
        monkeypatch.setattr(bf.oracle, "_sector_occupations", no_basis)
        for L, M in ((1, 1), (31, 3), (171, 1)):
            with pytest.raises(ValueError, match="chain"):
                bf.sector_matrix(h, L, M)

    def test_vacuum_sector(self, rng):
        h = bf.with_zero_v00(random_params(rng))
        m = bf.sector_matrix(h, 4, 0)
        assert m.shape == (1, 1) and m[0, 0] == 0

    def test_m1_structure(self, rng):
        """The one-excitation block: diagonal v-sums plus p/q hopping."""
        h = random_params(rng)
        L = 4
        m = bf.sector_matrix(h, L, 1)
        basis = bf.sector_basis(L, 1)
        assert m.shape == (L, L)
        pos = [s.index(1) for s in basis]
        for i, si in enumerate(basis):
            diag = sum(h.v[si[b], si[(b + 1) % L]] for b in range(L))
            assert abs(m[i, i] - diag) < 1e-12
            for j, sj in enumerate(basis):
                if i == j:
                    continue
                d = (pos[i] - pos[j]) % L
                if d == 1:
                    assert m[i, j] == h.p      # excitation hops right
                elif d == L - 1:
                    assert m[i, j] == h.q      # excitation hops left
                else:
                    assert m[i, j] == 0

    def test_block_sum_dimensions(self, rng):
        h = random_params(rng)
        L = 3
        assert sum(bf.sector_matrix(h, L, M).shape[0]
                   for M in range(2 * L + 1)) == 3**L

    def test_restriction_of_full_chain(self, rng):
        h = random_params(rng)
        L = 3
        H = bf.chain_matrix(h, L)
        states = list(np.ndindex(3, 3, 3))
        for M in (1, 2, 3):
            idx = [i for i, s in enumerate(states) if sum(s) == M]
            assert np.array_equal(bf.sector_matrix(h, L, M),
                                  H[np.ix_(idx, idx)])


class TestSectorSpectrum:
    def test_vacuum(self, rng):
        h = bf.with_zero_v00(random_params(rng))
        spec = bf.sector_spectrum(h, 4, 0)
        assert spec.dimension == 1 and abs(spec.eigenvalues[0]) == 0

    def test_gzf_m1_matches_bethe_energies(self, rng):
        h, _ = family_instance("gZF", rng)
        L = 3
        spec = bf.sector_spectrum(h, L, 1)
        expect = [bf.energy(h, [np.exp(2j * np.pi * n / L)]) for n in range(L)]
        got = np.sort_complex(spec.eigenvalues)
        want = np.sort_complex(np.array(expect))
        assert np.max(np.abs(got - want)) < 1e-10 * max(1, np.max(np.abs(want)))

    def test_block_structure(self, rng):
        for _ in range(3):
            h = random_params(rng)
            L = 3
            full = np.linalg.eigvals(bf.chain_matrix(h, L))
            blocks = np.concatenate([
                bf.sector_spectrum(h, L, M).eigenvalues
                for M in range(2 * L + 1)])
            a = np.sort_complex(full)
            b = np.sort_complex(blocks)
            assert np.max(np.abs(a - b)) < 1e-9 * max(1, np.max(np.abs(a)))

    def test_similarity_sanity(self, rng):
        h = random_params(rng)
        L, M = 4, 2
        ref = np.sort_complex(bf.sector_spectrum(h, L, M).eigenvalues)
        scale = max(1.0, float(np.max(np.abs(ref))))
        for hx in (bf.apply_gauge(h, cdraw(rng, 3)),
                   bf.apply_telescopic(h, cdraw(rng, 3))):
            ev = np.sort_complex(bf.sector_spectrum(hx, L, M).eigenvalues)
            assert np.max(np.abs(ev - ref)) < 1e-9 * scale


    def test_work_cap_checked_before_the_basis(self, rng, monkeypatch):
        """M = 3 at L = 31 and M = 1 at L = 171 are small sectors (dim
        5,425 and 171) whose orbit table, L shifts of the dim x L basis,
        is past the work cap: sector_spectrum refuses them before the
        basis is built.  One site less, both fit."""
        def no_basis(*args):
            raise AssertionError("sector basis built past the guard")

        monkeypatch.setattr(bf.hamiltonian, "_sector_occupations", no_basis)
        for L, M in ((31, 3), (171, 1)):
            with pytest.raises(ValueError, match="times L\\^2 at "
                               f"L={L}, M={M} exceeds cap 5000000"):
                bf.sector_spectrum(random_params(rng), L, M)
            bf.check_chain(L - 1, M)


    def test_entry_cap_checked_before_the_arrays(self, rng, monkeypatch):
        """L = 11, M = 9 (dim 19,855) passes the work cap, but its 1,805
        orbits would need a (k, k, L) block table, and (k, dim)
        representative rows, of 35.8 million entries: sector_spectrum
        refuses it before the rows are built.  So it refuses the seven
        sectors of more than 20,000 states that pass the work cap, all
        with M > 3.  sector_matrix refuses M = 3 at L = 26 (dim 3,250,
        10.6 million entries dense).  Every sector the CLI admits (M <= 3
        up to L = 30, M = 2 to 55, M = 1 to 170) stays within the cap."""
        def no_rows(*args):
            raise AssertionError("rows built past the guard")

        h = random_params(rng)
        monkeypatch.setattr(bf.hamiltonian, "_apply_bonds", no_rows)
        with pytest.raises(ValueError, match="chain too large: 35838275 "
                           "array entries at L=11, M=9 exceed cap 10000000"):
            bf.sector_spectrum(h, 11, 9)
        for L, M in ((11, 10), (11, 11), (11, 12), (12, 8), (12, 16),
                     (13, 7), (13, 19)):
            assert bf.hamiltonian.sector_dimension(L, M) > 20_000
            bf.check_chain(L, M)
            with pytest.raises(ValueError, match="array entries at "
                               f"L={L}, M={M} exceed cap 10000000"):
                bf.sector_spectrum(h, L, M)
        monkeypatch.setattr(bf.oracle, "_sector_occupations", no_rows)
        with pytest.raises(ValueError, match="10562500 array entries at "
                           "L=26, M=3 exceed"):
            bf.sector_matrix(h, 26, 3)
        bf.check_chain(25, 3, dense=True)
        monkeypatch.setattr(bf.hamiltonian, "_apply_bonds",
                            lambda *args: "built")
        for L, M in ((30, 3), (55, 2), (170, 1)):
            assert bf.hamiltonian._representative_rows(h, L, M) == "built"


class TestStackCap:
    def test_entry_cap_covers_the_padded_stack(self, monkeypatch):
        """The block stack of 17V1a at L = 9, M = 3 (18 orbits, all in
        block 0, so 9 x 18 x 18 entries whatever the smaller blocks
        hold): one entry below the cap sector_spectrum refuses it before
        the rows or the stack are built, and at the cap it gives the
        spectrum of the default cap, bit for bit."""
        h = load_input(PRESETS_DIR / "17V1a.json")
        L, M = 9, 3
        want = bf.sector_spectrum(h, L, M)
        sizes = want.blocks.size
        assert len(set(sizes.tolist())) > 1
        entries = L * want.blocks.B.shape[1] ** 2
        assert want.blocks.B.shape == (L, sizes.max(), sizes.max())
        assert entries == 9 * 18 * 18
        stack, rows = bf.oracle._block_stack, bf.hamiltonian._apply_bonds

        def refuse(*args):
            raise AssertionError("built past the cap")

        monkeypatch.setattr(bf.oracle, "_block_stack", refuse)
        monkeypatch.setattr(bf.hamiltonian, "_apply_bonds", refuse)
        monkeypatch.setattr(bf.hamiltonian, "ENTRY_CAP", entries - 1)
        with pytest.raises(ValueError, match=f"chain too large: {entries} "
                           f"array entries at L={L}, M={M} exceed cap"):
            bf.sector_spectrum(h, L, M)
        monkeypatch.setattr(bf.oracle, "_block_stack", stack)
        monkeypatch.setattr(bf.hamiltonian, "_apply_bonds", rows)
        monkeypatch.setattr(bf.hamiltonian, "ENTRY_CAP", entries)
        got = bf.sector_spectrum(h, L, M)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.blocks.B.tobytes() == want.blocks.B.tobytes()


def _take_nearest(pool, taken, v, tol):
    """The matching rule on one pool with a taken mask: take the entry of
    pool nearest to v among those not yet taken, the first of equals, if it
    lies within tol; a NaN distance takes nothing.  Return whether one was
    taken."""
    if not pool.size:
        return False
    d = v - pool
    dist = np.hypot(d.real, d.imag)
    dist[taken | np.isnan(dist)] = np.inf
    k = int(np.argmin(dist))
    if np.isinf(dist[k]) or dist[k] > tol:
        return False
    taken[k] = True
    return True


def _reference_compare(cba_solutions, ed, tol=1e-8, scale=1.0):
    """compare as one greedy loop over the root sets, one pool per block:
    (matched, unmatched energies, uncovered counts per block)."""
    pools = [ed.eigenvalues[ed.momenta == m] for m in range(ed.L)]
    taken = [np.zeros(len(p), bool) for p in pools]
    unmatched = []
    for sol in cba_solutions:
        m = bf.momentum(sol.z, ed.L)
        if m is None or not _take_nearest(pools[m], taken[m], sol.energy,
                                          tol * scale):
            unmatched.append(sol.energy)
    return (len(cba_solutions) - len(unmatched), unmatched,
            [len(t) - int(np.count_nonzero(t)) for t in taken])


def _assert_compare_matches_reference(sols, ed, tol, scale=1.0):
    rep = bf.compare(sols, ed, tol=tol, scale=scale)
    matched, unmatched, uncovered = _reference_compare(sols, ed, tol, scale)
    assert rep.matched == matched
    assert np.array_equal(rep.unmatched, unmatched, equal_nan=True)
    assert [type(e) for e in rep.unmatched] == [type(e) for e in unmatched]
    assert rep.uncovered == uncovered
    return rep


class TestCompare:
    def _sols(self, energies):
        return [BetheSolution((1.0,), e, 0.0) for e in energies]

    def test_identical_lists(self):
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([1.0, 2.0, 3.0 + 1j]),
                               dimension=3, momenta=np.zeros(3, int), L=3)
        rep = bf.compare(self._sols([1.0, 2.0, 3.0 + 1j]), ed, tol=1e-10)
        assert rep.matched == 3 and not rep.unmatched
        assert rep.coverage == 1.0

    def test_corrupted_energy_reported(self):
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([1.0, 2.0]), dimension=2,
                               momenta=np.zeros(2, int), L=2)
        rep = bf.compare(self._sols([1.0, 5.0]), ed, tol=1e-8)
        assert rep.matched == 1
        assert rep.unmatched == [5.0]

    def test_multiplicity_consumed_once(self):
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([1.0, 1.0]), dimension=2,
                               momenta=np.zeros(2, int), L=2)
        rep = bf.compare(self._sols([1.0, 1.0, 1.0]), ed, tol=1e-8)
        assert rep.matched == 2
        assert len(rep.unmatched) == 1

    def test_energy_in_other_block_unmatched(self):
        """An energy present only in another block does not match; the
        block's own eigenvalue stays uncovered."""
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([1.0, 2.0]), dimension=2,
                               momenta=np.array([0, 1]), L=2)
        rep = bf.compare(self._sols([2.0]), ed, tol=1e-8)
        assert rep.matched == 0
        assert rep.unmatched == [2.0]
        assert rep.uncovered == [1, 1]

    def test_matches_list_based_matching(self):
        """The taken-mask match gives the list-based rule's matched count,
        unmatched energies in order and uncovered counts: eigenvalues and
        energies on a half-integer grid (exact ties, each taken by the
        first of equals, and repeated eigenvalues), NaN and infinite
        energies, and root sets with no block."""
        rng = np.random.default_rng(11)
        L = 3
        blocks = [(np.exp(2j * np.pi * m / L),) for m in range(L)]
        for _ in range(20):
            n = int(rng.integers(0, 25))
            eig = rng.integers(-3, 4, n) + 1j * rng.integers(-2, 3, n)
            ed = bf.SectorSpectrum(M=1, eigenvalues=eig.astype(complex),
                                   dimension=n, momenta=rng.integers(0, L, n),
                                   L=L)
            energies = (rng.integers(-6, 8, 30) / 2
                        + 1j * rng.integers(-4, 5, 30) / 2)
            sols = [BetheSolution(blocks[m], complex(e), 0.0) for m, e in
                    zip(rng.integers(0, L, 30), energies)]
            sols += [BetheSolution(blocks[0], complex("nan"), 0.0),
                     BetheSolution(blocks[1], complex(np.inf, 0), 0.0),
                     BetheSolution((1.3 + 0.2j,), 0j, 0.0)]
            order = rng.permutation(len(sols))
            sols = [sols[i] for i in order]
            rep = bf.compare(sols, ed, tol=0.5, scale=2.0)
            pools = [list(eig[ed.momenta == m]) for m in range(L)]
            unmatched = [s.energy for s in sols
                         if bf.momentum(s.z, L) is None
                         or not take_nearest(pools[bf.momentum(s.z, L)],
                                             s.energy, 1.0)]
            assert rep.matched == len(sols) - len(unmatched)
            assert np.array_equal(rep.unmatched, unmatched, equal_nan=True)
            assert rep.uncovered == [len(p) for p in pools]

    def test_matches_reference_greedy_loop(self):
        """The one-pass match gives the greedy loop's matched count,
        unmatched energies in order and uncovered counts on hand-built
        pools: degenerate eigenvalues (up to four copies), energies at
        equal distance from two eigenvalues, many energies naming the same
        nearest eigenvalue (so the fallback rule runs, and passes later
        rows on to it), NaN and infinite energies, root sets with no
        block and empty blocks.  A NaN energy takes no eigenvalue and is
        unmatched."""
        rng = np.random.default_rng(20)
        L = 4
        roots = [(np.exp(2j * np.pi * m / L),) for m in range(L)]
        fallbacks = 0
        for trial in range(200):
            n = int(rng.integers(0, 16))
            eig = np.repeat(rng.integers(-2, 3, n) + 1j * rng.integers(-1, 2, n),
                            rng.integers(1, 5, n)).astype(complex)
            mom = rng.integers(0, L - 1, len(eig))   # block L - 1 is empty
            ed = bf.SectorSpectrum(M=1, eigenvalues=eig, dimension=len(eig),
                                   momenta=mom, L=L)
            k = int(rng.integers(0, 40))
            energies = (rng.integers(-6, 7, k) / 2
                        + 1j * rng.integers(-3, 4, k) / 2)
            sols = [BetheSolution(roots[m], complex(e), 0.0) for m, e in
                    zip(rng.integers(0, L, k), energies)]
            sols += [BetheSolution(roots[0], complex("nan"), 0.0),
                     BetheSolution(roots[1], complex(np.inf, 0), 0.0),
                     BetheSolution(roots[2], complex(np.nan, np.inf), 0.0),
                     BetheSolution((1.3 + 0.2j,), 0j, 0.0)]
            sols = [sols[i] for i in rng.permutation(len(sols))]
            tol = (0.5, 0.75, 1.0, 2.0)[trial % 4]
            rep = _assert_compare_matches_reference(sols, ed, tol=tol,
                                                    scale=1.0)
            assert sum(map(cmath.isnan, rep.unmatched)) == 2
            # rows whose nearest eigenvalue an earlier row named
            blocks = [bf.momentum(s.z, L) for s in sols]
            named = {}
            for s, m in zip(sols, blocks):
                pool = np.flatnonzero(mom == m) if m is not None else []
                if len(pool):
                    d = np.abs(s.energy - eig[pool])
                    if d.min() <= tol:
                        j = pool[int(np.argmin(d))]
                        fallbacks += j in named
                        named[j] = True
        assert fallbacks > 100

    def test_fallback_passes_a_later_row_on(self):
        """Energies 0, 0 and 1 against eigenvalues 0 and 1, tol 2: the
        second 0 finds 0 taken and takes 1, the nearest eigenvalue of the
        third energy, which then finds both taken."""
        ed = bf.SectorSpectrum(M=1, eigenvalues=np.array([0j, 1 + 0j]),
                               dimension=2, momenta=np.zeros(2, int), L=1)
        rep = _assert_compare_matches_reference(
            self._sols([0j, 0j, 1 + 0j]), ed, tol=2.0)
        assert (rep.matched, rep.unmatched, rep.uncovered) == (2, [1 + 0j], [0])

    @pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.stem)
    def test_sector_matches_reference(self, path):
        """verify_sector's match equals the greedy loop over its verified
        root sets, at L = 5..9, M = 0..3."""
        h = bf.with_zero_v00(load_input(path))
        for L in range(5, 10):
            for M in range(4):
                rep = bf.verify_sector(h, L, M, bf.bethe.BAE_TOL, 1e-8)
                spec = bf.sector_spectrum(h, L, M)
                verified = [s for s, c in zip(rep.solutions, rep.checks)
                            if c.outcome == "verified"]
                want = _reference_compare(verified, spec, 1e-8,
                                          spec.scale or 1.0)
                assert (rep.matched, rep.unmatched, rep.uncovered) == want

    def test_m1_full_coverage(self, rng):
        h, _ = family_instance("SpR", rng)
        L = 4
        sols = bf.solve_bae(h, L, 1)
        spec = bf.sector_spectrum(h, L, 1)
        scale = float(np.max(np.abs(bf.sector_matrix(h, L, 1))))
        rep = bf.compare(sols, spec, tol=1e-10, scale=scale)
        assert rep.matched == L and rep.coverage == 1.0

    def test_cba_subset_of_ed(self, rng):
        for tag in ("gIK", "17V2"):
            h, _ = family_instance(tag, rng)
            L = 4
            spec = bf.sector_spectrum(h, L, 2)
            Hs = bf.sector_matrix(h, L, 2)
            scale = max(1.0, float(np.max(np.abs(Hs))))
            accepted = []
            for s in bf.solve_bae(h, L, 2):
                psi = bf.assemble_eigenvector(h, s.z, L)
                if psi.is_null:
                    continue
                if bf.verify_eigenpair(Hs, psi.to_vector(L), s.energy) <= 1e-8:
                    accepted.append(s)
            rep = bf.compare(accepted, spec, tol=1e-8, scale=scale)
            assert rep.matched == len(accepted)
            assert not rep.unmatched


class TestVerifySector:
    def test_vacuum(self, rng):
        """M = 0 runs the same path: one empty root set, verified and
        matched to the one zero eigenvalue."""
        h = bf.with_zero_v00(random_params(rng))
        rep = bf.verify_sector(h, 5, 0, bf.bethe.BAE_TOL, 1e-8)
        assert [s.z for s in rep.solutions] == [()]
        assert [(c.momentum, c.outcome, c.eig_residual) for c in rep.checks] \
            == [(0, "verified", 0.0)]
        assert (rep.dimension, rep.matched, rep.coverage) == (1, 1, 1.0)
        assert rep.uncovered == [0] * 5
        assert rep.passed and rep.max_eig_residual == 0.0

    @pytest.mark.parametrize("tag", ["gIK", "17V2", "14V2"])
    def test_counts_follow_the_checks(self, tag, rng):
        """The report's counts are those of its RootChecks, and the verified
        root sets are exactly what compare matched."""
        h, _ = family_instance(tag, rng)
        L, M, tol = 5, 2, 1e-8
        rep = bf.verify_sector(h, L, M, bf.bethe.BAE_TOL, tol)
        assert len(rep.checks) == len(rep.solutions) > 0
        outcomes = [c.outcome for c in rep.checks]
        assert rep.count("verified") == outcomes.count("verified")
        verified = [s for s, o in zip(rep.solutions, outcomes)
                    if o == "verified"]
        spec = bf.sector_spectrum(h, L, M)
        ref = bf.compare(verified, spec, tol=tol,
                         scale=float(np.max(np.abs(bf.sector_matrix(h, L, M)))))
        assert (rep.matched, rep.unmatched, rep.uncovered) \
            == (ref.matched, ref.unmatched, ref.uncovered)
        assert rep.max_eig_residual == max(
            [0.0] + [c.eig_residual for c in rep.checks
                     if c.eig_residual is not None])
        assert rep.passed == ("unverified" not in outcomes
                              and not rep.unmatched)


    @pytest.mark.parametrize("name, matched", [
        ("gB", [6, 21, 45]), ("17V1a", [6, 15, 20]),
        ("izergin_korepin", [6, 18, 25]), ("gZF", [6, 21, 35]),
    ])
    def test_constant_shift_is_harmless(self, name, matched):
        """H + c * Identity verifies as H, sector by sector (M = 1..3 at
        L = 6): verify_sector measures the Bethe energies and the block
        spectra alike from the pseudo-vacuum, with_zero_v00(H)."""
        h = load_input(PRESETS_DIR / f"{name}.json")
        for c in (0, 0.7, -1.3 + 0.4j, 25j):
            hc = h.replace(v=h.v + c)
            reps = [bf.verify_sector(hc, 6, M, bf.bethe.BAE_TOL, 1e-8)
                    for M in (1, 2, 3)]
            assert [rep.matched for rep in reps] == matched, c
            assert all(rep.passed for rep in reps), c


class TestNoDenseSector:
    @pytest.mark.parametrize("tag", ["gIK", "17V1a"])
    def test_verify_sector_builds_only_representative_rows(
            self, tag, rng, monkeypatch):
        """verify_sector never builds the sector matrix: with sector_matrix
        raising, no array that _apply_bonds returns has more rows than the
        sector has translation orbits, for a Newton family (gIK) and a
        trivial-S one (17V1a), L = 5, M = 0..3."""
        h, _ = family_instance(tag, rng)
        L, built = 5, []
        apply_bonds = bf.hamiltonian._apply_bonds

        def no_dense(*args):
            raise AssertionError("sector_matrix called")

        def rows_only(*args):
            out = apply_bonds(*args)
            built.append(out.shape)
            return out

        monkeypatch.setattr(bf.oracle, "sector_matrix", no_dense)
        monkeypatch.setattr(bf.hamiltonian, "_apply_bonds", rows_only)
        for M in range(4):
            del built[:]
            orbits = len(bf.hamiltonian._orbit_table(L, M)[2])
            rep = bf.verify_sector(h, L, M, bf.bethe.BAE_TOL, 1e-8)
            assert rep.passed and rep.matched, M
            assert built and all(n <= orbits for n, _ in built), (M, built)


def _blocks(stack):
    """Block m of a BlockStack for m = 0..L-1, as (orbit indices, matrix),
    cut to its orbits; its size is checked to count them, and its entries
    off them to be 0."""
    out = []
    for inside, B, k in zip(stack.inside, stack.B, stack.size.tolist()):
        idx = np.flatnonzero(inside)
        assert len(idx) == k
        assert not B[~inside].any() and not B[:, ~inside].any()
        out.append((idx, B[np.ix_(idx, idx)]))
    return out


class TestRepresentativeRows:
    """The rows built at the orbit representatives, and the block matrices
    read from them, equal those of the dense sector matrix byte for byte."""

    @staticmethod
    def _assert_same_blocks(h, L, M):
        reps = bf.hamiltonian._orbit_table(L, M)[2]
        dense = bf.sector_matrix(h, L, M)
        rows = bf.hamiltonian._representative_rows(h, L, M)
        assert rows.tobytes() == dense[reps].tobytes(), (L, M)
        got = bf.oracle._block_stack(rows, L, M)
        want = bf.oracle._block_stack(dense[reps], L, M)
        assert np.array_equal(got.size, want.size)
        for m, ((ia, a), (ib, b)) in enumerate(zip(_blocks(got),
                                                   _blocks(want))):
            assert np.array_equal(ia, ib)
            assert a.tobytes() == b.tobytes(), (L, M, m)
        spec = bf.sector_spectrum(h, L, M)
        assert spec.scale == float(np.max(np.abs(dense)))
        assert spec.dimension == len(dense)

    @pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.stem)
    def test_preset_sectors(self, path):
        h = load_input(path)
        for L in range(2, 10):
            for M in range(4):
                self._assert_same_blocks(h, L, M)

    @pytest.mark.parametrize("M", [1, 2])
    def test_long_chain_sectors(self, M):
        self._assert_same_blocks(load_input(PRESETS[0]), 41, M)


def _momentum_basis(L, M, m):
    """Columns sum_{d < p} e^{-2 pi i m d / L} T^d |r> / sqrt(p), T the left
    shift s -> s[1:] + s[:1], over the orbits whose period p has
    m p = 0 mod L; r is an orbit's first state in sector_basis order.  Built
    state by state from the definition."""
    basis = bf.sector_basis(L, M)
    index = {s: i for i, s in enumerate(basis)}
    seen, cols = set(), []
    for s in basis:
        if s in seen:
            continue
        orbit, t = [s], s[1:] + s[:1]
        while t != s:
            orbit.append(t)
            t = t[1:] + t[:1]
        seen.update(orbit)
        p = len(orbit)
        if m * p % L:
            continue
        col = np.zeros(len(basis), complex)
        for d, t in enumerate(orbit):
            col[index[t]] = np.exp(-2j * np.pi * m * d / L) / np.sqrt(p)
        cols.append(col)
    return np.array(cols, complex).reshape(-1, len(basis)).T


def _orbit_grades(L, M):
    """The number of 2s in each translation orbit's representative, from
    the sector basis."""
    basis = bf.sector_basis(L, M)
    return np.array([basis[r].count(2)
                     for r in bf.hamiltonian._orbit_table(L, M)[2]], int)


def _grade_parts(B, grade):
    """The diagonal sub-blocks of the block matrix B over orbits of the
    given grades, one per grade, ascending."""
    return [B[np.ix_(grade == g, grade == g)] for g in np.unique(grade)]


def _same_multiset(a, b, tol):
    matched, _ = match_multiset(list(a), b, tol)
    return len(a) == len(b) == matched


def _block_spectra(h, L, M):
    spec = bf.sector_spectrum(h, L, M)
    return [spec.eigenvalues[spec.momenta == m] for m in range(L)]


class TestTranslationBlocks:
    def test_block_matrices_from_definition(self, rng):
        """Each block matrix is F_m^dagger H F_m, F_m built from the
        definition, including orbits shorter than L."""
        h = random_params(rng)
        for L in (3, 4, 5, 6):
            for M in (1, 2, 3):
                H = bf.sector_matrix(h, L, M)
                rows = bf.hamiltonian._representative_rows(h, L, M)
                blocks = _blocks(bf.oracle._block_stack(rows, L, M))
                assert len(blocks) == L
                for m, (idx, block) in enumerate(blocks):
                    F = _momentum_basis(L, M, m)
                    assert len(idx) == F.shape[1]
                    assert np.allclose(block, F.conj().T @ H @ F,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.stem)
    def test_stacked_eigenvalues_equal_per_block_calls(self, path):
        """The eigenvalues of the stacked blocks, one eigensolver call per
        sub-block size, are those of np.linalg.eigvals on each (block,
        grade) sub-block alone, bit for bit, in block order and grade by
        grade within a block: L = 2..12, M = 0..3, sectors with empty
        blocks (M = 0 at every L >= 2) and with blocks of unequal size
        (L = 9 and 12 at M = 3) among them.  The five presets without s1
        and s2 split; the other fourteen change the grade both ways, so
        each of their blocks is one sub-block and the reference is the
        whole block."""
        h = bf.with_zero_v00(load_input(path))
        split = path.stem in GRADED_PRESETS
        assert bf.hamiltonian._grade_one_way(h) == split
        empty = unequal = 0
        for L in range(2, 13):
            for M in range(4):
                spec = bf.sector_spectrum(h, L, M)
                blocks = _blocks(spec.blocks)
                assert spec.momenta.tolist() == [
                    m for m, (idx, _) in enumerate(blocks) for _ in idx]
                grade = _orbit_grades(L, M)
                parts = [_grade_parts(B, grade[idx] if split else 0 * idx)
                         for idx, B in blocks]
                tables = bf.oracle._sub_blocks(L, M, split)
                assert sum(len(m) for _, m, _, _ in tables) == sum(
                    map(len, parts)), (L, M)
                want = [np.linalg.eigvals(S) for p in parts for S in p]
                want = np.concatenate(want) if want else np.empty(0, complex)
                assert spec.eigenvalues.tobytes() == want.tobytes(), (L, M)
                sizes = set(spec.blocks.size.tolist())
                empty += 0 in sizes
                unequal += len(sizes - {0}) > 1
                if (L, M) in ((9, 3), (12, 3)):
                    assert len(sizes) > 1, (L, M)
                    assert split == any(len(p) > 1 for p in parts), (L, M)
        assert empty >= 11 and unequal >= 2

    @pytest.mark.parametrize("tag", sorted(GRADED_PRESETS))
    def test_grade_split_is_exact(self, tag, rng):
        """Members of the families without s1 and s2, through every frame
        word, gauge and telescoping term, never lower the grade (never
        raise it in the T frames, where t1 = t2 = 0): the split applies,
        every block entry that would move the grade the other way is
        exactly 0, and the spectrum is the whole sector matrix's."""
        for word in bf.hamiltonian.FRAME_WORDS:
            h = bf.apply_frame(family_instance(tag, rng)[0], word)
            h = bf.apply_telescopic(bf.apply_gauge(h, cdraw(rng, 3)),
                                    cdraw(rng, 3))
            assert bf.hamiltonian._grade_one_way(h), word
            sign = -1 if "T" in word else 1   # row grade - column grade
            for L in range(4, 9):
                for M in (2, 3):
                    spec = bf.sector_spectrum(h, L, M)
                    grade = _orbit_grades(L, M)
                    moved = 0
                    for idx, B in _blocks(spec.blocks):
                        step = sign * (grade[idx][:, None] - grade[idx])
                        assert not B[step < 0].any(), (word, L, M)
                        moved += np.count_nonzero(B[step > 0])
                    assert moved, (word, L, M)
                    H = bf.sector_matrix(h, L, M)
                    whole = np.linalg.eigvals(H)
                    scale = max(1.0, float(np.max(np.abs(H))))
                    assert _same_multiset(spec.eigenvalues, whole,
                                          1e-9 * scale), (word, L, M)

    @pytest.mark.parametrize("key", ["s1", "s2", "t1", "t2"])
    def test_one_coupling_each_way_keeps_whole_blocks(self, key, rng):
        """A 17V1a member given s1 = 1e-3 (or s2), its t1 and t2 nonzero,
        changes the grade both ways, and so does its time reversal given
        t1 = 1e-3 (or t2): each block is one sub-block, and its eigenvalues
        are np.linalg.eigvals on each whole block, bit for bit."""
        h = family_instance("17V1a", rng)[0]
        assert h.t1 and h.t2
        if key in ("t1", "t2"):
            h = bf.apply_time_reversal(h)
        h = h.replace(**{key: 1e-3})
        assert not bf.hamiltonian._grade_one_way(h)
        for L in range(4, 10):
            for M in (2, 3):
                spec = bf.sector_spectrum(h, L, M)
                blocks = [B for _, B in _blocks(spec.blocks) if len(B)]
                tables = bf.oracle._sub_blocks(L, M, False)
                assert sum(len(m) for _, m, _, _ in tables) == len(blocks)
                want = np.concatenate([np.linalg.eigvals(B) for B in blocks])
                assert spec.eigenvalues.tobytes() == want.tobytes(), (L, M)

    @pytest.mark.parametrize("tag", bf.FAMILY_ORDER)
    def test_bethe_vectors_in_their_block(self, tag, rng):
        """Every verified Bethe vector lies in the block of its momentum and
        its energy matches an eigenvalue of that block."""
        h, _ = family_instance(tag, rng)
        count = {}
        for L in (5, 6):
            for M in (1, 2, 3):
                spec = bf.sector_spectrum(h, L, M)
                H = bf.sector_matrix(h, L, M)
                scale = max(1.0, float(np.max(np.abs(H))))
                verified = []
                for s in bf.solve_bae(h, L, M):
                    if s.degenerate_flag:
                        continue
                    psi = bf.assemble_eigenvector(h, s.z, L)
                    if psi.is_null:
                        continue
                    vec = psi.to_vector(L)
                    if bf.verify_eigenpair(H, vec, s.energy) > 1e-8:
                        continue
                    F = _momentum_basis(L, M, bf.momentum(s.z, L))
                    off = vec - F @ (F.conj().T @ vec)
                    assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(vec)
                    verified.append(s)
                count[M] = count.get(M, 0) + len(verified)
                rep = bf.compare(verified, spec, tol=1e-8, scale=scale)
                assert not rep.unmatched, (tag, L, M)
        assert all(count.values())

    def test_union_is_sector_spectrum(self, rng):
        """The block spectra together are the whole-sector spectrum."""
        cases = [(family_instance(tag, rng)[0], L, M)
                 for tag in bf.FAMILY_ORDER
                 for L in range(3, 10) for M in (1, 2, 3)]
        cases.append((family_instance("17V1a", rng)[0], 12, 3))
        # the T frames of the graded families never raise the grade
        cases += [(bf.apply_frame(family_instance(tag, rng)[0], word), L, M)
                  for tag in sorted(GRADED_PRESETS) for word in ("T", "PCT")
                  for L in (5, 8) for M in (2, 3)]
        # one that conserves the grade: s1 = s2 = t1 = t2 = 0
        flat = random_params(rng).replace(s1=0, s2=0, t1=0, t2=0)
        cases += [(flat, L, M) for L in (4, 7) for M in (2, 3, 4)]
        for h, L, M in cases:
            spec = bf.sector_spectrum(h, L, M)
            H = bf.sector_matrix(h, L, M)
            whole = np.linalg.eigvals(H)
            scale = max(1.0, float(np.max(np.abs(H))))
            assert _same_multiset(spec.eigenvalues, whole, 1e-9 * scale), (L, M)


@st.composite
def _params(draw):
    kw = {k: draw(annulus()) for k in bf.hamiltonian.OFFDIAG_KEYS}
    v = np.array([draw(annulus()) for _ in range(9)]).reshape(3, 3)
    return bf.HamiltonianParams(v=v, **kw)


_SECTORS = st.tuples(st.integers(3, 7), st.integers(1, 3))
_BLOCK_TOL = 1e-7


class TestBlockInvariances:
    @settings(max_examples=25, deadline=None)
    @given(_params(), _SECTORS, st.lists(annulus(), min_size=3, max_size=3),
           st.lists(annulus(), min_size=3, max_size=3))
    def test_gauge_and_telescoping_keep_each_block(self, h, sector, g, a):
        L, M = sector
        ref = _block_spectra(h, L, M)
        scale = max(1.0, max(float(np.max(np.abs(e))) for e in ref if e.size))
        for hx in (bf.apply_gauge(h, g), bf.apply_telescopic(h, a)):
            for m, ev in enumerate(_block_spectra(hx, L, M)):
                assert _same_multiset(ev, ref[m], _BLOCK_TOL * scale), m

    @settings(max_examples=25, deadline=None)
    @given(_params(), _SECTORS)
    def test_parity_reverses_momentum(self, h, sector):
        """Site reversal conjugates the shift, so block m of the mirrored
        chain is block -m of the original."""
        L, M = sector
        ref = _block_spectra(h, L, M)
        scale = max(1.0, max(float(np.max(np.abs(e))) for e in ref if e.size))
        for m, ev in enumerate(_block_spectra(bf.apply_parity(h), L, M)):
            assert _same_multiset(ev, ref[-m % L], _BLOCK_TOL * scale), m

    @settings(max_examples=25, deadline=None)
    @given(_params(), _SECTORS)
    def test_time_reversal_keeps_each_block_up_to_its_sign(self, h, sector):
        """Time reversal transposes H, and the shift is a real permutation,
        so the block-m states of H^T are the complex conjugates of the
        block -m states of H: block m of the reversed chain is the
        transpose of block -m, with its spectrum.  With parity, which
        reverses momentum once more, each block keeps its own spectrum."""
        L, M = sector
        ref = _block_spectra(h, L, M)
        scale = max(1.0, max(float(np.max(np.abs(e))) for e in ref if e.size))
        t = bf.apply_time_reversal(h)
        for m, ev in enumerate(_block_spectra(t, L, M)):
            assert _same_multiset(ev, ref[-m % L], _BLOCK_TOL * scale), m
        for m, ev in enumerate(_block_spectra(bf.apply_parity(t), L, M)):
            assert _same_multiset(ev, ref[m], _BLOCK_TOL * scale), m

    @settings(max_examples=25, deadline=None)
    @given(_params(), st.tuples(st.integers(3, 5), st.integers(0, 3)))
    def test_charge_conjugation_maps_m_to_2l_minus_m(self, h, sector):
        """Relabelling 0 <-> 2 on every site commutes with the shift and maps
        S^z = M onto S^z = 2L - M, so each block keeps its spectrum."""
        L, M = sector
        ref = _block_spectra(h, L, 2 * L - M)
        scale = max(1.0, max(float(np.max(np.abs(e))) for e in ref if e.size))
        conj = _block_spectra(bf.apply_charge_conjugation(h), L, M)
        for m, ev in enumerate(conj):
            assert _same_multiset(ev, ref[m], _BLOCK_TOL * scale), m
