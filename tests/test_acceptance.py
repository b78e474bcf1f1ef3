"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  All tolerances are fixed here, none are calibrated at run
time.  Fixed seeds make every run identical.
"""

import time

import numpy as np

import bethe_forge as bf
from bethe_forge.families import J_PLUS
from bethe_forge.hamiltonian import sz_matrix
from bethe_forge.reductions import SZ_TWO_SITE

from conftest import (cdraw, draw_free, dyadic, dyadic_params, match_multiset,
                      random_params)
from test_reductions import (reduce_family, spr_expected, v17_1a_expected,
                             v17_1b_expected, v17_2_expected, v14_1_expected,
                             v14_2_expected, sb5_wtilde_expected)

SEED = 0xACCE97
TRIVIAL_S_MODELS = (("17V1a", {"eps": 1}), ("17V1a", {"eps": -1}),
                    ("17V1b", {"I": 1j}), ("14V2", {}))


def report(num, ok, text):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def all_branch_instances(rng):
    for tag in bf.FAMILY_ORDER:
        for branch in bf.FAMILIES[tag].branches:
            yield tag, branch, bf.construct(tag, draw_free(tag, rng), branch)


def test_criterion_1_family_solvability():
    """Each family: 30 seeded draws, constraint residual <= 1e-9, < 30 s."""
    rng = np.random.default_rng(SEED)
    t0 = time.time()
    worst = 0.0
    for tag in bf.FAMILY_ORDER:
        fam = bf.FAMILIES[tag]
        for i in range(30):
            branch = fam.branches[i % len(fam.branches)]
            h = bf.construct(tag, draw_free(tag, rng), branch)
            verdict = bf.is_cba_solvable(h, tol=1e-9)
            assert verdict.solvable, (tag, i, verdict.max_residual)
            worst = max(worst, verdict.max_residual)
    dt = time.time() - t0
    report(1, worst <= 1e-9 and dt < 30,
           f"10 families x 30 draws solvable, max residual {worst:.2e}, "
           f"{dt:.1f}s")


def test_criterion_2_negative_controls():
    """Generic draws and 1e-3 perturbations of family draws are rejected."""
    rng = np.random.default_rng(SEED + 1)
    for i in range(100):
        verdict = bf.is_cba_solvable(random_params(rng))
        assert not verdict.solvable, i
    # perturb one constrained entry per family draw
    # entries constrained by the first-vacuum identities (for the 14- and
    # 17-vertex families, t3/s3 are pinned only by the second vacuum, so a
    # first-vacuum-constrained entry is perturbed instead where needed)
    perturbable = {
        "gZF": "s3", "gIK": "t1", "gB": "s1", "SpR": "sp", "SB5": "t3",
        "17V1a": "s3", "17V1b": "t3", "17V2": "t1", "14V1": "t1", "14V2": "t3",
    }
    count = 0
    for i in range(30):
        tag = bf.FAMILY_ORDER[i % 10]
        h = bf.construct(tag, draw_free(tag, rng))
        key = perturbable[tag]
        hp = h.replace(**{key: getattr(h, key) + 1e-3})
        verdict = bf.is_cba_solvable(hp)
        assert not verdict.solvable, (tag, key, verdict.max_residual)
        count += 1
    report(2, True, f"100 generic + {count} perturbed draws all rejected")


def test_criterion_3_classifier_round_trip_and_pct_table():
    """classify(construct(tag)) = tag, 10 x 50; P/C/T images reproduce the
    parity/charge-conjugation/time-reversal action table including the invariance column."""
    rng = np.random.default_rng(SEED + 2)
    for tag in bf.FAMILY_ORDER:
        fam = bf.FAMILIES[tag]
        for i in range(50):
            branch = fam.branches[i % len(fam.branches)]
            h = bf.construct(tag, draw_free(tag, rng), branch)
            m = bf.classify(h, tol=1e-9)
            assert m is not None and m.tag == tag and m.frame == "", (tag, i)
            assert m.fit_residual <= 1e-9

    from test_families import PCT_TABLE, branches_equal
    for tag in bf.FAMILY_ORDER:
        fam = bf.FAMILIES[tag]
        branch = dict(fam.branches[0])
        other = dict(fam.branches[1]) if len(fam.branches) > 1 else branch
        h = bf.construct(tag, draw_free(tag, rng), branch)
        for letter in ("P", "C", "T"):
            m = bf.classify(bf.apply_frame(h, letter))
            assert m is not None and m.tag == tag, (tag, letter)
            expect = PCT_TABLE[tag][letter]
            if expect == "same":
                assert m.frame == "" and branches_equal(m.branch, branch)
            elif expect == "swap":
                assert m.frame == "" and branches_equal(m.branch, other)
            else:
                assert all(w != "" for _, _, w, _ in m.all_matches)
        for word in PCT_TABLE[tag]["inv"]:
            m = bf.classify(bf.apply_frame(h, word))
            assert (m is not None and m.tag == tag and m.frame == ""
                    and branches_equal(m.branch, branch)), (tag, word)
    report(3, True, "round-trip 10 tags x 50 draws; P/C/T action table and "
                    "invariance words reproduced")


def test_criterion_4_m1_exactness():
    """L in 3..6: the L plane-wave energies equal the one-excitation sector
    spectrum as multisets within 1e-10 after norm normalization."""
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for tag in bf.FAMILY_ORDER:
        h = bf.construct(tag, draw_free(tag, rng))
        for L in (3, 4, 5, 6):
            cba = np.sort_complex(np.array(
                [bf.energy(h, [np.exp(2j * np.pi * n / L)]) for n in range(L)]))
            Hs = bf.sector_matrix(h, L, 1)
            ed = np.sort_complex(np.linalg.eigvals(Hs))
            scale = max(1.0, float(np.max(np.abs(Hs))))
            worst = max(worst, float(np.max(np.abs(cba - ed))) / scale)
    report(4, worst <= 1e-10,
           f"M=1 spectra exact for all families, L=3..6 (worst {worst:.2e})")


def test_criterion_5_m2_eigenpairs():
    """L in {4, 5}: every accepted two-excitation solution verifies against
    the sector matrix at 1e-8 and its energy appears in the dense spectrum;
    trivial-scattering families reach all distinct-root multisets."""
    rng = np.random.default_rng(SEED + 4)
    worst_pair = 0.0
    t0 = time.time()
    for tag in bf.FAMILY_ORDER:
        h = bf.construct(tag, draw_free(tag, rng))
        for L in (4, 5):
            Hs = bf.sector_matrix(h, L, 2)
            ev = np.linalg.eigvals(Hs)
            scale = max(1.0, float(np.max(np.abs(Hs))))
            for sol in bf.solve_bae(h, L, 2):
                psi = bf.assemble_eigenvector(h, sol.z, L)
                if psi.is_null:
                    continue
                res = bf.verify_eigenpair(Hs, psi.to_vector(L), sol.energy)
                assert res <= 1e-8, (tag, L, sol.z, res)
                worst_pair = max(worst_pair, res)
                edmin = float(np.min(np.abs(ev - sol.energy))) / scale
                assert edmin <= 1e-8, (tag, L, sol.z, edmin)

    # completeness of the trivial-scattering families
    for tag, branch in TRIVIAL_S_MODELS:
        h = bf.construct(tag, draw_free(tag, rng), branch)
        for L in (4, 5):
            Hs = bf.sector_matrix(h, L, 2)
            sols = bf.solve_bae(h, L, 2)
            distinct = [s for s in sols if not s.degenerate_flag]
            assert len(distinct) == L * (L - 1) // 2, (tag, L)
            good = 0
            for sol in distinct:
                psi = bf.assemble_eigenvector(h, sol.z, L)
                if (not psi.is_null and
                        bf.verify_eigenpair(Hs, psi.to_vector(L), sol.energy) <= 1e-8):
                    good += 1
            assert good == len(distinct), (tag, L, good)
    dt = time.time() - t0
    report(5, True,
           f"M=2 eigenpairs verified (worst residual {worst_pair:.2e}); "
           f"trivial-S families complete on distinct-root multisets; {dt:.1f}s")


def test_criterion_6_golden_specializations():
    """(a) spin-1 XXZ matrix from the gZF reduction; (b) Bariev point values;
    (c) the seven explicit reduced matrices at 5 random points each."""
    rng = np.random.default_rng(SEED + 5)
    # (a) done for three k values
    for k in (1.7, 2.0, 2.6):
        p = cdraw(rng)
        t2 = cdraw(rng)
        sigma = ((k**2 + 1) / k)**2
        hred, _ = reduce_family("gZF", dict(p=p, tp=-p, t2=t2,
                                            s1=sigma * p**2 / t2))
        W = ((-2 * k**2 / (k**4 - 1)) * hred
             - (k**4 + 1) / (k**4 - 1) * SZ_TWO_SITE)
        taup = -1.0
        ht = np.zeros((9, 9), complex)
        c1 = (k**4 + 1) / (1 - k**4)
        ht[1, 1] = ht[3, 3] = ht[5, 5] = ht[7, 7] = c1
        ht[1, 3] = ht[5, 7] = 2 * taup * k**2 / (1 - k**4)
        ht[2, 2] = ht[6, 6] = (2 * k**4 + 2 * k**2 + 2) / (1 - k**4)
        ht[2, 4] = ht[4, 2] = 2 * k / (1 - k**2)
        ht[2, 6] = 2 * taup**2 * k**2 / (1 - k**4)
        ht[3, 1] = ht[7, 5] = 2 * k**2 / ((1 - k**4) * taup)
        ht[4, 4] = (2 * k**4 + 2) / (1 - k**4)
        ht[4, 6] = 2 * k * taup**2 / (1 - k**2)
        ht[6, 2] = 2 * k**2 / ((1 - k**4) * taup**2)
        ht[6, 4] = 2 * k / (taup**2 * (1 - k**2))
        assert np.max(np.abs(W - ht)) <= 1e-10, k

    # (b) Bariev remark values
    tp = 2.0
    root = np.sqrt(tp**2 - 1)
    h = bf.construct("gB", dict(p=1, q=1, t1=-J_PLUS**2 * root,
                                t2=J_PLUS * root, tp=tp), {"J": J_PLUS})
    inv = bf.invariants(h)
    for got, want in ((h.t3, 1), (h.s3, 1), (h.sp, tp), (inv.X11, -tp),
                      (inv.Y, tp + 1 / tp), (inv.X12, -J_PLUS * tp + 1 / tp),
                      (inv.X21, -J_PLUS**2 * tp + 1 / tp), (inv.X22, 1 / tp)):
        assert abs(got - want) <= 1e-10

    # (c) the seven displayed reduced matrices, 5 random points each
    for _ in range(5):
        hr, red = reduce_family("SpR", draw_free("SpR", rng))
        assert np.max(np.abs(hr - spr_expected(red.tau_p, red.theta,
                                               red.tau_3))) <= 1e-10
        for eps in (1, -1):
            hr, red = reduce_family("17V1a", draw_free("17V1a", rng),
                                    {"eps": eps})
            assert np.max(np.abs(hr - v17_1a_expected(red.tau_p, red.theta,
                                                      eps))) <= 1e-10
        for I in (1j, -1j):
            hr, red = reduce_family("17V1b", draw_free("17V1b", rng), {"I": I})
            assert np.max(np.abs(hr - v17_1b_expected(red.tau_p, I))) <= 1e-10
        hr, red = reduce_family("17V2", draw_free("17V2", rng))
        assert np.max(np.abs(hr - v17_2_expected(red.tau_p, red.theta))) <= 1e-10
        for eps in (1, -1):
            hr, red = reduce_family("14V1", draw_free("14V1", rng), {"eps": eps})
            assert np.max(np.abs(hr - v14_1_expected(
                red.tau_p, red.extra["xi"], eps))) <= 1e-10
        hr, red = reduce_family("14V2", draw_free("14V2", rng))
        assert np.max(np.abs(hr - v14_2_expected(red.tau_p))) <= 1e-10
        hr, red = reduce_family("SB5", draw_free("SB5", rng), {"J": J_PLUS})
        W = (red.upsilon / (4 * J_PLUS * np.sqrt(-red.theta))) * (
            4 * hr - SZ_TWO_SITE + np.eye(9))
        assert np.max(np.abs(W - sb5_wtilde_expected(
            red.theta, red.upsilon, J_PLUS))) <= 1e-10
    report(6, True, "spin-1 XXZ golden + Bariev values + 7 reduced-matrix "
                    "goldens at 5 random points each")


def test_criterion_7_physical_data_invariance():
    """Draws with equal reduced parameters share the reduced matrix, the
    scattering values, and the normalized two-excitation energies."""
    rng = np.random.default_rng(SEED + 6)
    L = 4
    for tag in bf.FAMILY_ORDER:
        fam = bf.FAMILIES[tag]
        branch = dict(fam.branches[0])
        free1 = draw_free(tag, rng)
        lam = cdraw(rng)
        free2 = {n: (v if n == "v" else lam * v) for n, v in free1.items()}
        h1 = bf.construct(tag, free1, branch)
        h2 = bf.construct(tag, free2, branch)
        m1 = bf.classify(h1)
        m2 = bf.classify(h2)
        r1, red1 = bf.reduce_hamiltonian(h1, m1)
        r2, red2 = bf.reduce_hamiltonian(h2, m2)
        scale = max(1.0, float(np.max(np.abs(r1))))
        assert np.max(np.abs(r1 - r2)) <= 1e-9 * scale, tag

        for _ in range(5):
            z1, z2 = cdraw(rng), cdraw(rng)
            s1v = bf.s_matrix(h1, z1, z2)
            s2v = bf.s_matrix(h2, z1, z2)
            assert abs(s1v - s2v) <= 1e-9 * max(1, abs(s1v)), tag

        # two-excitation energies agree once the overall scale p is removed
        e1 = [s.energy / h1.p for s in bf.solve_bae(h1, L, 2)]
        e2 = [s.energy / h2.p for s in bf.solve_bae(h2, L, 2)]
        assert len(e1) == len(e2), tag
        scale = max(1.0, max(abs(e) for e in e1))
        matched, unmatched = match_multiset(
            e1, np.array(e2), 1e-9 * scale)
        assert matched == len(e1) and not unmatched, (tag, unmatched)
    report(7, True, "equal reduced parameters: identical reduced matrices, "
                    "S values, and normalized M=2 energies (all families)")


def test_criterion_8_structural_invariants():
    """S^z commutation exact; telescoping at bit level; S unitarity 1e-10;
    zero-eigenvalue pseudo-vacuum."""
    rng = np.random.default_rng(SEED + 7)
    # exact commutation with the total-S^z operator, 100 draws over L=2,3,4
    for i in range(100):
        L = (2, 3, 4)[i % 3]
        h = random_params(rng)
        H = bf.chain_matrix(h, L)
        Sz = sz_matrix(L)
        assert np.all(H @ Sz == Sz @ H), i

    # telescoping: exact dyadic draws give bit-identical chain matrices
    for L in (2, 3):
        h = dyadic_params(rng)
        ha = bf.apply_telescopic(h, dyadic(rng, 3))
        assert np.array_equal(bf.chain_matrix(h, L), bf.chain_matrix(ha, L))

    # scattering unitarity
    for i in range(1000):
        h = random_params(rng) if i % 2 else bf.construct(
            bf.FAMILY_ORDER[i % 10], draw_free(bf.FAMILY_ORDER[i % 10], rng))
        z1, z2 = cdraw(rng), cdraw(rng)
        assert abs(bf.s_matrix(h, z1, z2) * bf.s_matrix(h, z2, z1) - 1) <= 1e-10

    # pseudo-vacuum annihilated exactly once v00 = 0
    for _ in range(10):
        h = bf.with_zero_v00(random_params(rng))
        H = bf.chain_matrix(h, 3)
        vac = np.zeros(27, complex)
        vac[0] = 1
        assert np.max(np.abs(H @ vac)) == 0
    report(8, True, "S^z commutation exact, telescoping bit-level, "
                    "unitarity 1e-10, pseudo-vacuum eigenvalue exactly 0")
