"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s -v tests/test_acceptance.py`` to see the per-criterion
lines; plain ``pytest`` runs them silently.  Tolerances are pinned in the
assertions themselves: every golden comparison is exact, the operation
bounds are hard inequalities, and the complexity trend allows factor 2 on
the constant calibrated at the smallest configuration.
"""

import itertools
import random

import pytest

from avcodes.gf import Field, ZERO, ONE
from avcodes.mindex import MonomialOrder, dominates
from avcodes.transform import (Spectrum, Word, dft, idft, dft_fast, idft_fast,
                               index_space, omega_space)
from avcodes.ideal import vanishing_gb, extend
from avcodes.maps import PointSet, canonical_iso, proper_transform, evaluate
from avcodes.codes import (preset, code_from_config, encode_nonsystematic,
                           primal_encode, syndrome, is_dual_codeword)
from avcodes.decoder import decode_info, decode_word, systematic_basis, systematic_encode
from avcodes import golden
from avcodes.golden import run_examples
from test_decoder import _lemma_values


@pytest.fixture(scope="module")
def battery():
    results = run_examples()
    return {name: (ok, detail) for name, ok, detail in results}


@pytest.fixture(scope="module")
def codes():
    return {"rs-like": preset("rs-like"), "hermitian": preset("hermitian"),
            "hcrs": preset("hcrs")}


def _ok(battery, name):
    ok, detail = battery[name]
    assert ok, "%s failed: %s" % (name, detail)


def _passed(num, text):
    print("CRITERION %-2s PASS: %s" % (num, text))


def test_criterion_1_worked_example_golden(battery):
    for name in ("rs/basis", "rs/delta", "rs/extension", "rs/omega-word",
                 "rs/restriction"):
        _ok(battery, name)
    _passed(1, "q=8 N=1 golden chain: basis polynomial, extension, "
               "Omega-word, restriction all exact")


TRANSFORM_CONFIGS = [
    (2, 3, (1, 1, 0, 1), 1),
    (2, 3, (1, 1, 0, 1), 2),
    (3, 2, (2, 1, 1), 2),
    (2, 2, (1, 1, 1), 3),
]


def test_criterion_2_fourier_inversion():
    rng = random.Random(20121028)
    total = 0
    for p, m, poly, ndim in TRANSFORM_CONFIGS:
        f = Field(p, m, poly)
        pts = omega_space(f, ndim)
        idx = index_space(f, ndim)
        for _ in range(200):
            c = Word(f, ndim, {w: rng.randrange(-1, f.q - 1) for w in pts})
            assert idft_fast(dft_fast(c)).values == c.values
            h = Spectrum(f, ndim, {a: rng.randrange(-1, f.q - 1) for a in idx})
            assert dft_fast(idft_fast(h)).values == h.values
            total += 2
    _passed(2, "inversion identities exact on %d random vectors over "
               "(q,N) in {(8,1),(8,2),(9,2),(4,3)}" % total)


def test_criterion_3_fast_path_equivalence():
    rng = random.Random(777)
    counts = {}
    for p, m, poly, ndim in TRANSFORM_CONFIGS:
        f = Field(p, m, poly)
        pts = omega_space(f, ndim)
        idx = index_space(f, ndim)
        bound = 3 * ndim * f.q ** (ndim + 1)
        worst = 0
        for _ in range(100):
            c = Word(f, ndim, {w: rng.randrange(-1, f.q - 1) for w in pts})
            assert dft_fast(c).values == dft(c).values
            h = Spectrum(f, ndim, {a: rng.randrange(-1, f.q - 1) for a in idx})
            before = f.op_count
            fast = idft_fast(h)
            worst = max(worst, f.op_count - before)
            assert fast.values == idft(h).values
        assert worst <= bound
        counts[(f.q, ndim)] = (worst, bound)
    assert counts[(9, 2)][1] == 4374
    _passed(3, "fast = direct on 100 vectors/config; measured idft_fast ops "
               + ", ".join("%s: %d <= %d" % (k, v[0], v[1])
                           for k, v in sorted(counts.items())))


REMARK_DFT_MATRIX = [
    [0, -1, -1, -1, -1, -1, -1, -1],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 2, 3, 4, 5, 6, 0],
    [0, 2, 4, 6, 1, 3, 5, 0],
    [0, 3, 6, 2, 5, 1, 4, 0],
    [0, 4, 1, 5, 2, 6, 3, 0],
    [0, 5, 3, 1, 6, 4, 2, 0],
    [0, 6, 5, 4, 3, 2, 1, 0],
]
REMARK_IDFT_MATRIX = [
    [0, -1, -1, -1, -1, -1, -1, -1],
    [-1, 0, 6, 5, 4, 3, 2, 1],
    [-1, 0, 5, 3, 1, 6, 4, 2],
    [-1, 0, 4, 1, 5, 2, 6, 3],
    [-1, 0, 3, 6, 2, 5, 1, 4],
    [-1, 0, 2, 4, 6, 1, 3, 5],
    [-1, 0, 1, 2, 3, 4, 5, 6],
    [0, 0, 0, 0, 0, 0, 0, 0],
]


def test_criterion_4_matrix_identities():
    f = Field(2, 3, (1, 1, 0, 1))
    pts = omega_space(f, 1)
    idx = index_space(f, 1)
    dft_rows = []
    for w in pts:
        unit = Word(f, 1, {p: (ONE if p == w else ZERO) for p in pts})
        h = dft(unit)
        dft_rows.append([h.values[a] for a in idx])
    assert dft_rows == REMARK_DFT_MATRIX
    idft_rows = []
    for a in idx:
        unit = Spectrum(f, 1, {b: (ONE if b == a else ZERO) for b in idx})
        c = idft(unit)
        idft_rows.append([c.values[p] for p in pts])
    assert idft_rows == REMARK_IDFT_MATRIX
    # product is the identity
    for i in range(8):
        for j in range(8):
            acc = ZERO
            for k in range(8):
                acc = f.add(acc, f.mul(dft_rows[i][k], idft_rows[k][j]))
            assert acc == (ONE if i == j else ZERO)
    # the evaluation matrix on Psi = Omega is the transpose of the DFT matrix
    omega_ps = PointSet(f, 1, tuple(pts))
    ev_rows = []
    for a in idx:
        unit = Spectrum(f, 1, {b: (ONE if b == a else ZERO) for b in idx})
        w = evaluate(unit, omega_ps)
        ev_rows.append([w.values[p] for p in pts])
    for i in range(8):
        for j in range(8):
            assert ev_rows[i][j] == dft_rows[j][i]
    _passed(4, "DFT/IDFT matrices match the printed 8x8 tables, their product "
               "is the identity, and ev is the DFT transpose")


def test_criterion_5_groebner_goldens(battery):
    for name in ("rs/basis", "cross/basis-element", "hermitian/erasure-basis",
                 "hermitian/located-basis", "hcrs/erasure-basis",
                 "hcrs/located-basis", "hermitian/systematic-basis",
                 "hcrs/systematic-leads", "hcrs/systematic-g0",
                 "hcrs/systematic-g2", "hcrs/systematic-g8",
                 "full-grid/q8-basis", "hcrs/full-grid-basis"):
        _ok(battery, name)
    _passed(5, "all printed bases reproduced coefficient-for-coefficient "
               "(erasure, located, systematic, cross, full grid)")


def test_criterion_6_canonical_isomorphism_suite(codes):
    f8 = Field(2, 3, (1, 1, 0, 1))
    cases = [
        ("rs", PointSet(f8, 1, golden.RS_PSI), MonomialOrder("lex")),
        ("cross", PointSet(f8, 2, golden.CROSS_PSI), MonomialOrder("lex")),
        ("hermitian", codes["hermitian"].psi, codes["hermitian"].order),
        ("hcrs", codes["hcrs"].psi, codes["hcrs"].order),
    ]
    checked = 0
    for name, psi, order in cases:
        f = psi.field
        gb, delta = vanishing_gb(psi, order)
        members = sorted(delta.members)
        inside = set(psi.points)
        for d in members:
            unit = Spectrum(f, psi.ndim, {e: (ONE if e == d else ZERO) for e in members})
            word, omega = canonical_iso(unit, gb, psi, return_omega=True)
            for p, v in omega.values.items():
                if p not in inside:
                    assert v == ZERO
            assert proper_transform(word, delta).values == unit.values
            checked += 1
        for target in psi.points:
            unit_w = Word(f, psi.ndim,
                          {p: (ONE if p == target else ZERO) for p in psi.points})
            h = proper_transform(unit_w, delta)
            assert canonical_iso(h, gb, psi).values == unit_w.values
            checked += 1
    _passed(6, "canonical map and proper transform invert each other on a "
               "full basis of all 4 bundled point sets (%d vectors), with "
               "vanishing off the point set" % checked)


def test_criterion_7_duality(codes):
    rng = random.Random(31415)
    for name in ("hermitian", "hcrs"):
        code = codes[name]
        f = code.field
        pts = code.psi.points
        primal = []
        dual = []
        for _ in range(30):
            u = Spectrum(f, 2, {b: rng.randrange(-1, f.q - 1) for b in code.b_list})
            primal.append(primal_encode(u, code))
            h = Spectrum(f, 2, {d: rng.randrange(-1, f.q - 1)
                                for d in code.info_support()})
            dual.append(encode_nonsystematic(h, code))
        pairs = 0
        for a, b in itertools.product(primal, dual):
            acc = ZERO
            for p in pts:
                acc = f.add(acc, f.mul(a.values[p], b.values[p]))
            assert acc == ZERO
            pairs += 1
        assert pairs >= 500
    _passed(7, "900 random primal/dual pairs per code (n=27,k=18 and "
               "n=81,k=61) all have zero inner product")


def _pattern_combos(d_fr):
    out = []
    for n_err in range(0, (d_fr - 1) // 2 + 1):
        for n_erase in range(0, d_fr - 2 * n_err):
            out.append((n_erase, n_err))
    return out


def _decode_trials(code, trials, rng):
    combos = _pattern_combos(code.d_fr)
    f = code.field
    pts = list(code.psi.points)
    for i in range(trials):
        n_erase, n_err = combos[i % len(combos)]
        h = Spectrum(f, code.ndim, {d: rng.randrange(-1, f.q - 1)
                                    for d in code.info_support()})
        cw = encode_nonsystematic(h, code)
        chosen = rng.sample(pts, n_erase + n_err)
        r = cw.copy()
        for p in chosen[:n_erase]:
            r.values[p] = ZERO
        for p in chosen[n_erase:]:
            r.values[p] = f.add(r.values[p], rng.randrange(0, f.q - 1))
        phi1 = PointSet(f, code.ndim,
                        tuple(p for p in pts if p in set(chosen[:n_erase])))
        if i % 2 == 0:
            got = decode_info(r, phi1, code)
            assert got.values == h.values, "info mismatch at trial %d" % i
        else:
            res = decode_word(r, phi1, code)
            assert res.codeword.values == cw.values, "codeword mismatch at trial %d" % i
            for p in pts:
                assert res.error.values[p] == f.sub(r.values[p], cw.values[p])
            assert is_dual_codeword(res.codeword, code)
            # the locator's values are the lemma path's on the located set
            if len(res.located):
                lemma = _lemma_values(code, res.located.points, syndrome(r, code.b_list))
                assert {p: res.error.values[p] for p in res.located.points} == lemma


def test_criterion_8_decode_roundtrip(codes):
    rng = random.Random(60601)
    _decode_trials(codes["hermitian"], 500, rng)
    _decode_trials(codes["hcrs"], 500, rng)
    _passed(8, "500 Hermitian trials (|Phi1|+2|Phi2| <= 6) and 500 HCRS "
               "trials (<= 8) all recovered exactly, zero failures; the "
               "error values equal the lemma's extension and IDFT")


def test_criterion_9_systematic_equals_erasure_only(battery, codes):
    for name in ("hermitian/systematic-support", "hcrs/systematic-support",
                 "hermitian/systematic-equals-erasure-decode",
                 "hcrs/systematic-equals-erasure-decode",
                 "hermitian/syndrome-00", "hermitian/located-basis"):
        _ok(battery, name)
    # systematic encoding and erasure decoding read one map of Phi, so
    # their equality alone does not test the lemma: the battery's two
    # systematic words (its information words, drawn again) are also the
    # lemma's path, the syndrome extended by Phi's family over A and
    # transformed back, negated on Phi
    rng = random.Random(17)
    for name, phi_points in (("hermitian", golden.HERM_SYS_PHI), ("hcrs", golden.HCRS_SYS_PHI)):
        code = codes[name]
        f, phi = code.field, PointSet(code.field, 2, phi_points)
        info = Word(f, 2, {p: rng.randrange(-1, 8) for p in code.psi.points
                           if p not in set(phi.points)})
        basis = systematic_basis(phi, code)
        seed = syndrome(info, code.b_list).restrict(basis.delta.members)
        lemma = idft_fast(extend(seed, basis, index_space(f, 2)))
        word = systematic_encode(info, phi, code)
        assert word.values == {**info.values, **{p: f.neg(lemma.values[p]) for p in phi.points}}
    _passed(9, "systematic output bitwise-equal to erasure-only decoding and "
               "to the lemma's extension and IDFT on both printed Phi sets; "
               "support checks true; the (0,0) syndrome value alpha^2 "
               "reproduced in the worked run")


def test_criterion_10_extension_consistency(codes):
    rng = random.Random(4242)
    f8 = Field(2, 3, (1, 1, 0, 1))
    herm = codes["hermitian"]
    loc = golden.located_points(herm, golden.HERM_G_LOCATED)
    cases = [
        ("hermitian-located", *vanishing_gb(loc, herm.order)),
        ("hermitian-psi", herm.gb, herm.delta),
        ("cross", *vanishing_gb(PointSet(f8, 2, golden.CROSS_PSI), MonomialOrder("lex"))),
    ]
    total_multi = 0
    for name, gb, delta in cases:
        f = gb.field
        space = index_space(f, gb.ndim)
        admissible = [aw for aw in gb.leading if all(x < f.q for x in aw)]
        multi = [a for a in space if a not in delta.members
                 and sum(dominates(a, aw) for aw in admissible) >= 2]
        total_multi += len(multi)
        for _ in range(5):
            seed = Spectrum(f, gb.ndim,
                            {d: rng.randrange(-1, f.q - 1) for d in delta.members})
            extend(seed, gb, space)  # raises on any recurrence disagreement
    assert total_multi > 0
    _passed(10, "every index admitting several generators (%d across the "
                "Hermitian and cross bases) gave identical values for all "
                "choices, over 5 random seeds each" % total_multi)


COMPLEXITY_EXTRAS = {
    "rs4": {
        "field": {"p": 2, "m": 2, "primitive_poly": [1, 1, 1]},
        "N": 1, "order": {"kind": "lex"}, "points": "full-grid",
        "B": [[0], [1]], "d_fr": 3,
    },
    "hyp4": {
        "field": {"p": 2, "m": 2, "primitive_poly": [1, 1, 1]},
        "N": 2, "order": {"kind": "grlex"}, "points": "full-grid",
        "B": "prodplus<4", "d_fr": 4,
    },
}


def test_criterion_11_complexity_trend(codes):
    rng = random.Random(2023)
    table = []
    configs = [("rs4", code_from_config(COMPLEXITY_EXTRAS["rs4"])),
               ("rs-like", codes["rs-like"]),
               ("hyp4", code_from_config(COMPLEXITY_EXTRAS["hyp4"])),
               ("hermitian", codes["hermitian"]),
               ("hcrs", codes["hcrs"])]
    for name, code in configs:
        f = code.field
        h = Spectrum(f, code.ndim, {d: rng.randrange(-1, f.q - 1)
                                    for d in code.info_support()})
        cw = encode_nonsystematic(h, code)
        r = cw.copy()
        p = rng.choice(list(code.psi.points))
        r.values[p] = f.add(r.values[p], rng.randrange(0, f.q - 1))
        res = decode_word(r, PointSet(f, code.ndim, ()), code)
        assert res.codeword.values == cw.values
        rep = res.report
        # z = |G(L)|, the size of the reduced basis of the vanishing ideal
        # of the located set, which the decoder does not build
        z = len(vanishing_gb(res.located, code.order)[0])
        bound = z * code.n ** 2 + code.ndim * f.q ** (code.ndim + 1)
        table.append((name, code.n, rep.total, bound, rep.total / bound))
    # constant calibrated at the smallest configuration; larger ones must
    # not grow faster than the model by more than the factor-2 tolerance
    c_small = table[0][4]
    for name, n, total, bound, ratio in table[1:]:
        assert total <= 2.0 * c_small * bound, (name, ratio, c_small)
    # direct-formula IDFT measurably exceeds the fast path at q=9, N=2
    f9 = codes["hermitian"].field
    h = Spectrum(f9, 2, {a: rng.randrange(-1, 8) for a in index_space(f9, 2)})
    before = f9.op_count
    idft_fast(h)
    fast_ops = f9.op_count - before
    before = f9.op_count
    idft(h)
    direct_ops = f9.op_count - before
    assert direct_ops > fast_ops
    _passed(11, "decode op totals track z*n^2 + N*q^(N+1) within factor 2 of "
                "the smallest-config constant (%s); direct IDFT %d > fast %d "
                "at q=9, N=2"
                % (", ".join("%s %.2f" % (nm, rt) for nm, _, _, _, rt in table),
                   direct_ops, fast_ops))


def test_all_golden_vectors(battery):
    failures = [name for name, (ok, _) in battery.items() if not ok]
    assert not failures, failures
