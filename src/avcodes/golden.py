"""Bundled known-answer vectors from the worked examples, and a runner
that re-derives each of them (used by the ``examples`` CLI subcommand
and the acceptance suite).  All element values are exponent codes.
"""

import random

from .gf import ZERO, Field
from .mindex import MonomialOrder
from .transform import Spectrum, Word, idft_fast, idft_kernel
from .ideal import Polynomial, vanishing_gb, extend
from .maps import PointSet, canonical_iso, evaluate, proper_transform
from .codes import preset, syndrome, encode_nonsystematic
from .decoder import (decode_word, decode_info, systematic_encode, systematic_basis,
                      check_systematic_support)


def f8():
    return Field(2, 3, (1, 1, 0, 1))


# q=8, N=1 worked example: Psi, its basis polynomial, a seed spectrum, its
# extension, the prolonged Omega-word and its restriction
RS_PSI = ((-1,), (1,), (3,), (6,))
RS_G = {(1,): 3, (2,): 3, (3,): 2, (4,): 0}
RS_SEED = {(0,): 2, (1,): 3, (2,): 5, (3,): 0}
RS_EXTENSION = {(4,): 3, (5,): 4, (6,): 3, (7,): 3}
RS_OMEGA_WORD = (5, -1, 2, -1, 0, -1, -1, 4)  # point order 0, 1, alpha, ..., alpha^6
RS_RESTRICTION = (5, 2, 0, 4)

# the continued q=8 example: evaluation-side generators, orthogonal-side
# seeds, their extensions and codewords
EV_GEN_SPECTRA = ({(0,): 0, (2,): 4, (3,): 5}, {(1,): 0, (3,): 6})
EV_GEN_WORDS = ((0, 4, 3, 0), (-1, 4, 0, 4))
DUAL_SEEDS = ({(0,): 4, (2,): 0}, {(0,): 5, (1,): 6, (3,): 0})
DUAL_EXTENSIONS = ({(4,): 3, (5,): 2, (6,): 3, (7,): 6},
                   {(4,): -1, (5,): 3, (6,): 2, (7,): 3})
DUAL_CODEWORDS = ((3, 5, 5, 6), (2, 4, 2, 0))

# grid-example 1-D kernel vectors (q=8): a column of the index grid and the
# first three outputs, then the zero-row of the half-transformed grid and
# the first three outputs of the second pass
FIG_COLUMN = (4, 5, 1, 1, 4, 0, -1, 2)          # h_(a1,0) for a1 = 0..7
FIG_COLUMN_OUT = (1, 2, 6)                      # at omega1 = 0, 1, alpha
FIG_ROW = (1, 3, 2, 1, 0, 6, 5, 4)              # v_(0,a2) for a2 = 0..7
FIG_ROW_OUT = (2, -1, -1)                       # at omega2 = 0, 1, alpha

# cross-pattern example (q=8, N=2, lex)
CROSS_PSI = ((-1, -1), (-1, 6), (0, 0), (0, 5), (1, 1), (1, 4), (2, 2), (2, 3),
             (3, 2), (3, 3), (4, 1), (4, 4), (5, 0), (5, 5), (6, -1), (6, 6))
CROSS_G = {(1, 0): 6, (2, 0): 0, (3, 0): 1, (4, 0): 2, (5, 0): 3, (6, 0): 4,
           (0, 1): 6, (2, 1): 1, (3, 1): 2, (4, 1): 3, (5, 1): 4, (0, 2): 0}
CROSS_SEED_KNOWN = {(0, 0): 4, (1, 0): 5, (2, 0): 1, (3, 0): 1, (4, 0): 4,
                    (5, 0): 0, (6, 0): -1, (7, 0): 2,
                    (2, 1): 3, (4, 1): 5, (5, 1): 6, (6, 1): 3, (7, 1): 4}
CROSS_H22 = 1

# Hermitian code worked decode: erasure set, its basis, the located basis
HERM_PHI1 = ((6, 4), (6, 7))
HERM_G_PHI1 = (
    {(0, 0): 2, (1, 0): 0},
    {(0, 1): 2, (1, 1): 0},
    {(0, 0): 3, (0, 1): 5, (0, 2): 0},
)
HERM_G_LOCATED = (
    {(1, 0): 1, (2, 0): 4, (3, 0): 0},
    {(0, 0): 0, (1, 0): 7, (0, 1): 2, (2, 0): 2, (1, 1): 0},
    {(0, 0): 5, (1, 0): 7, (0, 1): 5, (2, 0): 2, (0, 2): 0},
)
HERM_SYNDROME_00 = 2  # sum of the received word equals alpha^2

# HCRS worked decode
HCRS_PHI1 = ((-1, 4), (2, -1))
HCRS_G_PHI1 = (
    {(1, 0): 6, (2, 0): 0},
    {(0, 0): 0, (1, 0): 2, (0, 1): 0},
)
HCRS_G_LOCATED = (
    {(0, 0): 6, (0, 1): 6, (2, 0): 2, (1, 1): 0, (3, 0): 0},
    {(0, 0): 0, (1, 0): 1, (0, 1): 0, (2, 0): 5, (2, 1): 0},
    {(0, 0): 0, (1, 0): 1, (0, 1): 4, (2, 0): 5, (1, 1): 3, (0, 2): 0},
)

# systematic-encoding redundant sets and their printed recurrence bases
HERM_SYS_PHI = ((-1, -1), (-1, 2), (-1, 6), (1, 0), (1, 1), (1, 3),
                (2, 4), (2, 5), (3, 0))
HERM_SYS_GB = (
    {(1, 0): 2, (2, 0): 7, (3, 0): 1, (4, 0): 0},
    {(1, 0): 7, (2, 0): 0, (3, 0): 4, (1, 1): 3, (2, 1): 4, (3, 1): 0},
    {(2, 0): 4, (3, 0): 7, (1, 1): 4, (2, 1): 7, (1, 2): 5, (2, 2): 0},
    {(1, 0): 2, (2, 0): 7, (3, 0): 1, (0, 1): 0, (0, 3): 0},
)
HCRS_SYS_PHI = ((-1, 3), (0, 2), (0, 4), (1, 1), (1, 5), (2, 0), (2, 3), (2, 6),
                (3, -1), (3, 2), (3, 4), (3, 7), (4, 0), (4, 3), (4, 6), (5, 1),
                (5, 5), (6, 2), (6, 4), (7, 3))
HCRS_SYS_LEADS = ((8, 0), (4, 1), (2, 2), (2, 3), (1, 4), (1, 5), (1, 6), (1, 7), (0, 8))
HCRS_SYS_G0 = {(0, 0): 4, (1, 0): 2, (2, 0): 2, (3, 0): 6, (4, 0): 0, (5, 0): 0,
               (6, 0): 6, (7, 0): 0, (0, 1): 2, (0, 2): 6, (0, 3): 6, (0, 4): 4,
               (0, 5): 0, (0, 6): 2, (0, 7): 0, (8, 0): 0}
HCRS_SYS_G2 = {(1, 0): 4, (2, 0): 2, (3, 0): 5, (5, 0): 7, (0, 1): 4, (1, 1): 6,
               (2, 1): 6, (3, 1): 4, (0, 2): 2, (1, 2): 6, (0, 3): 5, (1, 3): 4,
               (0, 5): 7, (2, 2): 0}
HCRS_SYS_G8 = {(0, 0): 4, (1, 0): 2, (2, 0): 6, (3, 0): 6, (4, 0): 4, (5, 0): 0,
               (6, 0): 2, (7, 0): 0, (0, 1): 2, (0, 2): 2, (0, 3): 6, (0, 4): 0,
               (0, 5): 0, (0, 6): 6, (0, 7): 0, (0, 8): 0}


def _polys(field, ndim, term_dicts):
    return [Polynomial(field, ndim, t) for t in term_dicts]


def located_points(code, printed_terms):
    """Common zero set (within the code's points) of a printed basis."""
    polys = _polys(code.field, code.ndim, printed_terms)
    pts = tuple(p for p in code.psi.points
                if all(g.eval(p) == ZERO for g in polys))
    return PointSet(code.field, code.ndim, pts)


def hermitian_alg2_received(code):
    """A received word consistent with every prose value of the worked
    Hermitian decode: error support equals the zero set of the printed
    located basis (nonzero at both non-erasure points), error values sum
    to alpha^2 so the (0,0) syndrome entry is reproduced, codeword part
    deterministic."""
    f = code.field
    phi1 = PointSet(f, 2, HERM_PHI1)
    located = located_points(code, HERM_G_LOCATED)
    phi2 = [p for p in located.points if p not in set(phi1.points)]
    rng = random.Random(2012)
    h = Spectrum(f, 2, {d: rng.randrange(-1, f.q - 1) for d in code.info_support()})
    c = encode_nonsystematic(h, code)
    # erased positions read zero, so their effective error is -c there;
    # the two unknown-error values must be nonzero and complete the sum
    want = HERM_SYNDROME_00
    for p in phi1.points:
        want = f.add(want, c.values[p])
    for e1 in f.nonzero():
        e2 = f.sub(want, e1)
        if e2 != ZERO:
            break
    r = c.copy()
    r.values[phi2[0]] = f.add(r.values[phi2[0]], e1)
    r.values[phi2[1]] = f.add(r.values[phi2[1]], e2)
    for p in phi1.points:
        r.values[p] = ZERO
    e = Word(f, 2, {p: f.sub(r.values[p], c.values[p]) for p in code.psi.points})
    return r, c, e, h, phi1, located


def run_examples():
    """Re-derive every bundled golden vector; yields (name, ok, detail)."""
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    field = f8()
    order = MonomialOrder("lex")
    psi = PointSet(field, 1, RS_PSI)
    gb, delta = vanishing_gb(psi, order)
    want_g = Polynomial(field, 1, RS_G)
    check("rs/basis", len(gb) == 1 and gb.elements[0] == want_g,
          gb.elements[0].text())
    check("rs/delta", delta.members == frozenset({(0,), (1,), (2,), (3,)}))
    seed = Spectrum(field, 1, dict(RS_SEED))
    ext = extend(seed, gb)
    want_ext = dict(RS_SEED)
    want_ext.update(RS_EXTENSION)
    check("rs/extension", ext.values == want_ext)
    word, omega = canonical_iso(seed, gb, psi), idft_fast(ext)
    omega_seq = tuple(omega.values[(w,)] for w in [ZERO] + list(range(7)))
    check("rs/omega-word", omega_seq == RS_OMEGA_WORD, str(omega_seq))
    check("rs/restriction",
          tuple(word.values[p] for p in psi.points) == RS_RESTRICTION)
    check("rs/proper-transform-inverse",
          proper_transform(word, delta).values == seed.values)

    for i, (spec_terms, want) in enumerate(zip(EV_GEN_SPECTRA, EV_GEN_WORDS)):
        got = evaluate(Spectrum(field, 1, dict(spec_terms)), psi)
        check("dual-pair/ev-%d" % i, tuple(got.values[p] for p in psi.points) == want)
    for i, (seed_terms, ext_terms, cw) in enumerate(
            zip(DUAL_SEEDS, DUAL_EXTENSIONS, DUAL_CODEWORDS)):
        padded = {(a,): seed_terms.get((a,), ZERO) for a in range(4)}
        s = Spectrum(field, 1, padded)
        got_ext = extend(s, gb)
        full = dict(padded)
        full.update(ext_terms)
        check("dual-pair/extension-%d" % i, got_ext.values == full)
        got_cw = canonical_iso(s, gb, psi)
        check("dual-pair/codeword-%d" % i,
              tuple(got_cw.values[p] for p in psi.points) == cw)
    ip = ZERO
    for x, y in zip(EV_GEN_WORDS[0], DUAL_CODEWORDS[0]):
        ip = field.add(ip, field.mul(x, y))
    check("dual-pair/orthogonal", ip == ZERO)

    col_out = idft_kernel(field, list(FIG_COLUMN))
    check("grid/column-kernel", tuple(col_out[:3]) == FIG_COLUMN_OUT, str(col_out))
    row_out = idft_kernel(field, list(FIG_ROW))
    check("grid/row-kernel", tuple(row_out[:3]) == FIG_ROW_OUT, str(row_out))

    cross_psi = PointSet(field, 2, CROSS_PSI)
    gb_cross, d_cross = vanishing_gb(cross_psi, order)
    want_cross = Polynomial(field, 2, CROSS_G)
    check("cross/basis-element", any(g == want_cross for g in gb_cross.elements),
          "; ".join(g.text() for g in gb_cross.elements))
    check("cross/delta",
          d_cross.members == frozenset((a1, a2) for a1 in range(8) for a2 in range(2)))
    seed_vals = {d: CROSS_SEED_KNOWN.get(d, ZERO) for d in d_cross.members}
    ext_cross = extend(Spectrum(field, 2, seed_vals), gb_cross)
    check("cross/h22", ext_cross.values[(2, 2)] == CROSS_H22,
          str(ext_cross.values[(2, 2)]))

    herm = preset("hermitian")
    f = herm.field
    curve = Polynomial(f, 2, {(0, 3): 0, (4, 0): 4, (0, 1): 0})
    check("hermitian/curve-in-basis", any(g == curve for g in herm.gb.elements))
    check("hermitian/delta", all(d[1] <= 2 for d in herm.delta.members)
          and len(herm.delta) == 27)
    phi1 = PointSet(f, 2, HERM_PHI1)
    gb1, _ = vanishing_gb(phi1, herm.order)
    check("hermitian/erasure-basis", gb1.elements == _polys(f, 2, HERM_G_PHI1),
          "; ".join(g.text() for g in gb1.elements))
    r, c, e, h, phi1, located = hermitian_alg2_received(herm)
    synd = syndrome(r, herm.b_list)
    check("hermitian/syndrome-00", synd.values[(0, 0)] == HERM_SYNDROME_00,
          str(synd.values[(0, 0)]))
    res = decode_word(r, phi1, herm)
    gb_loc, _ = vanishing_gb(res.located, herm.order)
    check("hermitian/located-basis", gb_loc.elements == _polys(f, 2, HERM_G_LOCATED),
          "; ".join(g.text() for g in gb_loc.elements))
    check("hermitian/alg2-codeword", res.codeword.values == c.values)
    check("hermitian/alg2-error", res.error.values == e.values)
    check("hermitian/alg1-info", decode_info(r, phi1, herm).values == h.values)

    hcrs = preset("hcrs")
    f = hcrs.field
    check("hcrs/full-grid-basis",
          [g.text() for g in hcrs.gb.elements] == ["4*x1 + 0*x1^9", "4*x2 + 0*x2^9"])
    phi1h = PointSet(f, 2, HCRS_PHI1)
    gb1h, _ = vanishing_gb(phi1h, hcrs.order)
    check("hcrs/erasure-basis", gb1h.elements == _polys(f, 2, HCRS_G_PHI1),
          "; ".join(g.text() for g in gb1h.elements))
    loc_h = located_points(hcrs, HCRS_G_LOCATED)
    check("hcrs/located-size", len(loc_h) == 5
          and all(p in loc_h for p in phi1h.points))
    gb_lh, _ = vanishing_gb(loc_h, hcrs.order)
    check("hcrs/located-basis", gb_lh.elements == _polys(f, 2, HCRS_G_LOCATED),
          "; ".join(g.text() for g in gb_lh.elements))

    sys_phi = PointSet(herm.field, 2, HERM_SYS_PHI)
    gb_sys = systematic_basis(sys_phi, herm)
    check("hermitian/systematic-basis",
          gb_sys.elements == _polys(herm.field, 2, HERM_SYS_GB),
          "; ".join(g.text() for g in gb_sys.elements))
    check("hermitian/systematic-support", check_systematic_support(sys_phi, herm))
    gb_v, d_v = vanishing_gb(sys_phi, herm.order)
    check("hermitian/systematic-delta-is-B",
          d_v.members == herm.b_members and gb_v.elements == gb_sys.elements)
    rng = random.Random(17)
    info = Word(herm.field, 2, {p: rng.randrange(-1, 8)
                                for p in herm.psi.points if p not in set(sys_phi.points)})
    cw = systematic_encode(info, sys_phi, herm)
    zr = Word(herm.field, 2, {p: info.values.get(p, ZERO) for p in herm.psi.points})
    res = decode_word(zr, sys_phi, herm)
    check("hermitian/systematic-equals-erasure-decode",
          res.codeword.values == cw.values
          and all(res.error.values[p] == herm.field.neg(cw.values[p])
                  for p in sys_phi.points))

    sys_phi_h = PointSet(f, 2, HCRS_SYS_PHI)
    gb_sys_h = systematic_basis(sys_phi_h, hcrs)
    check("hcrs/systematic-leads", tuple(gb_sys_h.leading) == HCRS_SYS_LEADS,
          str(gb_sys_h.leading))
    check("hcrs/systematic-g0", gb_sys_h.elements[0] == Polynomial(f, 2, HCRS_SYS_G0),
          gb_sys_h.elements[0].text())
    check("hcrs/systematic-g2", gb_sys_h.elements[2] == Polynomial(f, 2, HCRS_SYS_G2),
          gb_sys_h.elements[2].text())
    check("hcrs/systematic-g8", gb_sys_h.elements[8] == Polynomial(f, 2, HCRS_SYS_G8),
          gb_sys_h.elements[8].text())
    check("hcrs/systematic-vanishes",
          all(g.eval(p) == ZERO for g in gb_sys_h.elements for p in sys_phi_h.points))
    check("hcrs/systematic-support", check_systematic_support(sys_phi_h, hcrs))
    info_h = Word(f, 2, {p: rng.randrange(-1, 8)
                         for p in hcrs.psi.points if p not in set(sys_phi_h.points)})
    cw_h = systematic_encode(info_h, sys_phi_h, hcrs)
    zr_h = Word(f, 2, {p: info_h.values.get(p, ZERO) for p in hcrs.psi.points})
    res_h = decode_word(zr_h, sys_phi_h, hcrs)
    check("hcrs/systematic-equals-erasure-decode",
          res_h.codeword.values == cw_h.values)

    f8_ = field
    omega8 = PointSet(f8_, 1, tuple((w,) for w in f8_.elements()))
    gbo, do = vanishing_gb(omega8, MonomialOrder("lex"))
    check("full-grid/q8-basis",
          [g.text() for g in gbo.elements] == ["0*x1 + 0*x1^8"] and len(do) == 8)
    check("full-grid/q9-delta", len(hcrs.delta) == 81)

    return results
