import itertools

import pytest

from avcodes.gf import ZERO, ONE
from avcodes.transform import Spectrum, Word
from avcodes.maps import PointSet
from avcodes.codes import encode_nonsystematic, is_dual_codeword, syndrome, code_from_config
from avcodes.decoder import (locate, decode_info, decode_word, systematic_encode,
                             systematic_basis, check_systematic_support,
                             op_counter_report, default_t_max, UndecodableError,
                             AmbiguousPatternError, SystematicSupportError)
from avcodes.golden import hermitian_alg2_received, HERM_G_LOCATED


def random_info(code, rng):
    return Spectrum(code.field, code.ndim,
                    {d: rng.randrange(-1, code.field.q - 1) for d in code.info_support()})


def corrupt(code, cw, n_erase, n_err, rng):
    f = code.field
    pts = list(code.psi.points)
    chosen = rng.sample(pts, n_erase + n_err)
    erase, errs = chosen[:n_erase], chosen[n_erase:]
    r = cw.copy()
    for p in erase:
        r.values[p] = ZERO
    for p in errs:
        r.values[p] = f.add(r.values[p], rng.randrange(0, f.q - 1))
    phi1 = PointSet(f, code.ndim, tuple(p for p in code.psi.points if p in set(erase)))
    return r, phi1


def test_no_corruption_fast_path(hermitian, rng):
    cw = encode_nonsystematic(random_info(hermitian, rng), hermitian)
    empty = PointSet(hermitian.field, 2, ())
    res = decode_word(cw, empty, hermitian)
    assert res.codeword.values == cw.values
    assert all(v == ZERO for v in res.error.values.values())
    assert len(res.located) == 0
    rep = op_counter_report()
    assert rep.steps["5a"] == 0 and rep.steps["5b"] == 0


def test_decode_info_no_corruption(hermitian, rng):
    h = random_info(hermitian, rng)
    cw = encode_nonsystematic(h, hermitian)
    empty = PointSet(hermitian.field, 2, ())
    assert decode_info(cw, empty, hermitian).values == h.values


@pytest.mark.parametrize("n_erase,n_err", [(0, 1), (2, 0), (2, 2), (6, 0), (0, 3)])
def test_hermitian_roundtrip_patterns(hermitian, rng, n_erase, n_err):
    assert n_erase + 2 * n_err < hermitian.d_fr
    for _ in range(5):
        h = random_info(hermitian, rng)
        cw = encode_nonsystematic(h, hermitian)
        r, phi1 = corrupt(hermitian, cw, n_erase, n_err, rng)
        assert decode_info(r, phi1, hermitian).values == h.values
        res = decode_word(r, phi1, hermitian)
        assert res.codeword.values == cw.values
        f = hermitian.field
        for p in hermitian.psi.points:
            assert res.error.values[p] == f.sub(r.values[p], cw.values[p])
        assert is_dual_codeword(res.codeword, hermitian)


def test_hcrs_deep_pattern(hcrs, rng):
    # |Phi1| = 2, |Phi2| = 3 sits inside the radius 8 < 9
    h = random_info(hcrs, rng)
    cw = encode_nonsystematic(h, hcrs)
    r, phi1 = corrupt(hcrs, cw, 2, 3, rng)
    assert decode_info(r, phi1, hcrs).values == h.values
    res = decode_word(r, phi1, hcrs)
    assert res.codeword.values == cw.values


def test_rs_like_roundtrip(rs_like, rng):
    for n_erase, n_err in ((0, 1), (2, 0), (1, 0)):
        for _ in range(10):
            h = random_info(rs_like, rng)
            cw = encode_nonsystematic(h, rs_like)
            r, phi1 = corrupt(rs_like, cw, n_erase, n_err, rng)
            assert decode_info(r, phi1, rs_like).values == h.values


def test_locate_reproduces_worked_support(hermitian):
    r, c, e, h, phi1, located = hermitian_alg2_received(hermitian)
    synd = syndrome(r, hermitian.b_list)
    gb, got = locate(synd, phi1, hermitian)
    assert set(got.points) == set(located.points)
    assert [g.terms for g in gb.elements] == [dict(t) for t in HERM_G_LOCATED]


def test_locate_deterministic(hermitian):
    r, c, e, h, phi1, located = hermitian_alg2_received(hermitian)
    synd = syndrome(r, hermitian.b_list)
    a = locate(synd, phi1, hermitian)
    b = locate(synd, phi1, hermitian)
    assert a[1].points == b[1].points
    assert [g.terms for g in a[0].elements] == [g.terms for g in b[0].elements]


def test_default_t_max(hermitian):
    assert default_t_max(hermitian, 0) == 3
    assert default_t_max(hermitian, 2) == 2
    assert default_t_max(hermitian, 6) == 0
    assert default_t_max(hermitian, 9) == 0


def weight3_dual_codeword(code, rng):
    # search a minimum-weight codeword of the rs-like dual code
    f = code.field
    sup = code.info_support()
    for vals in itertools.product(range(-1, f.q - 1), repeat=len(sup)):
        if all(v == ZERO for v in vals):
            continue
        h = Spectrum(f, 1, dict(zip(sup, vals)))
        cw = encode_nonsystematic(h, code)
        wt = sum(1 for v in cw.values.values() if v != ZERO)
        if wt == 3:
            return cw
    raise AssertionError("no weight-3 codeword found")


def test_locate_ambiguous_beyond_radius(rs_like, rng):
    # split a weight-3 codeword across two overlapping weight-2 errors with
    # equal syndromes; at t_max = 2 both supports are minimal and consistent
    f = rs_like.field
    cw = weight3_dual_codeword(rs_like, rng)
    supp = [p for p in rs_like.psi.points if cw.values[p] != ZERO]
    p1, p2, p3 = supp
    t = ONE
    e1 = Word(f, 1, {p: ZERO for p in rs_like.psi.points})
    e1.values[p1] = f.add(cw.values[p1], t)
    e1.values[p2] = cw.values[p2]
    synd = syndrome(e1, rs_like.b_list)
    empty = PointSet(f, 1, ())
    with pytest.raises(AmbiguousPatternError):
        locate(synd, empty, rs_like, t_max=2)


def test_locate_undecodable(rs_like, rng):
    # a weight-2 error whose syndrome matches no support of size <= 1
    f = rs_like.field
    empty = PointSet(f, 1, ())
    pts = list(rs_like.psi.points)
    for v1 in range(0, f.q - 1):
        for v2 in range(0, f.q - 1):
            e = Word(f, 1, {p: ZERO for p in pts})
            e.values[pts[0]] = v1
            e.values[pts[1]] = v2
            synd = syndrome(e, rs_like.b_list)
            try:
                gb, got = locate(synd, empty, rs_like, t_max=1)
            except UndecodableError:
                return
    raise AssertionError("every weight-2 syndrome matched a weight-1 support")


def test_decode_rejects_bad_inputs(hermitian, rng):
    f = hermitian.field
    cw = encode_nonsystematic(random_info(hermitian, rng), hermitian)
    # wrong domain
    bad = Word(f, 2, dict(list(cw.values.items())[:5]))
    with pytest.raises(UndecodableError):
        decode_word(bad, PointSet(f, 2, ()), hermitian)
    # erasing everything leaves no information positions
    with pytest.raises(UndecodableError):
        decode_word(cw, hermitian.psi, hermitian)
    # erasure location outside the code
    with pytest.raises(UndecodableError):
        decode_word(cw, PointSet(f, 2, ((0, 0),) if (0, 0) not in set(hermitian.psi.points)
                    else ((2, 0),)), hermitian)


def test_op_report(hermitian, rng):
    h = random_info(hermitian, rng)
    cw = encode_nonsystematic(h, hermitian)
    r, phi1 = corrupt(hermitian, cw, 2, 1, rng)
    decode_word(r, phi1, hermitian)
    rep = op_counter_report()
    assert set(rep.steps) == {"1", "2", "3", "4", "5a", "5b", "6", "check"}
    assert rep.steps["5b"] <= rep.meta["fast_idft_bound"] == 4374
    assert rep.total == sum(rep.steps.values())
    assert rep.meta["n"] == 27 and rep.meta["N"] == 2
    assert len(rep.lines()) == len(rep.steps) + 1


def test_systematic_zero_info(hermitian):
    from avcodes.golden import HERM_SYS_PHI

    phi = PointSet(hermitian.field, 2, HERM_SYS_PHI)
    info = Word(hermitian.field, 2,
                {p: ZERO for p in hermitian.psi.points if p not in set(phi.points)})
    cw = systematic_encode(info, phi, hermitian)
    assert all(v == ZERO for v in cw.values.values())


def test_systematic_support_errors(hermitian, rs_like, rng):
    f = hermitian.field
    # nine curve points whose x-coordinates take only three values: the
    # row x^3 of the check matrix depends on 1, x, x^2, so det = 0
    cols = [p for p in hermitian.psi.points if p[0] in (ZERO, 0, 1)]
    phi = PointSet(f, 2, tuple(cols))
    assert len(phi) == 9
    assert not check_systematic_support(phi, hermitian)
    info = Word(f, 2, {p: ZERO for p in hermitian.psi.points if p not in set(phi.points)})
    with pytest.raises(SystematicSupportError):
        systematic_encode(info, phi, hermitian)
    with pytest.raises(SystematicSupportError):
        systematic_basis(phi, hermitian)
    # size mismatch
    small = PointSet(f, 2, (hermitian.psi.points[0],))
    with pytest.raises(SystematicSupportError):
        check_systematic_support(small, hermitian)
    # wrong info domain
    from avcodes.golden import HERM_SYS_PHI

    okphi = PointSet(f, 2, HERM_SYS_PHI)
    with pytest.raises(SystematicSupportError):
        systematic_encode(Word(f, 2, {}), okphi, hermitian)


def test_python_support_search_matches_numpy(hermitian, rng):
    # the large-field fallback must agree with the table-driven search
    from avcodes.decoder import _find_supports_np, _find_supports_python

    f = hermitian.field
    for t in (1, 2):
        for trial in range(5):
            cols = [[rng.randrange(-1, 8) for _ in range(4)] for _ in range(7)]
            target = [rng.randrange(-1, 8) for _ in range(4)]
            assert (_find_supports_np(f, target, cols, t)
                    == _find_supports_python(f, target, cols, t))


def test_decode_info_above_dense_tables():
    # q = 2^13 > 4096: Zech-log arithmetic and the pure-Python support search
    code = code_from_config({
        "field": {"p": 2, "m": 13,
                  "primitive_poly": [1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1]},
        "N": 1,
        "order": {"kind": "lex"},
        "points": [[-1], [0], [5], [77], [123], [1000], [4000], [8000]],
        "B": [[0], [1], [2], [3]],
        "d_fr": 5,
    })
    f = code.field
    r = Word(f, 1, {p: ZERO for p in code.psi.points})
    r.values[(5,)] = 17
    r.values[(4000,)] = 4321
    info = decode_info(r, PointSet(f, 1, ()), code)
    assert info.values == {d: ZERO for d in code.info_support()}


def test_systematic_rs_like(rs_like, rng):
    f = rs_like.field
    phi = PointSet(f, 1, rs_like.psi.points[:2])
    assert check_systematic_support(phi, rs_like)
    info_pts = rs_like.psi.points[2:]
    for _ in range(10):
        info = Word(f, 1, {p: rng.randrange(-1, 7) for p in info_pts})
        cw = systematic_encode(info, phi, rs_like)
        assert is_dual_codeword(cw, rs_like)
        assert all(cw.values[p] == info.values[p] for p in info_pts)
        zero_filled = Word(f, 1, {p: info.values.get(p, ZERO) for p in rs_like.psi.points})
        res = decode_word(zero_filled, phi, rs_like)
        assert res.codeword.values == cw.values
        assert all(res.error.values[p] == f.neg(cw.values[p]) for p in phi.points)
