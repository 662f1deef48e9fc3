import itertools
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import scalar_reference as reference
from avcodes import decoder
from avcodes.gf import Field, FieldError, ZERO, ONE, NP_TABLE_Q
from avcodes.mindex import MonomialOrder
from avcodes.ideal import vanishing_gb
from avcodes.transform import Spectrum, Word, point_power, omega_space
from avcodes.maps import PointSet
from avcodes.codes import (CodeSpec, encode_nonsystematic, is_dual_codeword, syndrome,
                           code_from_config)
from avcodes.decoder import (locate, decode_info, decode_word, systematic_encode,
                             systematic_basis, check_systematic_support,
                             default_t_max, UndecodableError,
                             AmbiguousPatternError, SystematicSupportError)
from avcodes.golden import hermitian_alg2_received, HERM_G_LOCATED, HERM_SYS_PHI


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
    rep = res.report
    assert rep.steps["extension"] == 0 and rep.steps["idft"] == 0


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
    outside = PointSet(f, 2, ((0, 0),) if (0, 0) not in set(hermitian.psi.points)
                       else ((2, 0),))
    with pytest.raises(UndecodableError):
        decode_word(cw, outside, hermitian)
    with pytest.raises(UndecodableError, match="not a code point"):
        locate(syndrome(cw, hermitian.b_list), outside, hermitian)


def test_decode_names_a_foreign_erasure_among_n_points(hermitian):
    # n erasures, one of them outside the code: not every position is
    # erased, so the foreign point is what gets reported
    f = hermitian.field
    inside = set(hermitian.psi.points)
    outside = next(p for p in omega_space(f, 2) if p not in inside)
    phi1 = PointSet(f, 2, hermitian.psi.points[1:] + (outside,))
    r = Word(f, 2, {p: ZERO for p in hermitian.psi.points})
    for decode in (decode_word, decode_info):
        with pytest.raises(UndecodableError, match="not a code point"):
            decode(r, phi1, hermitian)


def test_op_report(hermitian, rng):
    h = random_info(hermitian, rng)
    cw = encode_nonsystematic(h, hermitian)
    r, phi1 = corrupt(hermitian, cw, 2, 1, rng)
    rep = decode_word(r, phi1, hermitian).report
    assert list(rep.steps) == ["transform", "locator", "extension", "idft", "subtract",
                               "check"]
    assert rep.steps["idft"] <= rep.meta["fast_idft_bound"] == 4374
    assert rep.total == sum(rep.steps.values())
    assert rep.meta["n"] == 27 and rep.meta["N"] == 2
    assert len(rep.lines()) == len(rep.steps) + 1


def test_step_wall_times(hermitian, rng):
    # each step's wall time sits next to its op count, under the same labels
    h = random_info(hermitian, rng)
    cw = encode_nonsystematic(h, hermitian)
    r, phi1 = corrupt(hermitian, cw, 2, 1, rng)
    for rep in (decode_word(r, phi1, hermitian).report,
                decode_info(r, phi1, hermitian).report):
        assert list(rep.ms) == list(rep.steps)
        assert all(isinstance(v, float) and v >= 0.0 for v in rep.ms.values())


def test_reports_are_per_call(hermitian, rng):
    h = random_info(hermitian, rng)
    cw = encode_nonsystematic(h, hermitian)
    r_a, phi_a = corrupt(hermitian, cw, 0, 3, rng)
    r_b, phi_b = corrupt(hermitian, cw, 4, 0, rng)
    res_a = decode_word(r_a, phi_a, hermitian)
    info_b = decode_info(r_b, phi_b, hermitian)
    assert info_b.values == h.values
    rep_a, rep_b = res_a.report, info_b.report
    assert rep_a.meta["kind"] == "decode_word" and rep_a.meta["located"] == 3
    assert rep_a.meta["locator"]["t"] == 3
    assert rep_b.meta["kind"] == "decode_info" and rep_b.meta["located"] == 4
    assert rep_b.meta["locator"]["t"] == 0
    assert list(rep_b.steps) == ["transform", "locator", "extension", "subtract"]
    assert rep_a.steps is not rep_b.steps
    # decoding A again gives the same counts, and leaves B's report alone
    steps_b = dict(rep_b.steps)
    assert decode_word(r_a, phi_a, hermitian).report.steps == rep_a.steps
    assert info_b.report.steps == steps_b


def test_failed_decode_leaves_no_report(hermitian, rng):
    cw = encode_nonsystematic(random_info(hermitian, rng), hermitian)
    empty = PointSet(hermitian.field, 2, ())
    res = decode_word(cw, empty, hermitian)
    steps = dict(res.report.steps)
    # four errors against a 3-error radius: no support of size <= 3
    pts = hermitian.psi.points
    r = cw.copy()
    for j in (0, 5, 11, 20):
        r.values[pts[j]] = hermitian.field.add(r.values[pts[j]], 1)
    with pytest.raises(UndecodableError):
        decode_word(r, empty, hermitian)
    assert not hasattr(decoder, "op_counter_report")
    assert not hasattr(decoder, "_LAST_REPORT")
    assert res.report.steps == steps


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


@pytest.mark.parametrize("bad", [8, 50, -2, 1.5, True])
@pytest.mark.parametrize("entry", ["decode_info", "decode_word", "systematic_encode",
                                   "encode_nonsystematic"])
def test_out_of_range_values_rejected(hermitian, rng, entry, bad):
    # valid element codes of GF(9) are -1..7
    f = hermitian.field
    h = random_info(hermitian, rng)
    if entry == "encode_nonsystematic":
        pos = hermitian.info_support()[2]
        h.values[pos] = bad
        call = lambda: encode_nonsystematic(h, hermitian)
        what = "information spectrum"
    elif entry == "systematic_encode":
        phi = PointSet(f, 2, HERM_SYS_PHI)
        info = Word(f, 2, {p: ZERO for p in hermitian.psi.points if p not in set(phi.points)})
        pos = next(iter(info.values))
        info.values[pos] = bad
        call = lambda: systematic_encode(info, phi, hermitian)
        what = "information word"
    else:
        r = encode_nonsystematic(h, hermitian)
        pos = hermitian.psi.points[3]
        r.values[pos] = bad
        fn = decode_info if entry == "decode_info" else decode_word
        call = lambda: fn(r, PointSet(f, 2, ()), hermitian)
        what = "received word"
    # 1.5 would die inside the tables, True would pass for the code 1
    msg = r"^%s at \(%d, %d\): bad element code %s" % (what, *pos, re.escape(repr(bad)))
    with pytest.raises(FieldError, match=msg):
        call()


SEARCH_FIELDS = {q: Field(*spec) for q, spec in {
    4: (2, 2, (1, 1, 1)),
    8: (2, 3, (1, 1, 0, 1)),
    9: (3, 2, (2, 1, 1)),
    16: (2, 4, (1, 1, 0, 0, 1)),
}.items()}
# odd p above NP_TABLE_Q: the search adds encodings digit by digit
GF3_8 = Field(3, 8, (2, 0, 0, 0, 0, 1, 0, 0, 1))


@st.composite
def support_systems(draw):
    """(field, target, columns, t_max) shaped like the locator's input
    after erasure reduction: nonzero columns, some of them equal or
    proportional to others, coordinates that are zero everywhere, and
    often a planted combination of up to t_max columns as the target.
    GF(3^8) gets t_max = 2 and at most 2 short columns, so that the
    oracle's enumeration stays fast."""
    q = draw(st.sampled_from(sorted(SEARCH_FIELDS) + [GF3_8.q]))
    f = SEARCH_FIELDS.get(q, GF3_8)
    t_max = 2 if q > NP_TABLE_Q else 4
    ncand = draw(st.integers(1, 2 if q > NP_TABLE_Q else 4 if q == 16 else 6))
    veclen = draw(st.integers(1, 4 if q > NP_TABLE_Q else 12))
    elem = st.integers(-1, q - 2)
    cols = draw(st.lists(st.lists(elem, min_size=veclen, max_size=veclen),
                         min_size=ncand, max_size=ncand))
    for src, dst, c in draw(st.lists(st.tuples(st.integers(0, ncand - 1),
                                               st.integers(0, ncand - 1),
                                               st.integers(0, q - 2)), max_size=2)):
        cols[dst] = [f.mul(c, x) for x in cols[src]]
    size = draw(st.integers(0, min(t_max, ncand)))
    if size:
        support = draw(st.lists(st.integers(0, ncand - 1), min_size=size,
                                max_size=size, unique=True))
        target = [ZERO] * veclen
        for i in support:
            c = draw(st.integers(0, q - 2))
            target = [f.add(a, f.mul(c, x)) for a, x in zip(target, cols[i])]
    else:
        target = draw(st.lists(elem, min_size=veclen, max_size=veclen))
    dead = draw(st.sets(st.integers(0, veclen - 1), max_size=veclen - 1))
    cols = [[ZERO if j in dead else x for j, x in enumerate(col)] for col in cols]
    target = [ZERO if j in dead else x for j, x in enumerate(target)]
    assume(any(x != ZERO for x in target))
    assume(all(any(x != ZERO for x in col) for col in cols))
    return f, target, cols, t_max


@settings(max_examples=60, deadline=None)
@given(support_systems(), st.booleans())
def test_support_search_matches_python_oracle(system, narrow_keys):
    # the sort-join search equals plain meet-in-the-middle enumeration for
    # every t, whether one search serves t = 1..t_max or a fresh one serves
    # each t; one-symbol keys make hash collisions the rule, which the
    # exact re-check must filter out
    f, target, cols, t_max = system
    width = (lambda q, veclen, largest: 1) if narrow_keys else decoder._key_width
    with mock.patch.object(decoder, "_key_width", width):
        shared = decoder._SupportSearch(f, target, cols, t_max)
        for t in range(1, t_max + 1):
            want = reference.find_supports(f, target, cols, t)
            assert shared.supports(t) == want
            assert decoder._SupportSearch(f, target, cols, t).supports(t) == want


def test_locator_table_budget(hcrs):
    # the size-3 half table of hcrs (C(81,3) * 8^3 rows) is over the
    # budget at any key width; the size-2 one that full-radius decoding
    # builds is far below it
    assert decoder.half_table_bytes(81, 3, 9, 1) > decoder.TABLE_BUDGET
    assert 10 * decoder.half_table_bytes(81, 2, 9, 20) < decoder.TABLE_BUDGET
    # so a search for 5 or more errors is refused before that table exists
    f = hcrs.field
    pts = list(hcrs.psi.points)
    e = Word(f, 2, {p: ZERO for p in pts})
    for j, v in zip((3, 17, 29, 40, 58, 77), (0, 1, 2, 3, 4, 5)):
        e.values[pts[j]] = v
    synd = syndrome(e, hcrs.b_list)
    with pytest.raises(UndecodableError, match="budget"):
        locate(synd, PointSet(f, 2, ()), hcrs, t_max=6)


def test_locator_report(hermitian, rng):
    h = random_info(hermitian, rng)
    cw = encode_nonsystematic(h, hermitian)
    r, phi1 = corrupt(hermitian, cw, 0, 3, rng)
    loc = decode_word(r, phi1, hermitian).report.meta["locator"]
    # t = 1, 2, 3 use the size-1 half, its target side, and the size-2
    # target side: 1 + 27*8 + 27*8 + C(27,2)*8^2 rows
    assert loc == {"t": 3, "candidates": 27, "r": 9, "entries": 22897,
                   "matches": loc["matches"]}
    assert loc["matches"] >= 1
    res = decode_word(cw, PointSet(hermitian.field, 2, ()), hermitian)
    assert res.report.meta["locator"]["t"] == 0


def test_code_columns_cached(hermitian):
    f = hermitian.field
    before = f.op_count
    rows = [hermitian.columns[hermitian.point_row[p]] for p in hermitian.psi.points]
    assert f.op_count == before
    assert hermitian.columns.shape == (hermitian.n, len(hermitian.b_list))
    for p, row in zip(hermitian.psi.points, rows):
        assert f.np_codes(row) == [point_power(f, p, b) for b in hermitian.b_list]


# fields above NP_TABLE_Q: p = 2 adds encodings by XOR, odd p digit by digit
LARGE_FIELDS = {
    "GF(2^13)": {"p": 2, "m": 13,
                 "primitive_poly": [1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1]},
    "GF(3^8)": {"p": 3, "m": 8, "primitive_poly": [2, 0, 0, 0, 0, 1, 0, 0, 1]},
}


def _line_code(field, n, nb):
    """An N = 1 code over a large field: n points (zero and spread powers
    of alpha), B = {0, ..., nb - 1} and d_fr = nb + 1."""
    q = field["p"] ** field["m"]
    return code_from_config({
        "field": field,
        "N": 1,
        "order": {"kind": "lex"},
        "points": [[-1]] + [[k * 97 % (q - 1)] for k in range(n - 1)],
        "B": [[b] for b in range(nb)],
        "d_fr": nb + 1,
    })


def test_decode_info_above_dense_tables(rng):
    # q > 4096: Zech-log arithmetic and the sort-join search over the
    # encodings of both large-field paths, two errors on a random codeword
    for field in LARGE_FIELDS.values():
        code = _line_code(field, 8, 4)
        f = code.field
        assert f.q > NP_TABLE_Q and f._zech is not None
        h = random_info(code, rng)
        cw = encode_nonsystematic(h, code)
        r, phi1 = corrupt(code, cw, 0, 2, rng)
        info = decode_info(r, phi1, code)
        assert info.values == h.values
        assert info.report.meta["locator"]["t"] == 2
        res = decode_word(r, phi1, code)
        assert res.codeword.values == cw.values
        assert len(res.located) == 2


@pytest.mark.parametrize("name", sorted(LARGE_FIELDS))
def test_large_field_search_refused_by_budget(name, rng):
    # three errors among 40 points: the size-1 halves of t = 1, 2 are
    # searched, and the size-2 half of t = 3 (about 780 q^2 rows) is
    # refused before it is built
    code = _line_code(LARGE_FIELDS[name], 40, 6)
    f = code.field
    r = Word(f, 1, {p: ZERO for p in code.psi.points})
    for p in rng.sample(list(code.psi.points), 3):
        r.values[p] = rng.randrange(0, f.q - 1)
    start = time.perf_counter()
    with pytest.raises(UndecodableError, match="support search of size 3 .* budget"):
        decode_info(r, PointSet(f, 1, ()), code)
    assert time.perf_counter() - start < 1.0


def test_large_field_search_memory_within_estimate(rng):
    # one t = 2 search over GF(3^8), digit-by-digit sums, 40 candidates:
    # its traced peak stays below the half-table estimate it reserved
    f = GF3_8
    cols = [[rng.randrange(-1, f.q - 1) for _ in range(6)] for _ in range(40)]
    target = [rng.randrange(-1, f.q - 1) for _ in range(6)]
    tracemalloc.start()
    try:
        search = decoder._SupportSearch(f, target, cols, 2)
        search.supports(1)
        search.supports(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert search.stats["entries"] == 1 + 2 * 40 * (f.q - 1)
    assert peak < sum(search.reserved.values())


def test_decode_info_zech_range():
    # 512 < q = 2^10 <= 4096: Zech arithmetic and the sort-join search
    code = code_from_config({
        "field": {"p": 2, "m": 10,
                  "primitive_poly": [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]},
        "N": 1,
        "order": {"kind": "lex"},
        "points": [[-1], [0], [3], [17], [100], [250], [511], [700], [900], [1022]],
        "B": [[0], [1], [2], [3]],
        "d_fr": 5,
    })
    f = code.field
    assert f._zech is not None and f.q <= NP_TABLE_Q
    r = Word(f, 1, {p: ZERO for p in code.psi.points})
    r.values[(17,)] = 5
    r.values[(700,)] = 1000
    info = decode_info(r, PointSet(f, 1, ()), code)
    assert info.values == {d: ZERO for d in code.info_support()}
    assert info.report.meta["locator"]["t"] == 2


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


@st.composite
def systematic_cases(draw):
    """A small random code (GF(4)..GF(16), N = 1 or 2, random points,
    random check set B inside the delta set) with a redundant-position set
    Phi that passes check_systematic_support, and an information word."""
    q = draw(st.sampled_from(sorted(SEARCH_FIELDS)))
    f = SEARCH_FIELDS[q]
    ndim = draw(st.sampled_from([1, 2]))
    coords = st.tuples(*[st.integers(-1, q - 2)] * ndim)
    pts = tuple(draw(st.lists(coords, min_size=2, max_size=min(q ** ndim, 10),
                              unique=True)))
    order = MonomialOrder(draw(st.sampled_from(["lex", "grlex"])))
    psi = PointSet(f, ndim, pts)
    _, delta = vanishing_gb(psi, order)
    members = order.sort(delta.members)
    b_list = draw(st.lists(st.sampled_from(members), min_size=1,
                           max_size=len(members) - 1, unique=True))
    # d_fr only sets the locator's t_max, which is 0 for |Phi| = |B|
    code = CodeSpec(f, ndim, order, psi, b_list, 1)
    rnd = draw(st.randoms(use_true_random=False))
    for _ in range(10):
        phi = PointSet(f, ndim, tuple(sorted(rnd.sample(pts, len(b_list)),
                                             key=pts.index)))
        if check_systematic_support(phi, code):
            break
    else:
        assume(False)
    info = Word(f, ndim, {p: rnd.randrange(-1, q - 1) for p in pts if p not in phi.points})
    return code, phi, info


def test_systematic_encode_equals_erasure_decoding():
    worklist = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(systematic_cases())
    def check(case):
        code, phi, info = case
        f = code.field
        word = systematic_encode(info, phi, code)
        assert is_dual_codeword(word, code)
        assert all(word.values[p] == v for p, v in info.values.items())
        padded = Word(f, code.ndim, {p: info.values.get(p, ZERO) for p in code.psi.points})
        res = decode_word(padded, phi, code)
        assert res.codeword.values == word.values
        worklist.append(not systematic_basis(phi, code).sequential)

    check()
    # the check-set families with forward tails take extend's worklist path
    assert any(worklist) and not all(worklist)
