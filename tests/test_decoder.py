import collections
import itertools
import math
import random
import re
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import scalar_reference as reference
from scalar_reference import idft_at
from test_codes import HERM16
from avcodes import codes, decoder, ideal, maps
from avcodes.gf import Field, FieldError, ZERO, ONE
from avcodes.mindex import MonomialOrder
from avcodes.ideal import IdealError, index_array, lemma_family, vanishing_gb, _extension_array
from avcodes.transform import (Spectrum, Word, dft_partial, point_power, omega_space,
                               power_matrix, _element_array)
from avcodes.maps import PointSet
from avcodes.codes import (CodeSpec, POINT_SET_CACHE_SIZE, encode_nonsystematic,
                           is_dual_codeword, syndrome, code_from_config, preset)
from avcodes.decoder import (locate, decode_info, decode_word, systematic_encode,
                             systematic_basis, check_systematic_support,
                             default_t_max, UndecodableError, SystematicSupportError)
from avcodes.golden import (hermitian_alg2_received, located_points, HERM_G_LOCATED,
                            HERM_PHI1, HERM_SYS_PHI, HCRS_G_LOCATED, HCRS_PHI1, HCRS_SYS_PHI)


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
    assert list(res.report.steps) == ["transform", "locator", "subtract", "check"]


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
    got = locate(synd, phi1, hermitian).located
    assert set(got.points) == set(located.points)
    gb = vanishing_gb(got, hermitian.order)[0]
    assert [g.terms for g in gb.elements] == [dict(t) for t in HERM_G_LOCATED]


def test_locate_deterministic(hermitian):
    r, c, e, h, phi1, located = hermitian_alg2_received(hermitian)
    synd = syndrome(r, hermitian.b_list)
    a = locate(synd, phi1, hermitian)
    b = locate(synd, phi1, hermitian)
    assert a.located.points == b.located.points
    assert (a.values == b.values).all() and a.stats == b.stats


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


def _column(code, p):
    return [point_power(code.field, p, b) for b in code.b_list]


def _consistent(code, synd, points):
    """Whether the syndrome is a combination of the columns of the points."""
    elim = reference.Eliminator(code.field)
    for p in points:
        elim.insert(_column(code, p), p)
    residual, _ = elim.reduce([synd.values[b] for b in code.b_list])
    return all(x == ZERO for x in residual)


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
    target = [synd.values[b] for b in rs_like.b_list]
    columns = [_column(rs_like, p) for p in rs_like.psi.points]
    # e1 and e1 - cw: no single column fits, both pairs do
    pos = {p: i for i, p in enumerate(rs_like.psi.points)}
    assert reference.find_supports(f, target, columns, 1) == []
    pairs = reference.find_supports(f, target, columns, 2)
    assert {tuple(sorted((pos[p1], pos[p]))) for p in (p2, p3)} <= set(pairs)
    # the locator settles on one consistent support or gives up
    empty = PointSet(f, 1, ())
    try:
        located = locate(synd, empty, rs_like, t_max=2).located
    except UndecodableError:
        return
    assert 1 <= len(located) <= 2 and _consistent(rs_like, synd, located.points)


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
                locate(synd, empty, rs_like, t_max=1)
            except UndecodableError:
                return
    raise AssertionError("every weight-2 syndrome matched a weight-1 support")


@pytest.mark.parametrize("t_max", [1.5, 2.5, True, -1])
@pytest.mark.parametrize("fn", [decode_info, decode_word], ids=["decode_info", "decode_word"])
def test_t_max_must_be_a_nonnegative_integer(hermitian, rng, fn, t_max):
    # a pivot count never equals 1.5 or 2.5, so the limit used to be
    # dropped and all three errors decoded; True would stand for 1
    cw = encode_nonsystematic(random_info(hermitian, rng), hermitian)
    r, phi1 = corrupt(hermitian, cw, 0, 3, rng)
    with pytest.raises(UndecodableError, match="more than t_max = 2 pivots"):
        fn(r, phi1, hermitian, t_max=2)
    with pytest.raises(ValueError, match="nonnegative integer, not %r" % (t_max,)):
        fn(r, phi1, hermitian, t_max=t_max)
    assert decode_word(r, phi1, hermitian, t_max=np.int64(3)).codeword.values == cw.values


@pytest.mark.parametrize("bad", [100, -2, 8, 2.0, True])
def test_locate_checks_the_syndrome_values(hermitian, rng, bad):
    # valid element codes of GF(9) are -1..7: 100 used to escape as an
    # IndexError, -2 was read as zero, and 8, 2.0 and True ran the locator
    # until it found more than t_max pivots
    f = hermitian.field
    synd = syndrome(encode_nonsystematic(random_info(hermitian, rng), hermitian),
                    hermitian.b_list)
    at = hermitian.b_list[4]
    synd.values[at] = bad
    before = f.op_count
    msg = r"^syndrome at \(%d, %d\): bad element code %s" % (*at, re.escape(repr(bad)))
    with pytest.raises(FieldError, match=msg):
        locate(synd, PointSet(f, 2, ()), hermitian)
    assert f.op_count == before


def test_locate_needs_every_check_index(hermitian, rng):
    f = hermitian.field
    synd = syndrome(encode_nonsystematic(random_info(hermitian, rng), hermitian),
                    hermitian.b_list)
    for b in hermitian.b_list[2:5]:
        del synd.values[b]
    before = f.op_count
    with pytest.raises(UndecodableError, match="^syndrome is missing 3 check indices$"):
        locate(synd, PointSet(f, 2, ()), hermitian)
    assert f.op_count == before


def test_decoders_call_locate_by_its_module_name(hermitian, rng, monkeypatch):
    # a wrapper bound to decoder.locate (a tracer's per-layer span) sees one
    # call per decode, erasure-only decodes included
    calls = []

    def spy(*args, **kwargs):
        calls.append(len(args[1]))
        return locate(*args, **kwargs)

    monkeypatch.setattr(decoder, "locate", spy)
    cw = encode_nonsystematic(random_info(hermitian, rng), hermitian)
    for n_erase, n_err in ((2, 0), (0, 2), (1, 1)):
        r, phi1 = corrupt(hermitian, cw, n_erase, n_err, rng)
        assert decode_word(r, phi1, hermitian).codeword.values == cw.values
        decode_info(r, phi1, hermitian)
    assert calls == [2, 2, 0, 0, 1, 1]


OTHER_FIELDS = {"GF(8)": Field(2, 3, (1, 1, 0, 1)), "GF(9)-221": Field(3, 2, (2, 2, 1))}


@pytest.mark.parametrize("other", sorted(OTHER_FIELDS))
@pytest.mark.parametrize("entry", ["locate", "decode_info", "decode_word", "systematic_encode"])
def test_inputs_over_another_field_rejected(entry, other, rng):
    # a GF(8) word used to fail inside the transform or the locator, a
    # GF(9) word under another polynomial to find more than t_max pivots,
    # and systematic encoding to fail in the extension: now each entry
    # names both fields before any work.  An equal field object passes.
    code = preset("hermitian")
    f, g = code.field, OTHER_FIELDS[other]
    phi = PointSet(f, 2, HERM_SYS_PHI)
    if entry == "systematic_encode":
        vec = Word(f, 2, {p: rng.randrange(-1, 7) for p in code.psi.points if p not in phi})
        call, error = lambda v: systematic_encode(v, phi, code), SystematicSupportError
    else:
        vec = encode_nonsystematic(random_info(code, rng), code)
        if entry == "locate":
            vec = syndrome(vec, code.b_list)
        fn = {"locate": locate, "decode_info": decode_info, "decode_word": decode_word}[entry]
        call, error = lambda v: fn(v, PointSet(f, 2, ()), code), UndecodableError
    what = {"locate": "syndrome", "systematic_encode": "information word"}.get(
        entry, "received word")
    msg = "%s over %r (polynomial %s), code over %r (polynomial %s)" % (
        what, g, g.primitive_poly, f, f.primitive_poly)
    before = f.op_count
    with pytest.raises(error, match="^" + re.escape(msg)):
        call(replace(vec, field=g))
    assert f.op_count == before and not code._point_sets
    equal = Field(f.p, f.m, f.primitive_poly)
    assert equal is not f
    call(replace(vec, field=equal))


@pytest.mark.parametrize("other", sorted(OTHER_FIELDS))
@pytest.mark.parametrize("entry", ["locate", "decode_info", "decode_word", "systematic_encode",
                                   "systematic_basis", "check_systematic_support"])
def test_point_sets_over_another_field_rejected(entry, other, rng):
    # an erasure set or a redundant set Phi over GF(8) (points of the code
    # whose codes GF(8) has) used to pass every entry point; now each
    # names both fields before any work.  An equal field object passes.
    code = preset("hermitian")
    f, g = code.field, OTHER_FIELDS[other]
    phi = PointSet(f, 2, HERM_SYS_PHI)
    info = Word(f, 2, {p: rng.randrange(-1, 7) for p in code.psi.points if p not in phi})
    r = encode_nonsystematic(random_info(code, rng), code)
    synd = syndrome(r, code.b_list)
    calls = {
        "locate": lambda s: locate(synd, s, code),
        "decode_info": lambda s: decode_info(r, s, code),
        "decode_word": lambda s: decode_word(r, s, code),
        "systematic_encode": lambda s: systematic_encode(info, s, code),
        "systematic_basis": lambda s: systematic_basis(s, code),
        "check_systematic_support": lambda s: check_systematic_support(s, code),
    }
    systematic = entry.startswith(("systematic", "check"))
    what, error = (("Phi", SystematicSupportError) if systematic
                   else ("erasure set", UndecodableError))
    points = phi.points if systematic else phi.points[:2]
    msg = "%s over %r (polynomial %s), code over %r (polynomial %s)" % (
        what, g, g.primitive_poly, f, f.primitive_poly)
    before = f.op_count
    with pytest.raises(error, match="^" + re.escape(msg)):
        calls[entry](PointSet(g, 2, points))
    assert f.op_count == before and not code._point_sets
    equal = Field(f.p, f.m, f.primitive_poly)
    assert equal is not f
    calls[entry](PointSet(equal, 2, points))


@pytest.mark.parametrize("entry", ["decode_word", "decode_info", "locate", "systematic_encode",
                                   "check_systematic_support", "systematic_basis",
                                   "encode_nonsystematic", "is_dual_codeword"])
def test_entry_points_refuse_non_vectors_and_other_n(entry, rng):
    # a list, tuple or dict where a Word, Spectrum or PointSet belongs used
    # to leak AttributeError ('list' object has no attribute 'field'), and
    # an empty argument of another N passed: decode_word returned a result
    # and encode_nonsystematic a Word.  Each entry now refuses both with
    # its documented error before any work.
    code = preset("hermitian")
    f = code.field
    p = code.psi.points[0]
    phi = PointSet(f, 2, HERM_SYS_PHI)
    cw = encode_nonsystematic(random_info(code, rng), code)
    info = Word(f, 2, {q: v for q, v in cw.values.items() if q not in phi})
    none = PointSet(f, 2, ())
    # (call, a good argument, the argument as a plain container, the
    # argument's kind and name, the documented error)
    cases = {
        "decode_word": (lambda v: decode_word(cw, v, code), none, [p], PointSet,
                        "erasure set", UndecodableError),
        "decode_info": (lambda v: decode_info(cw, v, code), none, (p,), PointSet,
                        "erasure set", UndecodableError),
        "locate": (lambda v: locate(v, none, code), syndrome(cw, code.b_list),
                   dict(syndrome(cw, code.b_list).values), Spectrum, "syndrome",
                   UndecodableError),
        "systematic_encode": (lambda v: systematic_encode(info, v, code), phi,
                              list(phi.points), PointSet, "Phi", SystematicSupportError),
        "check_systematic_support": (lambda v: check_systematic_support(v, code), phi,
                                     list(phi.points), PointSet, "Phi",
                                     SystematicSupportError),
        "systematic_basis": (lambda v: systematic_basis(v, code), phi, list(phi.points),
                             PointSet, "Phi", SystematicSupportError),
        "encode_nonsystematic": (lambda v: encode_nonsystematic(v, code),
                                 random_info(code, rng), {}, Spectrum,
                                 "information spectrum", codes.CodeConfigError),
        "is_dual_codeword": (lambda v: is_dual_codeword(v, code), cw, dict(cw.values), Word,
                             "word", codes.CodeConfigError),
    }
    call, good, plain, kind, what, error = cases[entry]
    before = f.op_count
    with pytest.raises(error, match="^%s must be a %s, not %s$" % (
            what, kind.__name__, type(plain).__name__)):
        call(plain)
    other = replace(good, ndim=1, **{"points" if kind is PointSet else "values":
                                     () if kind is PointSet else {}})
    with pytest.raises(error, match="^%s has N = 1, code has N = 2$" % what):
        call(other)
    assert f.op_count == before
    call(good)


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
    assert list(rep.steps) == ["transform", "locator", "subtract", "check"]
    assert not {"extension", "idft", "fast_idft_bound"} & set(rep.meta)
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


def test_reports_are_per_call(rng):
    hermitian = preset("hermitian")
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
    assert list(rep_b.steps) == ["transform", "locator", "spectrum", "subtract"]
    assert rep_a.steps is not rep_b.steps
    # decoding A again reads Phi1's projection from the store and builds
    # nothing: the same counts but the projection's build, and B's report
    # is left alone
    steps_b = dict(rep_b.steps)
    again = decode_word(r_a, phi_a, hermitian).report
    assert not rep_a.meta["point_sets_reused"] and again.meta["point_sets_reused"]
    projection = _build_ops(preset("hermitian"), phi_a.points)
    assert again.steps == dict(rep_a.steps, locator=rep_a.steps["locator"] - projection)
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
    # size mismatch, also for a Phi whose vanishing ideal's delta set lies in B
    for size in (1, 4):
        small = PointSet(f, 2, hermitian.psi.points[:size])
        for call in (check_systematic_support, systematic_basis):
            with pytest.raises(SystematicSupportError,
                               match=re.escape("|Phi| = %d but |B| = 9" % size)):
                call(small, hermitian)
    # nine points off the curve: the same error from all three entries
    inside = set(hermitian.psi.points)
    off = PointSet(f, 2, tuple(p for p in omega_space(f, 2) if p not in inside)[:9])
    info = Word(f, 2, {p: ZERO for p in hermitian.psi.points})
    for call in (lambda: check_systematic_support(off, hermitian),
                 lambda: systematic_basis(off, hermitian),
                 lambda: systematic_encode(info, off, hermitian)):
        with pytest.raises(SystematicSupportError, match="not a subset of the code's point set"):
            call()
    # wrong info domain
    from avcodes.golden import HERM_SYS_PHI

    okphi = PointSet(f, 2, HERM_SYS_PHI)
    with pytest.raises(SystematicSupportError):
        systematic_encode(Word(f, 2, {}), okphi, hermitian)
    # an information word on all of Psi, or on Psi \ Phi with one point of
    # Phi or one point off the code, is refused before any work: the same
    # error, no count and no store entry
    code = preset("hermitian")
    rest = {p: ZERO for p in code.psi.points if p not in set(okphi.points)}
    foreign = next(p for p in omega_space(f, 2) if p not in code.psi)
    for values in ({p: ZERO for p in code.psi.points}, rest | {okphi.points[0]: 1},
                   rest | {foreign: 1}):
        before = code.field.op_count
        with pytest.raises(SystematicSupportError,
                           match=r"^information word must be indexed by Psi \\ Phi$"):
            systematic_encode(Word(code.field, 2, values), okphi, code)
        assert code.field.op_count == before and not code._point_sets


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


SMALL_FIELDS = {q: Field(*spec) for q, spec in {
    4: (2, 2, (1, 1, 1)),
    8: (2, 3, (1, 1, 0, 1)),
    9: (3, 2, (2, 1, 1)),
    16: (2, 4, (1, 1, 0, 0, 1)),
}.items()}


@st.composite
def located_cases(draw):
    """A random code over GF(4), GF(8) or GF(9) (N = 1, 2 or 3; lex, grlex
    or weighted_grlex; random points or a product grid; B a prefix, a
    hyperbolic set or a random subset of the delta set; d_fr its Feng-Rao
    bound) and an erasure-and-error pattern with |Phi1| + 2t < d_fr: the
    erasure set and the error word."""
    q = draw(st.sampled_from([4, 8, 9]))
    f = SMALL_FIELDS[q]
    ndim = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(MonomialOrder.KINDS))
    weights = (tuple(draw(st.integers(1, 3)) for _ in range(ndim))
               if kind == "weighted_grlex" else None)
    order = MonomialOrder(kind, weights)

    def large(lo, hi):
        # hypothesis starts from small draws; these sizes start large
        return hi - draw(st.integers(0, max(0, hi - lo)))

    elem = st.integers(-1, q - 2)
    if ndim > 1 and draw(st.booleans()):
        # a product grid, whose normal forms are monomials; at most 27
        # points at N = 3
        side = 4 if ndim == 2 else 3
        axes = [draw(st.lists(elem, min_size=large(2, side), max_size=side, unique=True))
                for _ in range(ndim)]
        pts = tuple(itertools.product(*axes))
    else:
        n = large(min(q ** ndim, 6), min(q ** ndim, 16))
        pts = tuple(draw(st.lists(st.tuples(*[elem] * ndim), min_size=n, max_size=n,
                                  unique=True)))
    psi = PointSet(f, ndim, pts)
    members = order.sort(vanishing_gb(psi, order)[1].members)
    # two to half the delta set, so that d_fr leaves room for errors
    size = large(min(2, len(members) // 2), len(members) // 2)
    pick = draw(st.sampled_from(["prefix", "hyperbolic", "subset"]))
    if pick == "prefix":
        b_list = members[:size]
    elif pick == "hyperbolic":
        # the first `size` indices by the product of (b_i + 1), as hcrs
        b_list = sorted(members, key=lambda b: math.prod(x + 1 for x in b))[:size]
    else:
        b_list = draw(st.lists(st.sampled_from(members), min_size=size, max_size=size,
                               unique=True))
    code = CodeSpec(f, ndim, order, psi, b_list, 1)
    code.d_fr = code.feng_rao
    assume(code.d_fr >= 2)
    # the full radius half the time, where the votes come in
    t = (code.d_fr - 1) // 2
    t = t if draw(st.booleans()) else draw(st.integers(0, t))
    n_erase = draw(st.integers(0, min(code.d_fr - 1 - 2 * t, len(pts) - t)))
    rnd = draw(st.randoms(use_true_random=False))
    chosen = rnd.sample(pts, n_erase + t)
    e = Word(f, ndim, {p: ZERO for p in pts})
    for p in chosen[:n_erase]:
        e.values[p] = rnd.randrange(-1, q - 1)
    for p in chosen[n_erase:]:
        e.values[p] = rnd.randrange(0, q - 1)
    phi1 = PointSet(f, ndim, tuple(p for p in pts if p in set(chosen[:n_erase])))
    return code, phi1, e


def _oracle_support(code, synd, phi1):
    """The unique minimal support off Phi1 consistent with the syndrome,
    from the plain enumeration after projecting out the erasure columns."""
    f = code.field
    elim = reference.Eliminator(f)
    for p in phi1.points:
        elim.insert(_column(code, p), p)
    target, _ = elim.reduce([synd.values[b] for b in code.b_list])
    if all(x == ZERO for x in target):
        return set()
    cands = [p for p in code.psi.points if p not in set(phi1.points)]
    cols = [elim.reduce(_column(code, p))[0] for p in cands]
    live = [i for i, col in enumerate(cols) if any(x != ZERO for x in col)]
    for t in range(1, len(live) + 1):
        supports = reference.find_supports(f, target, [cols[i] for i in live], t)
        if supports:
            assert len(supports) == 1
            return {cands[live[i]] for i in supports[0]}
    raise AssertionError("no consistent support")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(located_cases())
def test_locate_matches_oracle_inside_radius(case):
    # inside the Feng-Rao radius the voting locator returns the oracle's
    # unique minimal support, which is the true error support
    code, phi1, e = case
    synd = syndrome(e, code.b_list)
    want = _oracle_support(code, synd, phi1)
    erased = set(phi1.points)
    assert want == {p for p, v in e.values.items() if v != ZERO and p not in erased}
    loc = locate(synd, phi1, code)
    assert set(loc.located.points) == erased | want
    assert loc.stats["t"] == len(want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(located_cases(), st.randoms(use_true_random=False))
def test_decode_round_trip_inside_radius(case, rnd):
    # the drawn erasures and errors on an encoded random spectrum: both
    # decoders recover it exactly
    code, phi1, e = case
    f = code.field
    h = Spectrum(f, code.ndim, {d: rnd.randrange(-1, f.q - 1) for d in code.info_support()})
    cw = encode_nonsystematic(h, code)
    r = Word(f, code.ndim, {p: ZERO if p in phi1 else f.add(v, e.values[p])
                            for p, v in cw.values.items()})
    res = decode_word(r, phi1, code)
    assert res.codeword.values == cw.values
    assert decode_info(r, phi1, code).values == h.values
    # the locator's values are the lemma path's on the located set
    if len(res.located):
        lemma = _lemma_values(code, res.located.points, syndrome(r, code.b_list))
        assert {p: res.error.values[p] for p in res.located.points} == lemma
    # erased positions may hold any value: the locator takes them as
    # unknown error values
    for p in phi1:
        r.values[p] = rnd.randrange(-1, f.q - 1)
    assert decode_word(r, phi1, code).codeword.values == cw.values
    assert decode_info(r, phi1, code).values == h.values


@pytest.mark.parametrize("name", ["hermitian", "hcrs"])
def test_beyond_radius_returns_checked_or_raises(name, rng):
    # d_fr/2 ... d_fr errors and up to two erasures, at the default and a
    # raised t_max: each decoder returns or raises UndecodableError, a
    # returned word is a dual codeword, and a returned spectrum encodes to
    # it
    code = preset(name)
    returned = 0
    for _ in range(150):
        cw = encode_nonsystematic(random_info(code, rng), code)
        n_err = rng.randint((code.d_fr - 1) // 2 + 1, code.d_fr)
        r, phi1 = corrupt(code, cw, rng.randint(0, 2), n_err, rng)
        for t_max in (None, code.d_fr):
            try:
                res = decode_word(r, phi1, code, t_max)
            except UndecodableError:
                res = None
            else:
                assert is_dual_codeword(res.codeword, code)
            try:
                info = decode_info(r, phi1, code, t_max)
            except UndecodableError:
                continue
            assert res is not None
            assert encode_nonsystematic(info, code).values == res.codeword.values
            returned += 1
    assert returned


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs"])
def test_omega_word_vanishes_off_the_located_set(name, rng):
    # decode_word takes the error values on the located set L from the
    # locator's elimination; at every call that locates a nonempty L they
    # must equal the lemma's path on L (the syndrome extended by L's
    # family, then the IDFT at L), whose full Omega-word must vanish off L
    # (as the lemma says for a basis of I(L)).  400 words with 1..|B|
    # errors and 0-2 erasures, each decoded at the default t_max, d_fr
    # and |B|
    code = preset(name)
    reached = []
    nb = len(code.b_list)
    for _ in range(400):
        cw = encode_nonsystematic(random_info(code, rng), code)
        n_err = rng.randint(1, nb)
        r, phi1 = corrupt(code, cw, min(rng.randint(0, 2), code.n - n_err), n_err, rng)
        for t_max in (None, code.d_fr, nb):
            try:
                res = decode_word(r, phi1, code, t_max)
            except UndecodableError:
                continue
            assert is_dual_codeword(res.codeword, code)
            if len(res.located):
                lemma = _lemma_values(code, res.located.points, syndrome(r, code.b_list))
                assert {p: res.error.values[p] for p in res.located.points} == lemma
                reached.append(len(res.located))
    assert len(reached) > 100


@pytest.mark.parametrize("name", ["hermitian", "hcrs"])
def test_decoders_build_no_basis_family_or_map(name, rng, monkeypatch):
    # the error values come with the locator: over both decoders, on
    # every pattern inside the radius with a fresh erasure set, and in
    # the locator alone, no vanishing-ideal basis, check-set family or map
    # is built: each decode builds its erasure set's store entry, which
    # holds the projection and nothing more.  The locator's result is
    # plain data, with no basis
    code = preset(name)
    calls, entries = [], []
    for owner, fn in ((ideal, "vanishing_gb"), (ideal, "check_set_basis"),
                      (ideal, "lemma_family"), (codes, "vanishing_gb"),
                      (decoder, "lemma_family")):
        monkeypatch.setattr(owner, fn, lambda *args, fn=fn, real=getattr(owner, fn): (
            calls.append(fn), real(*args))[1])
    real_init = codes.PointSetEntry.__init__
    monkeypatch.setattr(codes.PointSetEntry, "__init__", lambda entry, *args: (
        entries.append(entry), real_init(entry, *args))[1])
    for n_err in range((code.d_fr - 1) // 2 + 1):
        for n_erase in range(code.d_fr - 2 * n_err):
            h = random_info(code, rng)
            cw = encode_nonsystematic(h, code)
            r, phi1 = corrupt(code, cw, n_erase, n_err, rng)
            rows = tuple(sorted(code.point_row[p] for p in phi1.points))
            for decode, want in ((decode_word, cw.values), (decode_info, h.values)):
                code._point_sets.clear()
                del entries[:]
                out = decode(r, phi1, code)
                assert (out.codeword.values if decode is decode_word else out.values) == want
                assert [e.rows for e in entries] == [rows]
                assert set(vars(entries[0])) == ENTRY_FIELDS
    assert not calls
    loc = locate(syndrome(r, code.b_list), phi1, code)
    assert not calls and not hasattr(loc, "basis")
    with pytest.raises(TypeError):
        loc[0]


def test_store_keeps_only_named_sets(rng):
    # decoding a word with errors located off Phi1 stores Phi1's entry and
    # not the located set's
    code = preset("hermitian")
    cw = encode_nonsystematic(random_info(code, rng), code)
    r, phi1 = corrupt(code, cw, 2, 2, rng)
    assert decode_word(r, phi1, code).report.meta["locator"]["t"] == 2
    decode_info(r, phi1, code)
    assert list(code._point_sets) == [tuple(sorted(code.point_row[p] for p in phi1.points))]


@pytest.mark.parametrize("name,t", [("hermitian", 3), ("hcrs", 4), ("herm16", 4)])
def test_locator_ops_within_model(name, t, rng):
    # full-radius decodes: the locator step counts at most the
    # criterion-11 model z*n^2 + N*q^(N+1)
    code = code_from_config(HERM16) if name == "herm16" else preset(name)
    f = code.field
    assert t == (code.d_fr - 1) // 2
    votes = 0
    for _ in range(5):
        cw = encode_nonsystematic(random_info(code, rng), code)
        r, phi1 = corrupt(code, cw, 0, t, rng)
        res = decode_word(r, phi1, code)
        assert res.codeword.values == cw.values
        rep = res.report
        assert rep.meta["locator"]["t"] == t
        votes += rep.meta["locator"]["votes"]
        # z = |G(L)|, the size of the reduced basis of the vanishing ideal
        # of the located set, which the decoder does not build
        z = len(vanishing_gb(res.located, code.order)[0])
        model = z * code.n ** 2 + code.ndim * f.q ** (code.ndim + 1)
        assert rep.steps["locator"] <= model, (rep.steps["locator"], model)
    # on hcrs, whose B is no prefix of the order, four errors need votes
    assert votes > 0 or name != "hcrs"


def test_locate_threads_share_sum_forms(rng):
    # eight threads locating four errors each on one fresh code grow its
    # normal-form memo at the same time; each must find its own errors
    code = preset("hcrs")
    f = code.field
    empty = PointSet(f, 2, ())
    cases = []
    for _ in range(8):
        e = Word(f, 2, {p: ZERO for p in code.psi.points})
        errors = rng.sample(code.psi.points, 4)
        for p in errors:
            e.values[p] = rng.randrange(0, f.q - 1)
        cases.append((syndrome(e, code.b_list), set(errors)))
    found = {}

    def work(k):
        synd, want = cases[k]
        found[k] = set(locate(synd, empty, code).located.points) == want

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert found == {k: True for k in range(len(cases))}


def test_locator_six_errors_hcrs(hcrs, rng):
    # six errors against a 4-error radius with t_max raised to 6: the
    # decode returns a dual codeword or raises, quickly and without tables
    f = hcrs.field
    pts = list(hcrs.psi.points)
    cw = encode_nonsystematic(random_info(hcrs, rng), hcrs)
    r = cw.copy()
    for j, v in zip((3, 17, 29, 40, 58, 77), (0, 1, 2, 3, 4, 5)):
        r.values[pts[j]] = f.add(r.values[pts[j]], v)
    start = time.perf_counter()
    try:
        res = decode_word(r, PointSet(f, 2, ()), hcrs, t_max=6)
    except UndecodableError:
        pass
    else:
        assert is_dual_codeword(res.codeword, hcrs)
    assert time.perf_counter() - start < 1.0


def test_locator_report(hermitian, rng):
    h = random_info(hermitian, rng)
    cw = encode_nonsystematic(h, hermitian)
    r, phi1 = corrupt(hermitian, cw, 0, 3, rng)
    loc = decode_word(r, phi1, hermitian).report.meta["locator"]
    assert set(loc) == {"t", "votes", "rank", "rows", "cols"}
    # three errors, three pivots, on a staircase inside the n x n matrix
    assert loc["t"] == loc["rank"] == 3
    assert loc["votes"] >= 0 and 3 <= loc["rows"] <= 27 and 3 <= loc["cols"] <= 27
    for _ in range(2):
        res = decode_word(cw, PointSet(hermitian.field, 2, ()), hermitian)
    assert res.report.meta["locator"] == {"t": 0, "votes": 0, "rank": 0, "rows": 0,
                                          "cols": 0}
    # the repeated decode reads the empty erasure set's projection from the
    # store
    assert res.report.meta["point_sets_reused"]


def test_extension_meta(hcrs, rng):
    # the values come with the locator, so no decode extends, runs an
    # IDFT or reads a map: no report has an extension or idft step or
    # meta key, with errors located and on the erasure decoding of hcrs's
    # golden systematic set, whose delta set leaves B
    cw = encode_nonsystematic(random_info(hcrs, rng), hcrs)
    r, phi1 = corrupt(hcrs, cw, 0, 2, rng)
    phi = PointSet(hcrs.field, 2, HCRS_SYS_PHI)
    r_phi = Word(hcrs.field, 2, {p: ZERO if p in phi else v for p, v in cw.values.items()})
    code = preset("hcrs")
    for word, erased in ((r, phi1), (r_phi, phi), (r_phi, phi)):
        for decode in (decode_info, decode_word):
            rep = decode(word, erased, code).report
            assert not {"extension", "idft"} & (set(rep.meta) | set(rep.steps))
    entry, built = code.point_set(phi.points)
    assert not built and set(vars(entry)) == ENTRY_FIELDS


def test_hcrs_golden_systematic_counts(rng):
    # systematic encoding on hcrs's golden Phi reads its 20 x 20 map:
    # 8,900 operations.  The erasure decoding of Phi takes the values off
    # the locator's erasure projection.  On the lemma's path the worklist extension checks
    # every recurrence but the one that set each value: 8,619 operations
    # (10,648 with the setting recurrences checked too), so with the IDFT
    # in place of the product (780 = 20 * 39) an encode counts 20,093
    code = preset("hcrs")
    f, phi = code.field, PointSet(code.field, 2, HCRS_SYS_PHI)
    info = Word(f, 2, {p: rng.randrange(-1, f.q - 1) for p in code.psi.points if p not in phi})
    cw = systematic_encode(info, phi, code)  # builds Phi's map
    before = f.op_count
    assert systematic_encode(info, phi, code).values == cw.values
    assert f.op_count - before == 8900
    r = Word(f, 2, {p: ZERO if p in phi else v for p, v in cw.values.items()})
    res = decode_word(r, phi, code)
    assert res.codeword.values == cw.values
    # the lemma's path on the same syndrome, its family built first
    family = systematic_basis(phi, code)
    seed = syndrome(info, code.b_list)
    before = f.op_count
    x = _extension_array(seed, family)
    extension = f.op_count - before
    lemma = idft_at(f, x, phi.array)
    idft = f.op_count - before - extension
    assert extension == 8619 and 8900 - 780 + extension + idft == 20093
    assert f.np_codes(lemma) == [f.neg(cw.values[p]) for p in phi.points]


def test_code_columns_cached(hermitian):
    f = hermitian.field
    before = f.op_count
    rows = [hermitian.columns[hermitian.point_row[p]] for p in hermitian.psi.points]
    assert f.op_count == before
    assert hermitian.columns.shape == (hermitian.n, len(hermitian.b_list))
    for p, row in zip(hermitian.psi.points, rows):
        assert f.np_codes(row) == [point_power(f, p, b) for b in hermitian.b_list]


# fields above q = 4096, with Zech-log scalar arithmetic
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
    # q > 4096: Zech-log arithmetic and the voting locator on the numpy
    # layer, two errors on a random codeword
    for field in LARGE_FIELDS.values():
        code = _line_code(field, 8, 4)
        f = code.field
        assert f.q > 4096 and f._zech is not None
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
def test_large_field_three_error_roundtrip(name, rng):
    # three errors among 40 points, inside d_fr = 7, decode exactly in
    # well under a second
    code = _line_code(LARGE_FIELDS[name], 40, 6)
    f = code.field
    r = Word(f, 1, {p: ZERO for p in code.psi.points})
    for p in rng.sample(list(code.psi.points), 3):
        r.values[p] = rng.randrange(0, f.q - 1)
    start = time.perf_counter()
    info = decode_info(r, PointSet(f, 1, ()), code)
    assert time.perf_counter() - start < 1.0
    assert info.values == {d: ZERO for d in code.info_support()}
    assert info.report.meta["located"] == info.report.meta["locator"]["t"] == 3


@pytest.mark.parametrize("name", sorted(LARGE_FIELDS))
def test_line_code_idft_reads_three_values(name, rng):
    # the error values of three located points come with the locator: a
    # warm decode counts no q^N-sized step (the extension over A used to
    # count 57,323 operations on GF(2^13)).  The lemma's path reads the
    # same three values with one inverse kernel row each: q - 1 powers
    # plus q - 1 muls, q - 2 adds and a neg, against the fast transform's
    # q^2-sized count
    code = _line_code(LARGE_FIELDS[name], 40, 6)
    f, q = code.field, code.field.q
    r = Word(f, 1, {p: ZERO for p in code.psi.points})
    errs = rng.sample([p for p in code.psi.points if p != (ZERO,)], 3)
    for p in errs:
        r.values[p] = rng.randrange(0, f.q - 1)
    empty = PointSet(f, 1, ())
    decode_word(r, empty, code)
    res = decode_word(r, empty, code)
    rep = res.report
    assert rep.meta["point_sets_reused"]
    assert max(rep.steps.values()) < q
    assert rep.steps["check"] == 3 * len(code.b_list) * 3
    lemma = _lemma_values(code, errs, syndrome(r, code.b_list))
    assert {p: res.error.values[p] for p in errs} == lemma == {p: r.values[p] for p in errs}
    family = vanishing_gb(res.located, code.order)[0]
    x = _extension_array(syndrome(r, code.b_list).restrict(family.delta.members), family)
    before = f.op_count
    got = f.np_codes(idft_at(f, x, res.located.array))
    assert got == [r.values[p] for p in res.located.points]
    assert f.op_count - before == 3 * (3 * q - 3) < 1 + (q - 1) * (3 * q - 2)


def test_idft_report_meta(hermitian, rng):
    # no decode runs an IDFT, so no report has an idft step, meta["idft"]
    # or the fast-IDFT bound; the clean word's check counts nothing
    cw = encode_nonsystematic(random_info(hermitian, rng), hermitian)
    r, phi1 = corrupt(hermitian, cw, 2, 1, rng)
    empty = PointSet(hermitian.field, 2, ())
    for rep in (decode_word(r, phi1, hermitian).report, decode_info(r, phi1, hermitian).report,
                decode_word(cw, empty, hermitian).report):
        assert not {"idft", "fast_idft_bound"} & (set(rep.meta) | set(rep.steps))
    assert rep.steps["check"] == 0


def test_decode_info_zech_range():
    # 512 < q = 2^10 <= 4096: Zech arithmetic and the voting locator
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
    assert f._zech is not None and f.q <= 4096
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
    q = draw(st.sampled_from(sorted(SMALL_FIELDS)))
    f = SMALL_FIELDS[q]
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


@pytest.mark.parametrize("name", ["hermitian", "hcrs", "herm16"])
def test_check_systematic_support_is_the_projection_rank(name):
    # seeded random Phi, at least three generic and three not:
    # check_systematic_support reads
    # the rank off Phi's erasure projection, and is True exactly when
    # systematic encoding on Phi succeeds and when the scalar reference
    # finds the |B| x |Phi| evaluation matrix invertible
    code = code_from_config(HERM16) if name == "herm16" else preset(name)
    f, rnd = code.field, random.Random(name)
    seen = collections.Counter()
    while min(seen[True], seen[False]) < 3:
        phi = code.psi.subset(rnd.sample(code.psi.points, len(code.b_list)))
        support = check_systematic_support(phi, code)
        assert support == reference.check_systematic_support(phi, code)
        info = Word(f, 2, {p: rnd.randrange(-1, f.q - 1) for p in code.psi.points
                           if p not in phi})
        try:
            systematic_encode(info, phi, code)
        except SystematicSupportError:
            assert not support
        else:
            assert support
        seen[support] += 1


def test_systematic_encode_equals_erasure_decoding():
    worklist = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(systematic_cases())
    def check(case):
        code, phi, info = case
        f = code.field
        padded = Word(f, code.ndim, {p: info.values.get(p, ZERO) for p in code.psi.points})
        # the first encode builds Phi's store entry; each decode reads its
        # projection and builds nothing
        for _ in range(2):
            word = systematic_encode(info, phi, code)
            assert is_dual_codeword(word, code)
            assert all(word.values[p] == v for p, v in info.values.items())
            res = decode_word(padded, phi, code)
            assert res.codeword.values == word.values
            assert res.report.meta["point_sets_reused"]
        worklist.append(not reference.tails_precede_leads(systematic_basis(phi, code)))

    check()
    # the draws include check-set families whose tails reach past their leads
    assert any(worklist) and not all(worklist)


def _systematic_sets(code, count, rng):
    """``count`` distinct redundant-position sets Phi of the code with a
    check-set family, drawn at random."""
    found = []
    while len(found) < count:
        phi = code.psi.subset(rng.sample(code.psi.points, len(code.b_list)))
        if phi in found or not check_systematic_support(phi, code):
            continue
        try:
            systematic_basis(phi, code)
        except SystematicSupportError:
            continue
        found.append(phi)
    return found


def _erasure_round(code, phi, info):
    """Systematic encoding of info, then the erasure decoding of Phi."""
    word = systematic_encode(info, phi, code)
    r = word.copy()
    for p in phi.points:
        r.values[p] = ZERO
    res = decode_word(r, phi, code)
    return word.values, res.codeword.values, res.error.values


def test_point_set_store_threads(rng, monkeypatch):
    # twelve threads encode systematically and erasure-decode on fresh
    # codes, so that they build and read the store at once; each must get
    # the solo result.  On hermitian four share one Phi and four have Phis
    # of their own; on hcrs, whose Phis' delta sets leave B, two share the
    # golden Phi and two have random Phis of their own.  Then six threads
    # make the first use of one Phi at once: one store entry is built,
    # under the store's lock, and each gets the solo word.
    cases = []
    for name, shared, own in (("hermitian", 4, 4), ("hcrs", 2, 2)):
        solo = preset(name)
        f = solo.field
        phis = _systematic_sets(solo, own + 1, rng)
        if name == "hcrs":
            phis[0] = PointSet(f, 2, HCRS_SYS_PHI)
        for k in range(shared + own):
            phi = phis[0] if k < shared else phis[k - shared + 1]
            info = Word(f, 2, {p: rng.randrange(-1, f.q - 1)
                               for p in solo.psi.points if p not in set(phi.points)})
            cases.append((name, phi, info, _erasure_round(solo, phi, info)))
        if name == "hcrs":
            assert not any(vanishing_gb(phi, solo.order)[1].members <= solo.b_members
                           for phi in phis)
    fresh = {name: preset(name) for name in ("hermitian", "hcrs")}
    found = {}

    def work(k):
        name, phi, info, want = cases[k]
        found[k] = _erasure_round(fresh[name], phi, info) == want

    def run(threads):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

    run([threading.Thread(target=work, args=(k,)) for k in range(len(cases))])
    assert found == {k: True for k in range(len(cases))}

    code, solo = preset("hermitian"), preset("hermitian")
    f, phi = code.field, PointSet(code.field, 2, HERM_SYS_PHI)
    infos = [Word(f, 2, {p: rng.randrange(-1, f.q - 1) for p in code.psi.points if p not in phi})
             for _ in range(6)]
    want = [systematic_encode(info, phi, solo).values for info in infos]
    built, real_init = [], codes.PointSetEntry.__init__
    monkeypatch.setattr(codes.PointSetEntry, "__init__", lambda entry, code, rows: (
        built.append(rows), real_init(entry, code, rows))[1])
    barrier, words = threading.Barrier(len(infos)), {}

    def first_use(k):
        barrier.wait()
        words[k] = systematic_encode(infos[k], phi, code).values

    run([threading.Thread(target=first_use, args=(k,)) for k in range(len(infos))])
    assert built == [tuple(sorted(code.point_row[p] for p in phi.points))]
    assert words == dict(enumerate(want))


def test_point_set_store_is_bounded(rng):
    # distinct erasure pairs, each with its own located set: the store keeps
    # at most POINT_SET_CACHE_SIZE entries, the ones used last
    code = preset("hermitian")
    f = code.field
    cw = encode_nonsystematic(random_info(code, rng), code)
    pairs = list(itertools.combinations(code.psi.points, 2))[:POINT_SET_CACHE_SIZE + 20]
    for pair in pairs:
        r = cw.copy()
        for p in pair:
            r.values[p] = ZERO
        phi1 = code.psi.subset(pair)
        assert decode_word(r, phi1, code).codeword.values == cw.values
        assert len(code._point_sets) <= POINT_SET_CACHE_SIZE
        assert code.point_set(pair)[0] is code.point_set(reversed(pair))[0]
    assert len(code._point_sets) == POINT_SET_CACHE_SIZE
    last = {tuple(sorted(code.point_row[p] for p in pair)) for pair in pairs[-20:]}
    assert last <= set(code._point_sets)


def test_first_locates_on_one_erasure_set_from_threads_agree():
    # four threads locate at once on one erasure set that a fresh code has
    # not seen, each with an error off it, under a short switch interval:
    # one builds the compiled projection and all get the solo result
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for name, config in (("hermitian", codes.PRESET_CONFIGS["hermitian"]),
                             ("herm16", HERM16)):
            solo, rnd = code_from_config(config), random.Random(name)
            f, pts = solo.field, list(solo.psi.points)
            phi1 = solo.psi.subset(rnd.sample(pts, solo.d_fr - 3))
            synds = []
            for _ in range(4):
                cw = encode_nonsystematic(random_info(solo, rnd), solo)
                r = Word(f, 2, {p: ZERO if p in phi1 else v for p, v in cw.values.items()})
                p = rnd.choice([p for p in pts if p not in phi1])
                r.values[p] = f.add(r.values[p], rnd.randrange(f.q - 1))
                synds.append(syndrome(r, solo.b_list))
            want = [locate(s, phi1, solo) for s in synds]
            fresh, got = code_from_config(config), [None] * len(synds)
            start = threading.Barrier(len(synds), timeout=30)

            def run(k):
                start.wait()
                got[k] = locate(synds[k], phi1, fresh)

            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(synds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert sum(g.built for g in got) == 1
            for g, w in zip(got, want):
                assert g.located.points == w.located.points and g.stats == w.stats
                assert np.array_equal(g.values, w.values)
    finally:
        sys.setswitchinterval(old)


def _transform_words(code, rng):
    """Seeded words on subsets of the code's points, keys in a shuffled
    order: a full word, one on Psi minus |B| points, small located sets,
    the empty word and a full word of zeros."""
    f, pts = code.field, list(code.psi.points)

    def word(points):
        points = list(points)
        rng.shuffle(points)
        return Word(f, code.ndim, {p: rng.randrange(-1, f.q - 1) for p in points})

    phi = set(rng.sample(pts, len(code.b_list)))
    out = [word(pts), word(p for p in pts if p not in phi), Word(f, code.ndim, {}),
           Word(f, code.ndim, dict.fromkeys(pts, ZERO))]
    out += [word(rng.sample(pts, k)) for k in range(1, min(code.n, 5))]
    return out


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs", "herm16"])
def test_code_transform_equals_dft_partial(name):
    # CodeSpec.transform_at on a word's point rows and its values as
    # exponents (_element_array) reads the precomputed rows of B or D and
    # gives dft_partial's spectrum, in the same key order, at the same count
    code = code_from_config(HERM16 if name == "herm16" else codes.PRESET_CONFIGS[name])
    f, rng = code.field, random.Random(name)
    assert code.d_sorted == tuple(code.delta.sorted(code.order))
    assert code.info_support() == [d for d in code.d_sorted if d not in code.b_members]
    assert code.d_rows.shape == (code.n, code.n) and not code.d_rows.flags.writeable
    words = _transform_words(code, rng)
    for onto, indices in (("B", code.b_list), ("D", code.d_sorted)):
        for w in words:
            before = f.op_count
            want = dft_partial(w, indices)
            ops = f.op_count - before
            x = _element_array(w, list(w.values.values()), "dft input")
            got = code.transform_at([code.point_row[p] for p in w.values], x, onto)
            assert f.op_count - before == 2 * ops
            assert list(zip(indices, f.np_codes(got))) == list(want.values.items())
            assert ops == len(indices) * len(w.values) * (2 * code.ndim + 1)


@pytest.mark.parametrize("what", ["received word", "information word", "dft input"])
@pytest.mark.parametrize("bad", [9, -2, 1.5, True])
def test_code_transform_field_errors_match_dft_partial(hermitian, what, bad):
    # a value that is no element code raises, from _element_array before
    # any transform, dft_partial's FieldError, naming the word and the
    # position, and counts nothing
    f, rng = hermitian.field, random.Random(what)
    for w in _transform_words(hermitian, rng)[:2]:
        pos = list(w.values)[rng.randrange(len(w.values))]
        w.values[pos] = bad
        msg = r"^%s at \(%d, %d\): bad element code %s" % (what, *pos, re.escape(repr(bad)))
        before = f.op_count
        with pytest.raises(FieldError, match=msg) as got:
            _element_array(w, list(w.values.values()), what)
        assert f.op_count == before
        for indices in (hermitian.b_list, hermitian.d_sorted):
            with pytest.raises(FieldError, match=msg) as want:
                dft_partial(w, indices, what)
            assert str(got.value) == str(want.value)


def _outcome(code, call, *args):
    """What a decode or encode call gives on a code: its result, or the
    type and text of the error it raises, and its field operations."""
    f = code.field
    before = f.op_count
    try:
        out = call(*args, code)
    except (UndecodableError, SystematicSupportError, FieldError) as exc:
        out = (type(exc), str(exc))
    return out, f.op_count - before


def _assert_same_outcome(got, want):
    (out, ops), (ref, ref_ops) = got, want
    assert ops == ref_ops
    if isinstance(ref, (tuple, Word)):
        assert type(out) is type(ref) and out == ref
        return
    assert (out.report.steps, out.report.meta, out.report.total) == (
        ref.report.steps, ref.report.meta, ref.report.total)
    assert list(out.report.ms) == list(ref.report.ms)
    if isinstance(ref, decoder.DecodeResult):
        assert (out.codeword, out.error, out.located) == (ref.codeword, ref.error, ref.located)
        assert list(out.codeword.values) == list(ref.codeword.values) == list(out.error.values)
    else:
        assert (out.field, out.ndim) == (ref.field, ref.ndim)
        assert list(out.values.items()) == list(ref.values.items())


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs", "herm16"])
def test_array_paths_equal_the_dict_oracle(name, monkeypatch):
    # both decoders and systematic encoding against their dict paths
    # (scalar_reference), each on a fresh code of its own, so that the
    # store's builds count alike: patterns inside the radius and up to two
    # errors beyond it, erased positions holding any value, more erasures
    # than check indices, every position erased, t_max = 0, a bad value;
    # systematic encoding on the golden, random and likely dependent Phi
    # (the first |B| points, whose first coordinates take the fewest
    # values), a Phi of the wrong size, a wrong domain and a bad value
    make = lambda: code_from_config(HERM16 if name == "herm16" else codes.PRESET_CONFIGS[name])
    code, ref = make(), make()
    f, rnd = code.field, random.Random(name)
    n, n_b, radius = code.n, len(code.b_list), (code.d_fr - 1) // 2
    patterns = sorted({(e, t) for t in range(radius + 3)
                       for e in (0, 1, code.d_fr - 1 - 2 * t, code.d_fr - 2 * t) if e >= 0})
    patterns += [(n_b + 1, 0), (n, 0)]
    cases = []
    for n_erase, n_err in patterns:
        cw = encode_nonsystematic(random_info(code, rnd), code)
        r, phi1 = corrupt(code, cw, n_erase, n_err, rnd)
        for p in phi1.points[:2]:
            r.values[p] = rnd.randrange(-1, f.q - 1)
        cases.append((r, phi1, None))
    cases.append((r, code.psi.subset(()), 0))
    bad = r.copy()
    bad.values[code.psi.points[1]] = f.q
    cases.append((bad, code.psi.subset(()), None))
    kinds = set()
    for r, phi1, t_max in cases:
        for fn, oracle in ((decode_word, reference.decode_word),
                           (decode_info, reference.decode_info)):
            got = _outcome(code, lambda r, phi1, c: fn(r, phi1, c, t_max), r, phi1)
            want = _outcome(ref, lambda r, phi1, c: oracle(r, phi1, c, t_max), r, phi1)
            _assert_same_outcome(got, want)
            kinds.add(got[0][0] if isinstance(got[0], tuple) else "decoded")
    assert {"decoded", UndecodableError, FieldError} <= kinds

    phis = [code.psi.subset(rnd.sample(code.psi.points, n_b)) for _ in range(3)]
    phis.append(code.psi.subset(sorted(code.psi.points)[:n_b]))
    if name in ("hermitian", "hcrs"):
        phis.append(PointSet(f, 2, HERM_SYS_PHI if name == "hermitian" else HCRS_SYS_PHI))
    phis.append(code.psi.subset(code.psi.points[:n_b - 1]))
    for phi in phis:
        rest = [p for p in code.psi.points if p not in set(phi.points)]
        infos = [Word(f, code.ndim, {p: rnd.randrange(-1, f.q - 1) for p in rest})
                 for _ in range(2)]
        infos.append(Word(f, code.ndim, dict(infos[0].values) | {phi.points[0]: 0}))
        infos.append(Word(f, code.ndim, dict(infos[1].values) | {rest[0]: -2}))
        for info in infos:
            got = _outcome(code, systematic_encode, info, phi)
            _assert_same_outcome(got, _outcome(ref, reference.systematic_encode, info, phi))
            if isinstance(got[0], tuple):
                kinds.add(got[0][1].split(":")[0])
            else:
                kinds.add("encoded")
                generic = phi
    assert "encoded" in kinds
    assert ("Phi not generic" in kinds) == (name != "rs-like")

    # the checks, which hold on the library's own values: with the first
    # error value bent by the locator and a bent copy of the tail rows of
    # Phi's projection swapped into both stores, the same check fails on
    # both paths
    def bend(x):
        x = x.copy()
        x.flat[0] = 0 if x.flat[0] == f.np_arith().zero else (x.flat[0] + 1) % (f.q - 1)
        return x

    def bent_locate(*args):
        loc = locate(*args)
        return replace(loc, values=bend(loc.values))

    monkeypatch.setattr(decoder, "locate", bent_locate)
    r, phi1 = corrupt(code, encode_nonsystematic(random_info(code, rnd), code), 1, 0, rnd)
    for fn, oracle, text in ((decode_word, reference.decode_word, "decoded word fails"),
                             (decode_info, reference.decode_info, "recovered spectrum has")):
        got = _outcome(code, fn, r, phi1)
        _assert_same_outcome(got, _outcome(ref, oracle, r, phi1))
        assert got[0][0] is UndecodableError and got[0][1].startswith(text)
    info = Word(f, code.ndim, {p: rnd.randrange(-1, f.q - 1) for p in code.psi.points
                               if p not in set(generic.points)})
    for c in (code, ref):
        proj = c.point_set(generic.points)[0].projection
        proj.tails = bend(proj.tails)
    got = _outcome(code, systematic_encode, info, generic)
    _assert_same_outcome(got, _outcome(ref, reference.systematic_encode, info, generic))
    assert got[0] == (SystematicSupportError, "systematic output fails the check set")


# what a store entry holds (codes.PointSetEntry): no member is added later
ENTRY_FIELDS = {"rows", "points", "projection"}


def _build_ops(code, points):
    """Field operations of building one store entry from cold."""
    f = code.field
    before = f.op_count
    assert code.point_set(points)[1]
    return f.op_count - before


def _reference_map(code, points):
    """The scalar oracle (reference.compiled_map) of minus the tail rows
    of the erasure projection of a set of the code's points (its
    ``codes.PointSetEntry``): the matrix as element codes and the count
    of the unit vectors' reductions."""
    return reference.compiled_map(code.point_set(points)[0].points, code.b_list)


def _lemma_values(code, points, synd):
    """The lemma's path on a set L of the code's points: the syndrome on B
    extended over A by L's family (the vanishing ideal's basis when its
    delta set lies in B, else the check-set family; IdealError when that is
    unsolvable; ideal.lemma_family), then the IDFT at L, as {point: element
    code}.  The full Omega-word of the extension must vanish off L
    (maps.canonical_iso raises VanishingError) and agree with the IDFT at L.
    The code's store is left alone."""
    f, pts = code.field, code.psi.subset(points)
    family = lemma_family(pts, code.b_list, code.order)
    seed = synd.restrict(family.delta.members)
    got = f.np_codes(idft_at(f, _extension_array(seed, family), pts.array))
    assert got == list(maps.canonical_iso(seed, family, pts).values.values())
    return dict(zip(pts.points, got))


def _family_kind(code, points):
    """Which family the lemma's path extends with on a set of the code's
    points: its vanishing ideal's basis or the check-set family."""
    pts = code.psi.subset(points)
    family = lemma_family(pts, code.b_list, code.order)
    return "vanishing-ideal" if family.delta == vanishing_gb(pts, code.order)[1] else "check-set"


@pytest.mark.parametrize("name, n_erase, n_err", [
    ("hermitian", 0, 3), ("hermitian", 2, 2), ("hermitian", 4, 0), ("hcrs", None, 0)])
def test_warm_decode_counts_leave_out_the_builds(name, n_erase, n_err, rng):
    # decoding the same word again reads the store: its steps are the first
    # call's minus the ops of building Phi1's erasure projection, counted on
    # a fresh code, the one member a decode builds.  The error values come
    # with the locator, with errors located or not (the erasure-only
    # patterns, and the golden systematic set of hcrs (None), whose delta
    # set leaves B): no basis, family or map is built
    code = preset(name)
    cw = encode_nonsystematic(random_info(code, rng), code)
    if n_erase is None:
        phi1 = PointSet(code.field, 2, HCRS_SYS_PHI)
        r = Word(code.field, 2, {p: ZERO if p in phi1 else v for p, v in cw.values.items()})
    else:
        r, phi1 = corrupt(code, cw, n_erase, n_err, rng)
    cold = decode_word(r, phi1, code)
    second, warm = (decode_word(r, phi1, code).report for _ in range(2))
    rep = cold.report
    assert cold.codeword.values == cw.values
    assert not rep.meta["point_sets_reused"]
    assert second.meta["point_sets_reused"] and warm.meta["point_sets_reused"]
    locator = _build_ops(preset(name), phi1.points)
    # the empty erasure set's projection costs nothing to build
    assert (locator > 0) == bool(len(phi1))
    assert second.steps == warm.steps == dict(rep.steps, locator=rep.steps["locator"] - locator)
    assert warm.total == rep.total - locator
    entry, built = code.point_set(phi1.points)
    assert not built and set(vars(entry)) == ENTRY_FIELDS


def test_warm_systematic_encode_leaves_out_the_build(rng):
    # the first systematic encoding on Phi builds Phi's store entry, its
    # erasure projection counted as the scalar insertion of the reference
    # counts it; every call counts the same product with the projection's
    # tail rows, |Phi| (2 |B| - 1), so later ones count the first minus
    # the build
    code = preset("hermitian")
    f = code.field
    phi = PointSet(f, 2, HERM_SYS_PHI)
    projection = _build_ops(preset("hermitian"), phi.points)
    assert projection == reference.column_insertion(phi, code.b_list)[2] > 0
    counts = []
    for _ in range(4):
        info = Word(f, 2, {p: rng.randrange(-1, f.q - 1)
                           for p in code.psi.points if p not in set(phi.points)})
        before = f.op_count
        systematic_encode(info, phi, code)
        counts.append(f.op_count - before)
    assert counts[0] - projection == counts[1] == counts[2] == counts[3]


def _herm16_phi(code):
    """The redundant set of the herm16-systematic benchmark at seed 0: the
    first draw of its search with an invertible evaluation matrix."""
    rnd = random.Random("0:phi")
    while True:
        phi = code.psi.subset(rnd.sample(code.psi.points, len(code.b_list)))
        if check_systematic_support(phi, code):
            return phi


# (systematic encode, Phi-erasure decode_word) twice on the test's
# information word: every encode reads the tail rows of Phi's erasure
# projection, which the first builds; every decode takes its values off
# that projection and builds nothing
SHARED_FAMILY_COUNTS = {
    "hermitian": (1909, 1780, 1377, 1780),
    "hcrs": (15298, 10847, 8900, 10847),
    "herm16": (8422, 6430, 5250, 6430),
}


@pytest.mark.parametrize("name", ["hermitian", "hcrs", "herm16"])
def test_systematic_encoding_and_erasure_decoding_share_one_family(name, rng, monkeypatch):
    # systematic encoding on Phi reads the tail rows of Phi's one stored
    # erasure projection, which the first encode builds; the erasure
    # decoding of Phi takes its values off the same projection.  Neither
    # builds a basis or a recurrence family, and the values are the
    # lemma's path by Phi's family (systematic_basis): on hcrs's golden
    # Phi, whose delta set leaves B, the check-set family
    make = (lambda: code_from_config(HERM16)) if name == "herm16" else (lambda: preset(name))
    code = make()
    f = code.field
    # herm16's Phi is drawn on another code, whose store its search fills
    phi = (_herm16_phi(make()) if name == "herm16" else
           PointSet(f, 2, HERM_SYS_PHI if name == "hermitian" else HCRS_SYS_PHI))
    builds, entries_built = [], []

    def spy(module, fn, record):
        real = getattr(module, fn)
        monkeypatch.setattr(module, fn, lambda *args: (record(args), real(*args))[1])

    spy(ideal, "vanishing_gb", lambda args: builds.append("vanishing_gb"))
    spy(ideal, "check_set_basis", lambda args: builds.append("check_set_basis"))
    spy(decoder, "lemma_family", lambda args: builds.append("lemma_family"))
    spy(codes.PointSetEntry, "__init__", lambda args: entries_built.append(args[2]))
    info = Word(f, 2, {p: rng.randrange(-1, f.q - 1) for p in code.psi.points if p not in phi})
    counts = []
    for _ in range(2):
        before = f.op_count
        cw = systematic_encode(info, phi, code)
        r = Word(f, 2, {p: ZERO if p in phi else v for p, v in cw.values.items()})
        middle = f.op_count
        res = decode_word(r, phi, code)
        counts += [middle - before, f.op_count - middle]
        assert res.codeword.values == cw.values
    assert not builds and entries_built == [tuple(sorted(code.point_row[p] for p in phi.points))]
    assert tuple(counts) == SHARED_FAMILY_COUNTS[name]
    assert systematic_basis(phi, code).delta.members == code.b_members
    assert builds == ["lemma_family", "vanishing_gb"] + ["check_set_basis"] * (name == "hcrs")
    lemma = _lemma_values(code, phi.points, syndrome(info, code.b_list))
    assert lemma == {p: f.neg(cw.values[p]) for p in phi.points}
    # the first encode builds Phi's store entry, its erasure projection
    assert counts[0] - counts[2] == _build_ops(make(), phi.points)
    assert counts[1] == counts[3]


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs", "herm16"])
def test_compiled_map_words_equal_the_lemma_path(name):
    # systematic encoding on the golden (or seeded) Phi, through the map,
    # and the erasure decoding of random sets Phi1 inside the radius,
    # through the locator's erasure projection, give the words of the
    # lemma's path: the extension by the set's family and the IDFT at the
    # set
    code = code_from_config(HERM16) if name == "herm16" else preset(name)
    f, rnd = code.field, random.Random(name)
    phi = (PointSet(f, 1, code.psi.points[:2]) if name == "rs-like" else
           _herm16_phi(code) if name == "herm16" else
           PointSet(f, 2, HERM_SYS_PHI if name == "hermitian" else HCRS_SYS_PHI))
    for _ in range(3):
        info = Word(f, code.ndim, {p: rnd.randrange(-1, f.q - 1)
                                   for p in code.psi.points if p not in phi})
        lemma = _lemma_values(code, phi.points, syndrome(info, code.b_list))
        want = {**info.values, **{p: f.neg(v) for p, v in lemma.items()}}
        assert systematic_encode(info, phi, code).values == want
    for size in range(1, code.d_fr):
        cw = encode_nonsystematic(random_info(code, rnd), code)
        r, phi1 = corrupt(code, cw, size, 0, rnd)
        res = decode_word(r, phi1, code)
        assert res.codeword.values == cw.values
        lemma = _lemma_values(code, phi1.points, syndrome(r, code.b_list))
        assert {p: res.error.values[p] for p in phi1.points} == lemma


def test_erasure_decoding_gives_the_lemma_values_on_every_independent_set():
    # erasing the first k points of a systematic Phi of a random small
    # code, whose check columns are independent: the first decode builds
    # only the set's projection and gives the lemma path's error values,
    # whichever family the lemma extends with, a check-set family on
    # fewer than |B| points included
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(systematic_cases())
    def check(case):
        code, phi, info = case
        word = systematic_encode(info, phi, code)
        code._point_sets.clear()  # each decode below is its set's first use
        for k in range(1, len(phi) + 1):
            phi1 = PointSet(code.field, code.ndim, phi.points[:k])
            r = Word(code.field, code.ndim,
                     {p: ZERO if p in phi1 else v for p, v in word.values.items()})
            res = decode_word(r, phi1, code, t_max=0)
            assert res.codeword.values == word.values
            lemma = _lemma_values(code, phi1.points, syndrome(r, code.b_list))
            assert {p: res.error.values[p] for p in phi1.points} == lemma
            entry, built = code.point_set(phi1.points)
            assert not built and set(vars(entry)) == ENTRY_FIELDS
            seen.add((_family_kind(code, phi1.points), k < len(code.b_list)))

    check()
    assert seen == {("vanishing-ideal", True), ("vanishing-ideal", False),
                    ("check-set", True), ("check-set", False)}


def _rank_deficient_sets(code, rnd):
    """Seeded erasure sets beyond the radius whose check columns are
    dependent, with their store entries, drawn without end."""
    while True:
        size = rnd.randrange(code.d_fr, len(code.b_list) + 1)
        phi1 = code.psi.subset(rnd.sample(code.psi.points, size))
        entry = code.point_set(phi1.points)[0]
        if len(entry.projection.pivots) < size:
            yield phi1, entry


@pytest.mark.parametrize("name", ["hermitian", "hcrs"])
def test_dependent_check_columns_are_refused(name, rng):
    # seeded erasure sets beyond the radius whose check columns are
    # dependent have no map and no error values: both decoders refuse
    # them with the check-set message, systematic encoding on |B| such
    # points with "Phi not generic" and the rank of the columns, and the
    # entries keep nothing but the projection.
    # With an error off the set too (t_max raised to d_fr), the located
    # set holds the dependent columns: wherever the locator returns, it
    # gives no values and both decoders refuse with the same message
    code = preset(name)
    f, rnd = code.field, random.Random(name)
    cw = encode_nonsystematic(random_info(code, rng), code)
    refused = set()
    sets = _rank_deficient_sets(code, rnd)
    while len(refused) < 2:
        phi1, entry = next(sets)
        size = len(phi1)
        r = Word(f, 2, {p: ZERO if p in phi1 else v for p, v in cw.values.items()})
        for decode in (decode_word, decode_info):
            with pytest.raises(UndecodableError, match="^locator delta escapes the check set"):
                decode(r, phi1, code)
        if size == len(code.b_list):
            info = Word(f, 2, {p: v for p, v in cw.values.items() if p not in phi1})
            with pytest.raises(SystematicSupportError, match=(
                    "^Phi not generic: the check columns of the %d points have rank %d$"
                    % (size, len(entry.projection.pivots)))):
                systematic_encode(info, phi1, code)
            assert not check_systematic_support(phi1, code)
        assert set(vars(entry)) == ENTRY_FIELDS
        refused.add(size == len(code.b_list))
    with_errors = 0
    while with_errors < 3:
        phi1, entry = next(sets)
        r = Word(f, 2, {p: ZERO if p in phi1 else v for p, v in cw.values.items()})
        p = rnd.choice([p for p in code.psi.points if p not in phi1])
        r.values[p] = f.add(r.values[p], rnd.randrange(0, f.q - 1))
        try:
            loc = locate(syndrome(r, code.b_list), phi1, code, code.d_fr)
        except UndecodableError:
            continue
        assert loc.values is None
        for decode in (decode_word, decode_info):
            with pytest.raises(UndecodableError, match="^locator delta escapes the check set"):
                decode(r, phi1, code, code.d_fr)
        with_errors += 1


@pytest.mark.parametrize("name", ["hermitian", "hcrs"])
def test_beyond_radius_values_are_the_lemma(name):
    # seeded words with 0..|B| erasures and 1-4 errors, decoded at t_max
    # the error count, d_fr or |B|: whenever the locator returns a located
    # set L, both decoders refuse exactly where the lemma's family of L is
    # unsolvable, and otherwise decode_word's values on L are the lemma
    # path's and decode_info's spectrum encodes to its codeword; where the
    # locator raises, both decoders raise
    code = preset(name)
    f, rnd = code.field, random.Random(name)
    outcomes = collections.Counter()
    for _ in range(300):
        cw = encode_nonsystematic(random_info(code, rnd), code)
        n_err = rnd.randint(1, 4)
        n_erase = rnd.randint(0, len(code.b_list))
        r, phi1 = corrupt(code, cw, n_erase, n_err, rnd)
        t_max = rnd.choice([n_err, code.d_fr, len(code.b_list)])
        synd = syndrome(r, code.b_list)
        try:
            loc = locate(synd, phi1, code, t_max)
        except UndecodableError:
            loc = lemma = None
        else:
            try:
                lemma = _lemma_values(code, loc.located.points, synd)
            except IdealError:
                lemma = None
        if lemma is None:
            for decode in (decode_word, decode_info):
                with pytest.raises(UndecodableError, match=None if loc is None else
                                   "^locator delta escapes the check set"):
                    decode(r, phi1, code, t_max)
            outcomes["locate raises" if loc is None else "refused"] += 1
            continue
        res = decode_word(r, phi1, code, t_max)
        assert {p: res.error.values[p] for p in res.located.points} == lemma
        assert encode_nonsystematic(decode_info(r, phi1, code, t_max), code).values == (
            res.codeword.values)
        outcomes["errors" if loc.stats["t"] else "erasures"] += 1
    assert outcomes["errors"] > 50 and outcomes["erasures"] > 10


# seeded full-grid codes at N = 3 with d_fr the Feng-Rao bound
N3_CODES = {
    "GF(4)^3": ({"p": 2, "m": 2, "primitive_poly": [1, 1, 1]}, "prodplus<8"),
    "GF(3)^3": ({"p": 3, "m": 1, "primitive_poly": [1, 1]}, "prodplus<6"),
}


def _n3_code(name):
    field, b_spec = N3_CODES[name]
    cfg = {"field": field, "N": 3, "order": {"kind": "grlex"}, "points": "full-grid",
           "B": b_spec, "d_fr": 1}
    cfg["d_fr"] = code_from_config(cfg).feng_rao
    return code_from_config(cfg)


@pytest.mark.parametrize("name", sorted(N3_CODES))
def test_round_trips_at_n3(name):
    # every (erasures, errors) pattern inside the radius through both
    # decoders, then systematic encoding on a Phi against the erasure
    # decoding of Phi and the lemma's path
    code = _n3_code(name)
    f, rnd = code.field, random.Random(name)
    assert code.n == f.q ** 3 and code.d_fr >= 6
    for n_erase in range(code.d_fr):
        for n_err in range((code.d_fr - 1 - n_erase) // 2 + 1):
            h = random_info(code, rnd)
            cw = encode_nonsystematic(h, code)
            r, phi1 = corrupt(code, cw, n_erase, n_err, rnd)
            assert decode_info(r, phi1, code).values == h.values
            res = decode_word(r, phi1, code)
            assert res.codeword.values == cw.values and len(res.located) == n_erase + n_err
    phi = next(phi for phi in (code.psi.subset(rnd.sample(code.psi.points, len(code.b_list)))
                               for _ in range(100)) if check_systematic_support(phi, code))
    for _ in range(2):
        info = Word(f, 3, {p: rnd.randrange(-1, f.q - 1) for p in code.psi.points if p not in phi})
        word = systematic_encode(info, phi, code)
        assert is_dual_codeword(word, code)
        lemma = _lemma_values(code, phi.points, syndrome(info, code.b_list))
        assert all(word.values[p] == f.neg(v) for p, v in lemma.items())
        r = Word(f, 3, {p: ZERO if p in phi else v for p, v in word.values.items()})
        res = decode_word(r, phi, code)
        assert res.codeword.values == word.values


def _assert_map_is_the_lemma(code, points, rnd):
    """On a set of the code's points with independent check columns: the
    set's map, minus the tail rows of its erasure projection, is the
    scalar oracle's matrix, with its count the unit vectors', map . E_B = I
    for E_B[b, p] = p^b, and on the syndromes of random words on the
    points it gives the words, as the lemma's path (the extension by the
    set's family over A, then the IDFT at the points) does.  Returns the
    family's kind."""
    f, entry = code.field, code.point_set(points)[0]
    want, ops = _reference_map(code, points)
    matrix = f.np_neg(entry.projection.tails)
    assert int(entry.projection.unit_ops.sum()) == ops
    assert matrix.shape == (len(points), len(code.b_list)) and f.np_codes(matrix) == sum(want, [])
    e_b = power_matrix(f, index_array(code.b_list, code.ndim), entry.points.array)
    eye = f.np_exponents(np.eye(len(points), dtype=np.intp) - 1)
    assert (f.np_dot(matrix[:, None, :], e_b.T[None]) == eye).all()
    for _ in range(3):
        word = Word(f, code.ndim, {p: rnd.randrange(-1, f.q - 1) for p in entry.points.points})
        synd = syndrome(word, code.b_list)
        x = f.np_exponents(np.array([synd.values[b] for b in code.b_list], dtype=np.intp))
        assert dict(zip(entry.points.points, f.np_codes(f.np_dot(matrix, x)))) == (
            _lemma_values(code, points, synd)) == word.values
    return _family_kind(code, points)


@pytest.mark.parametrize("name", ["rs-like", "hermitian", "hcrs", "herm16", *sorted(N3_CODES)])
def test_compiled_map_is_the_lemma_on_unit_seeds(name):
    # the map against the scalar oracle and the lemma's path on the golden
    # sets (the redundant set Phi, and on hermitian and hcrs the worked
    # decode's erasure and located sets), the seeded Phi of herm16 and a
    # seeded Phi of each N = 3 code
    code = (code_from_config(HERM16) if name == "herm16" else
            _n3_code(name) if name in N3_CODES else preset(name))
    f, rnd = code.field, random.Random(name)
    if name == "rs-like":
        sets = [code.psi.points[:1], code.psi.points[:2]]
    elif name in ("hermitian", "hcrs"):
        phi, phi1, located = ((HERM_SYS_PHI, HERM_PHI1, HERM_G_LOCATED) if name == "hermitian"
                              else (HCRS_SYS_PHI, HCRS_PHI1, HCRS_G_LOCATED))
        sets = [phi, phi1, located_points(code, located).points]
    else:
        sets = [next(phi for phi in (code.psi.subset(rnd.sample(code.psi.points, len(code.b_list)))
                                     for _ in range(100))
                     if check_systematic_support(phi, code)).points]
    for points in sets:
        _assert_map_is_the_lemma(code, points, rnd)


def test_compiled_map_is_the_lemma_on_random_codes():
    # the redundant set Phi of a small random code and each prefix of it
    # with independent check columns, of either family
    kinds = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(systematic_cases())
    def check(case):
        code, phi, _ = case
        rnd = random.Random(len(phi))
        for k in range(1, len(phi) + 1):
            if len(code.point_set(phi.points[:k])[0].projection.pivots) == k:
                kinds.add(_assert_map_is_the_lemma(code, phi.points[:k], rnd))

    check()
    assert kinds == {"vanishing-ideal", "check-set"}
