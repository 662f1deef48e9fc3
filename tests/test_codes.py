import json
import random
import re
import sys
import threading
import time

import numpy as np
import pytest

from avcodes import codes
from avcodes.gf import Field, ZERO, ONE
from avcodes.transform import Spectrum, Word
from avcodes.maps import PointSet, VanishingError, canonical_iso, evaluate
from avcodes.ideal import Eliminator
from avcodes.decoder import locate
from avcodes.codes import (CodeConfigError, code_from_config, load_code,
                           preset, PRESET_CONFIGS, encode_nonsystematic, primal_encode,
                           syndrome, is_dual_codeword, generator_work, GENERATOR_BUDGET)


def inner(field, a, b):
    acc = ZERO
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


def test_preset_parameters(rs_like, hermitian, hcrs):
    assert (rs_like.n, rs_like.k, len(rs_like.b_list), rs_like.d_fr) == (4, 2, 2, 3)
    assert (hermitian.n, hermitian.k, len(hermitian.b_list), hermitian.d_fr) == (27, 18, 9, 7)
    assert (hcrs.n, hcrs.k, len(hcrs.b_list), hcrs.d_fr) == (81, 61, 20, 9)
    for code in (rs_like, hermitian, hcrs):
        assert set(code.b_list) <= code.delta.members
        assert code.k == code.n - len(code.b_list)


# the Hermitian code over GF(16) (n = 64) and criterion 11's two small codes
HERM16 = {
    "field": {"p": 2, "m": 4, "primitive_poly": [1, 1, 0, 0, 1]},
    "N": 2,
    "order": {"kind": "weighted_grlex", "weights": [4, 5]},
    "points": "hermitian",
    "B": "wdeg<=20",
    "d_fr": 10,
}
# the Hermitian code x^9 = y^8 + y over GF(64), n = 512, k = 479
HERM64 = {
    "field": {"p": 2, "m": 6, "primitive_poly": [1, 1, 0, 0, 0, 0, 1]},
    "N": 2,
    "order": {"kind": "weighted_grlex", "weights": [8, 9]},
    "points": "hermitian",
    "B": "wdeg<=60",
    "d_fr": 8,
}
RS4 = {"field": {"p": 2, "m": 2, "primitive_poly": [1, 1, 1]},
       "N": 1, "order": {"kind": "lex"}, "points": "full-grid",
       "B": [[0], [1]], "d_fr": 3}
HYP4 = {"field": {"p": 2, "m": 2, "primitive_poly": [1, 1, 1]},
        "N": 2, "order": {"kind": "grlex"}, "points": "full-grid",
        "B": "prodplus<4", "d_fr": 4}


FENG_RAO = {"rs-like": (PRESET_CONFIGS["rs-like"], 3),
            "hermitian": (PRESET_CONFIGS["hermitian"], 7),
            "hcrs": (PRESET_CONFIGS["hcrs"], 9),
            "herm16": (HERM16, 10),
            "rs4": (RS4, 3),
            "hyp4": (HYP4, 4)}


@pytest.mark.parametrize("name", list(FENG_RAO))
def test_feng_rao_bound(name):
    cfg, bound = FENG_RAO[name]
    code = code_from_config(cfg, name=name)
    # computed on first use only: a one-error locate, which reads the
    # normal forms the bound shares, does not compute it
    error = Word(code.field, code.ndim, {p: ZERO for p in code.psi.points})
    error.values[code.psi.points[-1]] = ONE
    located = locate(syndrome(error, code.b_list), PointSet(code.field, code.ndim, ()),
                     code).located
    assert located.points == code.psi.points[-1:]
    assert "sum_forms" in vars(code) and "feng_rao" not in vars(code)
    assert code.feng_rao == bound == code.d_fr
    # the bound reads the normal forms alone: a fresh code builds no E_D
    fresh = code_from_config(cfg, name=name)
    assert fresh.feng_rao == bound and "d_rows" not in vars(fresh)


def test_hermitian_b_chain(hermitian):
    assert hermitian.b_list == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                                (3, 0), (2, 1), (1, 2)]


def test_encode_zero(hermitian):
    h = Spectrum(hermitian.field, 2, {d: ZERO for d in hermitian.info_support()})
    cw = encode_nonsystematic(h, hermitian)
    assert all(v == ZERO for v in cw.values.values())


def test_encode_membership_and_support_check(hermitian, rng):
    h = Spectrum(hermitian.field, 2,
                 {d: rng.randrange(-1, 8) for d in hermitian.info_support()})
    cw = encode_nonsystematic(h, hermitian)
    assert is_dual_codeword(cw, hermitian)
    bad = Spectrum(hermitian.field, 2, {(0, 0): ONE})
    with pytest.raises(CodeConfigError):
        encode_nonsystematic(bad, hermitian)
    off = Spectrum(hermitian.field, 2, {(0, 5): ONE})
    with pytest.raises(CodeConfigError):
        encode_nonsystematic(off, hermitian)


def test_inputs_over_another_field_rejected(hermitian, f8, rng):
    """A spectrum or word over another field is refused before any work,
    naming both fields; an equal field built anew is accepted."""
    code, f = hermitian, hermitian.field
    info = {d: rng.randrange(-1, 7) for d in code.info_support()}
    word = {p: rng.randrange(-1, 7) for p in code.psi.points}
    calls = [
        (encode_nonsystematic, Spectrum(f8, 2, info), "information spectrum"),
        (primal_encode, Spectrum(f8, 2, {b: ONE for b in code.b_list}),
         "primal information spectrum"),
        (is_dual_codeword, Word(f8, 2, word), "word"),
    ]
    for fn, arg, what in calls:
        before = f.op_count, f8.op_count
        with pytest.raises(CodeConfigError, match=r"^%s over Field\(p=2, m=3, q=8\) .*, code "
                           r"over Field\(p=3, m=2, q=9\)" % what):
            fn(arg, code)
        assert (f.op_count, f8.op_count) == before
    same = Field(f.p, f.m, f.primitive_poly)
    assert same is not f
    cw = encode_nonsystematic(Spectrum(same, 2, info), code)
    assert cw.values == encode_nonsystematic(Spectrum(f, 2, info), code).values
    assert is_dual_codeword(Word(same, 2, cw.values), code)
    pe = primal_encode(Spectrum(same, 2, {b: ONE for b in code.b_list}), code)
    assert pe.values == primal_encode(Spectrum(f, 2, {b: ONE for b in code.b_list}), code).values


def test_encoded_words_orthogonal_to_check_monomials(hermitian, rng):
    h = Spectrum(hermitian.field, 2,
                 {d: rng.randrange(-1, 8) for d in hermitian.info_support()})
    cw = encode_nonsystematic(h, hermitian)
    f = hermitian.field
    pts = hermitian.psi.points
    for b in hermitian.b_list:
        gen = evaluate(Spectrum(f, 2, {b: ONE}), hermitian.psi)
        assert inner(f, [cw.values[p] for p in pts], [gen.values[p] for p in pts]) == ZERO


def off_curve_codeword():
    """A codeword on all 81 points of GF(9)^2 of the code with hermitian's
    check indices and grid points: its syndrome on B over the grid is
    zero, yet it has nonzero values off the Hermitian curve."""
    cfg = dict(PRESET_CONFIGS["hcrs"], B=[list(b) for b in preset("hermitian").b_list], d_fr=1)
    grid, rnd = code_from_config(cfg), random.Random(0)
    h = Spectrum(grid.field, 2, {d: rnd.randrange(-1, 8) for d in grid.info_support()})
    return encode_nonsystematic(h, grid)


def test_words_off_the_code_are_no_codewords(hermitian):
    # a word with a point off the code is no codeword, whatever its
    # syndrome over its own points: here zero for the grid codeword, and
    # for a zero word on off-curve points; neither is transformed
    f, word = hermitian.field, off_curve_codeword()
    off = [p for p in word.values if p not in hermitian.psi]
    assert len(word.values) == 81 and any(word.values[p] != ZERO for p in off)
    assert all(v == ZERO for v in syndrome(word, hermitian.b_list).values.values())
    before = f.op_count
    assert not is_dual_codeword(word, hermitian)
    assert not is_dual_codeword(Word(f, 2, dict.fromkeys(off[:10], ZERO)), hermitian)
    assert f.op_count == before


def test_non_codeword_detected(rs_like, rng):
    h = Spectrum(rs_like.field, 1, {(2,): 3, (3,): 5})
    cw = encode_nonsystematic(h, rs_like)
    assert is_dual_codeword(cw, rs_like)
    flipped = cw.copy()
    p0 = rs_like.psi.points[1]
    flipped.values[p0] = rs_like.field.add(flipped.values[p0], ONE)
    assert not is_dual_codeword(flipped, rs_like)


def test_syndrome_linearity(hermitian, rng):
    f = hermitian.field
    h = Spectrum(f, 2, {d: rng.randrange(-1, 8) for d in hermitian.info_support()})
    cw = encode_nonsystematic(h, hermitian)
    assert all(v == ZERO for v in syndrome(cw, hermitian.b_list).values.values())
    e = Word(f, 2, {p: ZERO for p in hermitian.psi.points})
    for p in list(hermitian.psi.points)[:3]:
        e.values[p] = rng.randrange(0, 8)
    r = Word(f, 2, {p: f.add(cw.values[p], e.values[p]) for p in hermitian.psi.points})
    assert syndrome(r, hermitian.b_list).values == syndrome(e, hermitian.b_list).values


def test_primal_encode(rs_like, rng):
    f = rs_like.field
    pe = primal_encode(Spectrum(f, 1, {(0,): ONE}), rs_like)
    assert all(v == ONE for v in pe.values.values())
    z = primal_encode(Spectrum(f, 1, {}), rs_like)
    assert all(v == ZERO for v in z.values.values())
    with pytest.raises(CodeConfigError):
        primal_encode(Spectrum(f, 1, {(2,): ONE}), rs_like)


def test_primal_dual_orthogonal(hermitian, rng):
    f = hermitian.field
    pts = hermitian.psi.points
    for _ in range(10):
        u = Spectrum(f, 2, {b: rng.randrange(-1, 8) for b in hermitian.b_list})
        h = Spectrum(f, 2, {d: rng.randrange(-1, 8) for d in hermitian.info_support()})
        a = primal_encode(u, hermitian)
        b = encode_nonsystematic(h, hermitian)
        assert inner(f, [a.values[p] for p in pts], [b.values[p] for p in pts]) == ZERO


def _rank(field, rows):
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != ZERO), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != ZERO:
                cc = rows[i][c]
                rows[i] = [field.sub(x, field.mul(cc, y))
                           for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def test_basis_encodings_block_structure(rs_like, hermitian):
    # each block of unit encodings has full rank and the blocks are
    # mutually orthogonal; joint independence cannot hold for the 2-D
    # codes (their evaluation code sits inside its own dual), so it is
    # asserted only where the hull is trivial
    for code in (rs_like, hermitian):
        f = code.field
        pts = code.psi.points
        rows = []
        for b in code.b_list:
            w = primal_encode(Spectrum(f, code.ndim, {b: ONE}), code)
            rows.append([w.values[p] for p in pts])
        nb = len(rows)
        for d in code.info_support():
            h = Spectrum(f, code.ndim, {e: (ONE if e == d else ZERO)
                                        for e in code.info_support()})
            w = encode_nonsystematic(h, code)
            rows.append([w.values[p] for p in pts])
        assert len(rows) == code.n
        assert _rank(f, rows[:nb]) == nb
        assert _rank(f, rows[nb:]) == code.n - nb
        for i in range(nb):
            for j in range(nb, code.n):
                assert inner(f, rows[i], rows[j]) == ZERO
    # trivial hull case: the blocks together span the whole space
    f = rs_like.field
    pts = rs_like.psi.points
    rows = []
    for b in rs_like.b_list:
        rows.append([primal_encode(Spectrum(f, 1, {b: ONE}), rs_like).values[p]
                     for p in pts])
    for d in rs_like.info_support():
        h = Spectrum(f, 1, {e: (ONE if e == d else ZERO)
                            for e in rs_like.info_support()})
        rows.append([encode_nonsystematic(h, rs_like).values[p] for p in pts])
    assert _rank(f, rows) == rs_like.n


def test_encode_injective(rs_like, rng):
    seen = {}
    f = rs_like.field
    sup = rs_like.info_support()
    for _ in range(40):
        h = Spectrum(f, 1, {d: rng.randrange(-1, 7) for d in sup})
        cw = encode_nonsystematic(h, rs_like)
        key = tuple(cw.values[p] for p in rs_like.psi.points)
        hkey = tuple(sorted(h.values.items()))
        if key in seen:
            assert seen[key] == hkey
        seen[key] = hkey


GENERATOR_CODES = {"rs-like": PRESET_CONFIGS["rs-like"],
                   "hermitian": PRESET_CONFIGS["hermitian"],
                   "hcrs": PRESET_CONFIGS["hcrs"],
                   "herm16": HERM16,
                   "herm64": HERM64}


def _info(code, rng):
    f = code.field
    return Spectrum(f, code.ndim, {d: rng.randrange(-1, f.q - 1) for d in code.info_support()})


def _generator_of(code):
    return codes._generator(code.field, (code.order.kind, code.order.weights),
                            code.psi.points, tuple(code.b_list), code.delta)


def _encode_ops(code):
    """What a warm encode counts: the product and the syndrome check."""
    return code.n * (2 * code.k - 1) + len(code.b_list) * (2 * code.n - 1)


@pytest.mark.parametrize("name", list(GENERATOR_CODES))
def test_generator_words_equal_the_lemma(name):
    """Every code here encodes by its compiled generator, whose words are
    the lemma's on a seeded sweep; a warm encode counts the product and
    its check."""
    code = code_from_config(GENERATOR_CODES[name])
    assert generator_work(code.n, code.k) <= GENERATOR_BUDGET
    encode_nonsystematic(Spectrum(code.field, code.ndim, {}), code)  # builds G if cold
    rng = random.Random(name)
    for _ in range(30):
        h = _info(code, rng)
        want = canonical_iso(code.zero_padded(h), code.gb, code.psi)
        before = code.field.op_count
        assert encode_nonsystematic(h, code).values == want.values
        assert code.field.op_count - before == _encode_ops(code)
    info, g = _generator_of(code)
    assert list(info) == code.info_support()
    assert g.shape == (code.n, code.k) and not g.flags.writeable


def test_generator_shared_by_codes_of_one_definition():
    """The first encode of a definition builds its generator and counts
    the build once; a second code of the same config reuses it, adding
    only the product and the check, and gives the same words."""
    codes._generator.cache_clear()
    first, second = code_from_config(HERM16), code_from_config(HERM16)
    assert first.field is not second.field
    rng = random.Random(16)
    h = _info(first, rng)
    before = first.field.op_count
    word = encode_nonsystematic(h, first)
    assert first.field.op_count - before > _encode_ops(first)
    assert codes._generator.cache_info().currsize == 1
    before = second.field.op_count
    assert encode_nonsystematic(Spectrum(second.field, 2, h.values), second).values == word.values
    assert second.field.op_count - before == _encode_ops(second)
    assert codes._generator.cache_info().currsize == 1
    assert _generator_of(first)[1] is _generator_of(second)[1]


def test_corrupted_generator_raises(hermitian):
    """One overwritten entry of the cached generator makes the next word
    fail its syndrome check: VanishingError, and no word leaves the
    encoder."""
    rng = random.Random(9)
    h = _info(hermitian, rng)
    j = next(i for i, d in enumerate(hermitian.info_support()) if h.values[d] != ZERO)
    g = _generator_of(hermitian)[1]
    old = int(g[5, j])
    g.flags.writeable = True
    try:
        g[5, j] = (old + 1) % (hermitian.field.q - 1)
        with pytest.raises(VanishingError, match="nonzero syndrome at check index"):
            encode_nonsystematic(h, hermitian)
    finally:
        g[5, j] = old
        g.flags.writeable = False
    assert is_dual_codeword(encode_nonsystematic(h, hermitian), hermitian)


def test_evaluator_chosen_by_the_build_estimate(hermitian, monkeypatch):
    """The n = 4096 GF(256) Hermitian code (k = 3955) is past the budget
    by the estimate alone, so it encodes by the lemma; the n = 512 code
    is inside it.  A code past the budget never reaches the generator
    and counts the lemma's operations."""
    assert generator_work(4096, 3955) > GENERATOR_BUDGET
    assert generator_work(512, 479) <= GENERATOR_BUDGET

    def refuse(*args):
        raise AssertionError("generator built past the budget")

    monkeypatch.setattr(codes, "_generator", refuse)
    monkeypatch.setattr(codes, "GENERATOR_BUDGET", generator_work(hermitian.n, hermitian.k) - 1)
    h = _info(hermitian, random.Random(27))
    f = hermitian.field
    before = f.op_count
    want = canonical_iso(hermitian.zero_padded(h), hermitian.gb, hermitian.psi)
    lemma_ops = f.op_count - before
    before = f.op_count
    assert encode_nonsystematic(h, hermitian).values == want.values
    assert f.op_count - before == lemma_ops


def test_first_encodes_from_threads_agree():
    """Threads whose first encode on fresh codes of one config meet at the
    generator's build, under a short switch interval, all get the lemma's
    word."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(3):
            codes._generator.cache_clear()
            fresh = [code_from_config(PRESET_CONFIGS["hcrs"]) for _ in range(4)]
            h = _info(fresh[0], random.Random(seed))
            words = [None] * len(fresh)
            start = threading.Barrier(len(fresh), timeout=30)

            def run(i):
                start.wait()
                words[i] = encode_nonsystematic(Spectrum(fresh[i].field, 2, h.values), fresh[i])

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(fresh))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            want = canonical_iso(fresh[0].zero_padded(h), fresh[0].gb, fresh[0].psi)
            assert all(w.values == want.values for w in words)
    finally:
        sys.setswitchinterval(old)


REDUCTION_CODES = {"rs-like": PRESET_CONFIGS["rs-like"],
                   "hermitian": PRESET_CONFIGS["hermitian"],
                   "hcrs": PRESET_CONFIGS["hcrs"],
                   "herm16": HERM16}


def _reduction_sets(code, rng):
    """Seeded point sets, as row lists, for the erasure projection: the
    empty set, sets of 1..|B| points, one with more points than |B| and,
    where a draw finds one, |B| or fewer points with dependent columns."""
    size, rows = len(code.b_list), list(range(code.n))
    sets = [[]] + [rng.sample(rows, rng.randrange(1, size + 1)) for _ in range(6)]
    sets.append(rng.sample(rows, min(code.n, size + 3)))
    for _ in range(200):
        draw = rng.sample(rows, rng.randrange(1, size + 1))
        elim = Eliminator(code.field, size)
        elim.insert(code.columns[draw], draw)
        if len(elim.pivots) < len(draw):
            sets.append(draw)
            break
    return sets


@pytest.mark.parametrize("name", list(REDUCTION_CODES))
def test_compiled_reduction_equals_reduce(name):
    """The erasure projection of a point-set entry, reduction compiled to
    one product along the insertion, gives Eliminator.reduce's residuals,
    tails and per-vector counts on multi-row batches; the insertion keeps
    its pairs and count, the compile counts nothing and the entry's build
    counts the insertion, and at full rank minus its read-only tail rows
    equal the elimination of the negated unit vectors, with the unit
    vectors' count."""
    code = code_from_config(REDUCTION_CODES[name])
    f, rng, size = code.field, random.Random(name), len(code.b_list)
    ar = f.np_arith()
    deficient = False
    # each set once, in the store's insertion order
    for rows in map(list, dict.fromkeys(tuple(sorted(r)) for r in _reduction_sets(code, rng))):
        elim = Eliminator(f, size)
        done, ops = elim.insert(code.columns[rows], rows)
        before = f.op_count
        got = Eliminator(f, size).insert_compiled(code.columns[rows], rows)
        assert f.op_count == before
        compiled = got[2]
        assert [(i, None if t is None else t.tolist()) for i, t in got[0]] == [
            (i, None if t is None else t.tolist()) for i, t in done] and got[1] == ops
        before = f.op_count
        entry, built = code.point_set([code.psi.points[r] for r in rows])
        assert built and f.op_count - before == ops
        proj = entry.projection
        assert compiled.pivots == proj.pivots == tuple(elim.pivots)
        assert not proj.matrix.flags.writeable
        assert proj.matrix.shape == (size + 2 * len(elim.pivots), size)
        deficient |= len(elim.pivots) < len(rows)
        for m in (1, 2, 7):
            batch = np.array([[rng.randrange(f.q) for _ in range(size)] for _ in range(m)])
            batch = np.where(batch == f.q - 1, ar.zero, batch)
            batch = np.vstack([batch, np.full(size, ar.zero), code.columns[rng.sample(
                range(code.n), 3)], np.where(np.eye(size, dtype=bool), 0, ar.zero)])
            want = elim.reduce(batch)
            for got in (compiled.reduce(batch), proj.reduce(batch)):
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
        if len(elim.pivots) < len(rows) or not rows:
            continue
        _, tails, more = elim.reduce(np.where(np.eye(size, dtype=bool), ar.neg, ar.zero))
        assert not proj.tails.flags.writeable
        assert np.array_equal(f.np_neg(proj.tails), tails.T)
        assert int(proj.unit_ops.sum()) == int(more.sum())
    assert deficient


def test_config_roundtrip_matches_preset(hermitian):
    cfg = dict(PRESET_CONFIGS["hermitian"])
    cfg["points"] = [list(p) for p in hermitian.psi.points]
    cfg["B"] = [list(b) for b in hermitian.b_list]
    code = code_from_config(cfg)
    assert code.psi.points == hermitian.psi.points
    assert code.b_list == hermitian.b_list
    assert code.d_fr == hermitian.d_fr


def test_config_errors(tmp_path):
    cfg = dict(PRESET_CONFIGS["rs-like"])
    cfg["B"] = [[0], [5]]  # (5,) outside the delta set
    with pytest.raises(CodeConfigError):
        code_from_config(cfg)
    cfg = dict(PRESET_CONFIGS["rs-like"])
    cfg["d_fr"] = 99
    with pytest.raises(CodeConfigError):
        code_from_config(cfg)
    cfg = dict(PRESET_CONFIGS["hermitian"])
    cfg["B"] = "wdeg<=x"
    with pytest.raises(CodeConfigError):
        code_from_config(cfg)
    cfg = dict(PRESET_CONFIGS["rs-like"])
    cfg["points"] = "no-such-generator"
    with pytest.raises(CodeConfigError):
        code_from_config(cfg)
    with pytest.raises(CodeConfigError):
        code_from_config({})
    cfg = dict(PRESET_CONFIGS["hermitian"])
    cfg["order"] = {"kind": "weighted_grlex", "weights": [1]}
    with pytest.raises(CodeConfigError, match="1 order weights for N = 2"):
        code_from_config(cfg)
    cfg = dict(PRESET_CONFIGS["rs-like"])
    cfg["points"] = []
    with pytest.raises(CodeConfigError, match="no points"):
        code_from_config(cfg)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CodeConfigError):
        load_code(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(PRESET_CONFIGS["rs-like"]))
    assert load_code(str(good)).n == 4


def test_config_needs_positive_n():
    # N = 0 used to end in a bare IndexError inside the basis scan
    with pytest.raises(CodeConfigError, match="N = 0"):
        code_from_config(dict(PRESET_CONFIGS["hcrs"], N=0))


@pytest.mark.parametrize("b_spec", [[], "wdeg<=-5"])
def test_config_needs_nonempty_b(b_spec):
    # an empty B used to build a code that no decoder could run on
    with pytest.raises(CodeConfigError, match="B is empty"):
        code_from_config(dict(PRESET_CONFIGS["hermitian"], B=b_spec))


@pytest.mark.parametrize("d_fr", [7.9, True])
def test_config_d_fr_must_be_an_integer(d_fr):
    # 7.9 used to be read as 7 and true as 1
    with pytest.raises(CodeConfigError, match="not an integer"):
        code_from_config(dict(PRESET_CONFIGS["hermitian"], d_fr=d_fr))


@pytest.mark.parametrize("n", [2.7, "2", True])
def test_config_n_must_be_an_integer(n):
    # 2.7 and "2" used to build the code with N = 2, and true a code over
    # GF(9)^1
    with pytest.raises(CodeConfigError, match="N = .* is not an integer"):
        code_from_config(dict(PRESET_CONFIGS["hcrs"], N=n))


@pytest.mark.parametrize("part,value,bad", [
    ("field", {"p": 3, "m": 2, "primitive_poly": [2, 1, "x"]}, "primitive_poly[2] = 'x'"),
    ("order", {"kind": "weighted_grlex", "weights": [3.5, 4]}, "weights[0] = 3.5"),
    ("order", {"kind": "weighted_grlex", "weights": "34"}, "weights[0] = '3'"),
], ids=["poly", "float-weight", "string-weights"])
def test_config_coefficients_and_weights_must_be_integers(part, value, bad):
    # weights 3.5 and 4 used to build another hermitian code (|B| = 8, not
    # 9); "x" and "34" ended in a formatting or comparison error
    with pytest.raises(CodeConfigError,
                       match="^bad code config: %s is not an integer$" % re.escape(bad)):
        code_from_config(dict(PRESET_CONFIGS["hermitian"], **{part: value}))


def test_config_p_zero_is_a_config_error():
    # p = 0 used to end in a ZeroDivisionError reducing the polynomial
    cfg = dict(PRESET_CONFIGS["hcrs"], field={"p": 0, "m": 2, "primitive_poly": [2, 1, 1]})
    with pytest.raises(CodeConfigError, match="p = 0 is not prime"):
        code_from_config(cfg)


def _hcrs_config_text(p):
    # the hcrs config with p written as given (json.dumps cannot write an
    # int past Python's digit limit)
    return json.dumps(PRESET_CONFIGS["hcrs"]).replace('"p": 3,', '"p": %s,' % p, 1)


@pytest.mark.parametrize("p", [str(2 ** 61 - 1), "1" + "0" * 4999],
                         ids=["p=2^61-1", "p-of-5000-digits"])
def test_config_with_a_huge_p_fails_at_once(tmp_path, p):
    # 2^61 - 1 hung in trial division; json.load raises a plain ValueError
    # on 5,000 digits, which ended in a traceback
    path = tmp_path / "big.json"
    path.write_text(_hcrs_config_text(p))
    start = time.perf_counter()
    with pytest.raises(CodeConfigError):
        load_code(path)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", sorted(PRESET_CONFIGS))
def test_config_builds_one_vanishing_basis(name, monkeypatch):
    from avcodes import codes

    calls = []
    original = codes.vanishing_gb

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(codes, "vanishing_gb", counting)
    code_from_config(PRESET_CONFIGS[name], name=name)
    assert len(calls) == 1


def test_unknown_preset():
    with pytest.raises(CodeConfigError):
        preset("nope")


def test_hermitian_points_need_square_field(f8):
    from avcodes.codes import _hermitian_points

    with pytest.raises(CodeConfigError):
        _hermitian_points(f8, 2)
