import json

import pytest

from avcodes.gf import ZERO, ONE
from avcodes.transform import Spectrum, Word
from avcodes.maps import evaluate
from avcodes.codes import (CodeConfigError, code_from_config, load_code,
                           preset, PRESET_CONFIGS, encode_nonsystematic, primal_encode,
                           syndrome, is_dual_codeword)


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


def test_encoded_words_orthogonal_to_check_monomials(hermitian, rng):
    h = Spectrum(hermitian.field, 2,
                 {d: rng.randrange(-1, 8) for d in hermitian.info_support()})
    cw = encode_nonsystematic(h, hermitian)
    f = hermitian.field
    pts = hermitian.psi.points
    for b in hermitian.b_list:
        gen = evaluate(Spectrum(f, 2, {b: ONE}), hermitian.psi)
        assert inner(f, [cw.values[p] for p in pts], [gen.values[p] for p in pts]) == ZERO


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
