import random

import pytest

from scalar_reference import idft_at, transpose_check
from avcodes.gf import Field, ZERO, ONE
from avcodes.mindex import MonomialOrder, format_index
from avcodes.transform import Spectrum, Word, idft_fast, omega_space
from avcodes.ideal import extend, vanishing_gb
from avcodes.maps import (PointSet, evaluate, proper_transform, canonical_iso,
                          MapError, VanishingError)
from avcodes.ideal import _extension_array
from avcodes.golden import (RS_PSI, RS_SEED, RS_RESTRICTION, RS_OMEGA_WORD,
                            EV_GEN_SPECTRA, EV_GEN_WORDS, DUAL_SEEDS, DUAL_CODEWORDS,
                            CROSS_PSI)


@pytest.fixture(scope="module")
def rs_setup(f8_module):
    psi = PointSet(f8_module, 1, RS_PSI)
    gb, delta = vanishing_gb(psi, MonomialOrder("lex"))
    return psi, gb, delta


@pytest.fixture(scope="session")
def f8_module():
    from avcodes.gf import Field

    return Field(2, 3, (1, 1, 0, 1))


def test_pointset_invariants(f8_module):
    with pytest.raises(MapError):
        PointSet(f8_module, 1, ((1,), (1,)))
    with pytest.raises(MapError):
        PointSet(f8_module, 2, ((1,),))
    ps = PointSet(f8_module, 1, RS_PSI)
    assert len(ps) == 4 and (3,) in ps


def test_pointset_text_roundtrip(f9):
    ps = PointSet(f9, 2, ((-1, 3), (0, 2), (7, -1)))
    assert PointSet.parse(f9, 2, [format_index(p) for p in ps.points]).points == ps.points


def test_evaluate_worked_examples(f8_module, rs_setup):
    psi, gb, delta = rs_setup
    for spec_terms, want in zip(EV_GEN_SPECTRA, EV_GEN_WORDS):
        got = evaluate(Spectrum(f8_module, 1, dict(spec_terms)), psi)
        assert tuple(got.values[p] for p in psi.points) == want
    ones = evaluate(Spectrum(f8_module, 1, {(0,): ONE}), psi)
    assert all(v == ONE for v in ones.values.values())


def test_proper_transform_inverts_canonical(f8_module, rs_setup):
    psi, gb, delta = rs_setup
    word = Word(f8_module, 1, {p: v for p, v in zip(psi.points, RS_RESTRICTION)})
    back = proper_transform(word, delta)
    assert back.values == RS_SEED


def test_proper_transform_basics(f8_module, rs_setup):
    psi, gb, delta = rs_setup
    zero = Word(f8_module, 1, {p: ZERO for p in psi.points})
    assert all(v == ZERO for v in proper_transform(zero, delta).values.values())
    # single unit at psi = alpha: h_d = alpha^d
    unit = Word(f8_module, 1, {p: (ONE if p == (1,) else ZERO) for p in psi.points})
    h = proper_transform(unit, delta)
    for (d,), v in h.values.items():
        assert v == f8_module.pow(1, d)
    with pytest.raises(MapError):
        proper_transform(unit, frozenset({(0,)}))


def test_canonical_iso_worked_example(f8_module, rs_setup):
    psi, gb, delta = rs_setup
    seed = Spectrum(f8_module, 1, dict(RS_SEED))
    word, omega = canonical_iso(seed, gb, psi), idft_fast(extend(seed, gb))
    assert tuple(word.values[p] for p in psi.points) == RS_RESTRICTION
    pts = omega_space(f8_module, 1)
    assert tuple(omega.values[p] for p in pts) == RS_OMEGA_WORD
    for seed_terms, cw in zip(DUAL_SEEDS, DUAL_CODEWORDS):
        padded = {(a,): seed_terms.get((a,), ZERO) for a in range(4)}
        got = canonical_iso(Spectrum(f8_module, 1, padded), gb, psi)
        assert tuple(got.values[p] for p in psi.points) == cw


def test_canonical_roundtrip(f8_module, f9, hermitian, hcrs, rng):
    cases = [
        (f8_module, PointSet(f8_module, 1, RS_PSI), MonomialOrder("lex")),
        (f8_module, PointSet(f8_module, 2, CROSS_PSI), MonomialOrder("lex")),
        (f9, hermitian.psi, hermitian.order),
        (f9, hcrs.psi, hcrs.order),
    ]
    for f, psi, order in cases:
        gb, delta = vanishing_gb(psi, order)
        for _ in range(3):
            h = Spectrum(f, psi.ndim,
                         {d: rng.randrange(-1, f.q - 1) for d in delta.members})
            word = canonical_iso(h, gb, psi)
            assert proper_transform(word, delta).values == h.values
            c = Word(f, psi.ndim,
                     {p: rng.randrange(-1, f.q - 1) for p in psi.points})
            again = canonical_iso(proper_transform(c, delta), gb, psi)
            assert again.values == c.values


ROUNDTRIP_FIELDS = {4: Field(2, 2, (1, 1, 1)), 8: Field(2, 3, (1, 1, 0, 1)),
                    9: Field(3, 2, (2, 1, 1)), 16: Field(2, 4, (1, 1, 0, 0, 1)),
                    25: Field(5, 2, (2, 1, 1)), 27: Field(3, 3, (1, 2, 0, 1)),
                    32: Field(2, 5, (1, 0, 0, 1, 0, 1))}


@pytest.mark.parametrize("q", sorted(ROUNDTRIP_FIELDS), ids="GF({})".format)
def test_canonical_roundtrip_on_random_point_sets(q):
    # both characteristics, the log table (GF(9), GF(25), GF(27)) and
    # XOR sums: the canonical map and the proper transform invert each
    # other on random point sets under random orders
    f = ROUNDTRIP_FIELDS[q]
    rnd = random.Random(q)
    for ndim in (1, 1, 2, 2, 2):
        omega = omega_space(f, ndim)
        psi = PointSet(f, ndim, tuple(rnd.sample(omega, rnd.randrange(1, min(16, q ** ndim)))))
        kind = rnd.choice(["lex", "grlex", "weighted_grlex"])
        order = MonomialOrder(kind, rnd.choices(range(1, 5), k=ndim)
                              if kind == "weighted_grlex" else None)
        gb, delta = vanishing_gb(psi, order)
        h = Spectrum(f, ndim, {d: rnd.randrange(-1, q - 1) for d in delta.members})
        assert proper_transform(canonical_iso(h, gb, psi), delta).values == h.values
        c = Word(f, ndim, {p: rnd.randrange(-1, q - 1) for p in psi.points})
        assert canonical_iso(proper_transform(c, delta), gb, psi).values == c.values


def test_vanishing_on_basis_vectors(f8_module, rs_setup):
    psi, gb, delta = rs_setup
    inside = set(psi.points)
    for d in delta.members:
        unit = Spectrum(f8_module, 1,
                        {e: (ONE if e == d else ZERO) for e in delta.members})
        canonical_iso(unit, gb, psi)  # checks the vanishing itself
        omega = idft_fast(extend(unit, gb))
        for p, v in omega.values.items():
            if p not in inside:
                assert v == ZERO


def test_vanishing_violation_detected(f8_module, rs_setup):
    psi, gb, delta = rs_setup
    # restricting the target point set without changing the basis makes the
    # prolonged word nonzero off the smaller set
    smaller = PointSet(f8_module, 1, RS_PSI[:3])
    h = Spectrum(f8_module, 1, {d: ONE for d in delta.members})
    with pytest.raises(VanishingError, match=r"^nonzero value 3 at \(6\) outside the point set$"):
        canonical_iso(h, gb, smaller)
    # the IDFT at the smaller set's points alone reads the values there
    # without the check
    x = _extension_array(h, gb)
    assert len(idft_at(f8_module, x, smaller.array)) == 3


def test_canonical_iso_rejects_a_point_set_of_another_space(f8_module, hermitian, rs_like):
    # hermitian's basis lives over GF(9)^2; rs-like's points (GF(8)^1),
    # points over GF(8)^2 and points over GF(9)^1 are refused before any work
    gb = hermitian.gb
    h = Spectrum(hermitian.field, 2, {d: ONE for d in gb.delta.members})
    with pytest.raises(MapError, match=r"^point set over Field\(p=2, m=3, q=8\), N = 1, "
                                       r"but basis over Field\(p=3, m=2, q=9\), N = 2$"):
        canonical_iso(h, gb, rs_like.psi)
    for other in (PointSet(f8_module, 2, ((ZERO, ZERO), (0, 1))),
                  PointSet(hermitian.field, 1, ((ZERO,), (0,)))):
        with pytest.raises(MapError, match="but basis over"):
            canonical_iso(h, gb, other)


def test_idft_at_reads_the_canonical_map(hcrs, rng):
    # on hcrs (q = 9, N = 2) a point with both coordinates nonzero costs
    # the IDFT at given points 176 operations: 20 such points read the
    # canonical map's values for 3520, against 3618 for the fast transform
    f = hcrs.field
    inner = [p for p in hcrs.psi.points if ZERO not in p]
    pts = PointSet(f, 2, tuple(rng.sample(inner, 20)))
    gb, delta = vanishing_gb(pts, hcrs.order)
    h = Spectrum(f, 2, {d: rng.randrange(-1, 8) for d in delta.members})
    x = _extension_array(h, gb)
    before = f.op_count
    vals = idft_at(f, x, pts.array)
    assert f.op_count - before == 20 * 176
    assert f.np_codes(vals) == list(canonical_iso(h, gb, pts).values.values())


def test_transpose_check(f8_module, f9, rs_setup, hermitian):
    # the matrix of evaluate is the transpose of the proper transform's
    # (dft_partial), and invertible, on these delta set / point set pairs
    psi, gb, delta = rs_setup
    assert transpose_check(delta, psi)
    single = PointSet(f8_module, 1, ((4,),))
    _, d1 = vanishing_gb(single, MonomialOrder("lex"))
    assert transpose_check(d1, single)
    omega = PointSet(f8_module, 1, tuple((w,) for w in f8_module.elements()))
    _, do = vanishing_gb(omega, MonomialOrder("lex"))
    assert transpose_check(do, omega)
    assert transpose_check(hermitian.delta, hermitian.psi)
    # size mismatch short-circuits to False
    assert not transpose_check(delta, single)


def test_evaluate_injective(f8_module, rs_setup, rng):
    psi, gb, delta = rs_setup
    seen = set()
    for _ in range(30):
        h = Spectrum(f8_module, 1,
                     {d: rng.randrange(-1, 7) for d in delta.members})
        w = evaluate(h, psi)
        key = tuple(sorted(h.values.items()))
        val = tuple(w.values[p] for p in psi.points)
        for k2, v2 in seen:
            if k2 != key:
                assert v2 != val
        seen.add((key, val))
