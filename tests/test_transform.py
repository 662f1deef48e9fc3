import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as reference
from avcodes.codes import is_dual_codeword
from avcodes.gf import ZERO, ONE, Field, FieldError, NP_TABLE_Q
from avcodes.transform import (Spectrum, Word, dft, idft, dft_fast, idft_fast,
                               dft_partial, dft_kernel, idft_kernel,
                               index_space, omega_space,
                               spectrum_lines, word_lines, parse_assoc_lines,
                               grid_lines, DomainError)
from avcodes.golden import (RS_OMEGA_WORD, RS_SEED, RS_EXTENSION,
                            FIG_COLUMN, FIG_COLUMN_OUT, FIG_ROW, FIG_ROW_OUT)


def full_word(field, ndim, values_by_point):
    return Word(field, ndim, dict(values_by_point))


def random_word(field, ndim, rng):
    return Word(field, ndim,
                {w: rng.randrange(-1, field.q - 1) for w in omega_space(field, ndim)})


def random_spectrum(field, ndim, rng):
    return Spectrum(field, ndim,
                    {a: rng.randrange(-1, field.q - 1) for a in index_space(field, ndim)})


def test_dft_worked_example(f8):
    pts = omega_space(f8, 1)
    c = Word(f8, 1, {p: v for p, v in zip(pts, RS_OMEGA_WORD)})
    h = dft(c)
    want = dict(RS_SEED)
    want.update(RS_EXTENSION)
    assert h.values == want


def test_dft_zero_indicator(f8):
    # c = indicator of omega = 0: h_0 = 1, h_a = 0 otherwise
    c = Word(f8, 1, {p: (ONE if p == (ZERO,) else ZERO) for p in omega_space(f8, 1)})
    h = dft(c)
    assert h.values[(0,)] == ONE
    assert all(v == ZERO for a, v in h.values.items() if a != (0,))


def test_dft_all_ones(f8):
    # derived by direct summation: char 2 so sum of 1 over 8 points is 0,
    # and sum over nonzero omega of omega^a is 0 unless a = 7
    c = Word(f8, 1, {p: ONE for p in omega_space(f8, 1)})
    h = dft(c)
    oracle = {}
    for a in index_space(f8, 1):
        acc = ZERO
        for w in f8.elements():
            acc = f8.add(acc, f8.pow(w, a[0]))
        oracle[a] = acc
    assert h.values == oracle
    assert h.values[(0,)] == ZERO and h.values[(7,)] == ONE
    assert all(v == ZERO for a, v in h.values.items() if a not in {(0,), (7,)})


def test_idft_worked_example(f8):
    want = dict(RS_SEED)
    want.update(RS_EXTENSION)
    c = idft(Spectrum(f8, 1, want))
    pts = omega_space(f8, 1)
    assert tuple(c.values[p] for p in pts) == RS_OMEGA_WORD


def test_idft_at_zero_is_h0_minus_hlast(f8, rng):
    for _ in range(25):
        h = random_spectrum(f8, 1, rng)
        c = idft(h)
        assert c.values[(ZERO,)] == f8.sub(h.values[(0,)], h.values[(7,)])


@pytest.mark.parametrize("pm", [(2, 3, (1, 1, 0, 1), 1), (2, 3, (1, 1, 0, 1), 2),
                                (3, 2, (2, 1, 1), 2), (2, 2, (1, 1, 1), 3)])
def test_inversion_roundtrip(pm, rng):
    from avcodes.gf import Field

    p, m, poly, ndim = pm
    f = Field(p, m, poly)
    for _ in range(10):
        c = random_word(f, ndim, rng)
        assert idft(dft(c)).values == c.values
        h = random_spectrum(f, ndim, rng)
        assert dft(idft(h)).values == h.values


def test_fast_equals_direct(f8, f9, f4, rng):
    for f, ndim in ((f8, 1), (f8, 2), (f9, 2), (f4, 3)):
        for _ in range(8):
            c = random_word(f, ndim, rng)
            assert dft_fast(c).values == dft(c).values
            h = random_spectrum(f, ndim, rng)
            assert idft_fast(h).values == idft(h).values


def test_fast_op_bound(f9, rng):
    h = random_spectrum(f9, 2, rng)
    before = f9.op_count
    idft_fast(h)
    assert f9.op_count - before <= 3 * 2 * 9 ** 3
    c = random_word(f9, 2, rng)
    before = f9.op_count
    dft_fast(c)
    assert f9.op_count - before <= 3 * 2 * 9 ** 3


def test_direct_idft_costs_more(f9, rng):
    h = random_spectrum(f9, 2, rng)
    before = f9.op_count
    idft_fast(h)
    fast_ops = f9.op_count - before
    before = f9.op_count
    idft(h)
    direct_ops = f9.op_count - before
    assert direct_ops > fast_ops


def test_grid_kernel_vectors(f8):
    assert tuple(idft_kernel(f8, list(FIG_COLUMN))[:3]) == FIG_COLUMN_OUT
    assert tuple(idft_kernel(f8, list(FIG_ROW))[:3]) == FIG_ROW_OUT


def test_grid_pipeline_reproduces_prose_values(f8):
    # a full index grid consistent with the printed column and row: the
    # grid's first column is the printed one, and rows are padded so the
    # first kernel pass lands on the printed zero-row values
    q = 8
    grid = {}
    for a1 in range(q):
        grid[(a1, 0)] = FIG_COLUMN[a1]
    for a2 in range(1, q):
        grid[(0, a2)] = FIG_ROW[a2]
        grid[(7, a2)] = ZERO
        for a1 in range(1, 7):
            grid[(a1, a2)] = ZERO
    h = Spectrum(f8, 2, grid)
    # pass along axis 0 (columns), then axis 1 (rows), checking the
    # intermediate zero-row and the final corner value
    col_out = idft_kernel(f8, [grid[(a1, 0)] for a1 in range(q)])
    assert col_out[0] == FIG_ROW[0]
    mids = {a2: idft_kernel(f8, [grid[(a1, a2)] for a1 in range(q)])[0] for a2 in range(q)}
    assert tuple(mids[a2] for a2 in range(q)) == FIG_ROW
    c = idft_fast(h)
    assert c.values[(ZERO, ZERO)] == FIG_ROW_OUT[0]
    assert c.values[(ZERO, 0)] == FIG_ROW_OUT[1]
    assert c.values[(ZERO, 1)] == FIG_ROW_OUT[2]
    assert idft(h).values == c.values


def test_restriction_agreement_with_classical_idft(f8, rng):
    # words supported on nonzero points: the generalized inverse matches
    # the classical formula c_w = (-1)^N sum h_l w^-l there
    ndim = 2
    nonzero_pts = [w for w in omega_space(f8, ndim) if all(x != ZERO for x in w)]
    for _ in range(5):
        c = Word(f8, ndim, {w: (rng.randrange(-1, 7) if all(x != ZERO for x in w) else ZERO)
                            for w in omega_space(f8, ndim)})
        h = dft(c)
        back = idft(h)
        for w in nonzero_pts:
            acc = ZERO
            for l1 in range(1, 8):
                for l2 in range(1, 8):
                    t = f8.mul(h.values[(l1, l2)],
                               f8.mul(f8.pow(w[0], -l1), f8.pow(w[1], -l2)))
                    acc = f8.add(acc, t)
            # (-1)^2 = 1 in any characteristic
            assert back.values[w] == acc


def test_linearity(f9, rng):
    for _ in range(5):
        c1 = random_word(f9, 2, rng)
        c2 = random_word(f9, 2, rng)
        s = rng.randrange(0, 8)
        mix = Word(f9, 2, {w: f9.add(f9.mul(s, c1.values[w]), c2.values[w])
                           for w in c1.values})
        h1, h2, hm = dft(c1), dft(c2), dft_fast(mix)
        for a in hm.values:
            assert hm.values[a] == f9.add(f9.mul(s, h1.values[a]), h2.values[a])


def test_partial_transform_is_restriction(f9, rng):
    c = random_word(f9, 2, rng)
    subset = [(0, 0), (2, 1), (8, 8), (3, 5)]
    part = dft_partial(c, subset)
    full = dft(c)
    assert part.values == {a: full.values[a] for a in subset}


def test_partial_domain_rejected(f8):
    c = Word(f8, 1, {(ZERO,): ONE})
    with pytest.raises(DomainError):
        dft(c)
    h = Spectrum(f8, 1, {(0,): ONE})
    with pytest.raises(DomainError):
        idft(h)
    with pytest.raises(DomainError, match=r"index \(-1,\) outside A"):
        dft_partial(c, [(0,), (-1,)])


def test_serialization_roundtrip(f9, rng):
    h = random_spectrum(f9, 2, rng)
    lines = spectrum_lines(h)
    back = parse_assoc_lines(f9, 2, lines, "spectrum")
    assert back.values == h.values
    c = random_word(f9, 2, rng)
    lines = word_lines(c)
    back = parse_assoc_lines(f9, 2, lines, "word")
    assert back.values == c.values


def test_grid_lines_shape(f8, rng):
    h = random_spectrum(f8, 2, rng)
    lines = grid_lines(h, "spectrum")
    assert len(lines) == 9  # header + 8 rows
    c = random_word(f8, 1, rng)
    assert len(grid_lines(c, "word")) == 1


@pytest.mark.parametrize("bad", [-2, 9, 1.5, True, 2 ** 70])
@pytest.mark.parametrize("entry", ["idft_fast", "dft_fast", "dft_partial", "is_dual_codeword"])
def test_out_of_field_values_rejected(hermitian, rng, entry, bad):
    # valid element codes of GF(9) are -1..7
    f = hermitian.field
    if entry == "idft_fast":
        vec = random_spectrum(f, 2, rng)
        pos = (3, 5)
        call = lambda: idft_fast(vec)
    else:
        vec = random_word(f, 2, rng)
        if entry == "is_dual_codeword":
            vec = vec.restrict(hermitian.psi.points)
        pos = hermitian.psi.points[4]
        call = {"dft_fast": lambda: dft_fast(vec),
                "dft_partial": lambda: dft_partial(vec, hermitian.b_list),
                "is_dual_codeword": lambda: is_dual_codeword(vec, hermitian)}[entry]
    vec.values[pos] = bad
    msg = r"at \(%d, %d\): bad element code %s" % (*pos, re.escape(repr(bad)))
    with pytest.raises(FieldError, match=msg):
        call()


REFERENCE_FIELDS = {4: Field(2, 2, (1, 1, 1)), 8: Field(2, 3, (1, 1, 0, 1)),
                    9: Field(3, 2, (2, 1, 1)), 16: Field(2, 4, (1, 1, 0, 0, 1)),
                    25: Field(5, 2, (2, 1, 1)), 27: Field(3, 3, (1, 2, 0, 1))}


REFERENCE_CASES = [(q, n) for q in sorted(REFERENCE_FIELDS) for n in (1, 2, 3) if q ** n <= 4096]


def _counted(field, fn, *args):
    before = field.op_count
    out = fn(*args)
    return out, field.op_count - before


@pytest.mark.parametrize("q,ndim", REFERENCE_CASES)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32))
def test_kernels_match_scalar_reference(q, ndim, seed):
    # same values, in the same order, and the same op counts as the scalar
    # loop kernels, on a full word and spectrum, a word on a random subset
    # of Omega, random indices and one fiber
    f = REFERENCE_FIELDS[q]
    rnd = random.Random(seed)
    values = lambda k: [rnd.randrange(-1, q - 1) for _ in range(k)]
    word = Word(f, ndim, dict(zip(omega_space(f, ndim), values(q ** ndim))))
    spectrum = Spectrum(f, ndim, dict(zip(index_space(f, ndim), values(q ** ndim))))
    points = rnd.sample(omega_space(f, ndim), rnd.randrange(0, min(13, q ** ndim)))
    partial = Word(f, ndim, dict(zip(points, values(len(points)))))
    indices = rnd.choices(index_space(f, ndim), k=rnd.randrange(0, 13))
    for fast, ref, arg in ((dft_fast, reference.dft_fast, word),
                           (idft_fast, reference.idft_fast, spectrum)):
        got, ops = _counted(f, fast, arg)
        want, ref_ops = _counted(f, ref, arg)
        assert list(got.values.items()) == list(want.values.items())
        assert ops == ref_ops
    for vec in (word, partial):
        got, ops = _counted(f, dft_partial, vec, indices)
        want, ref_ops = _counted(f, dft, vec, indices)
        assert got.values == want.values and ops == ref_ops
        assert ops == len(indices) * len(vec.values) * (2 * ndim + 1)
    fiber = values(q)
    for fast, ref in ((dft_kernel, reference.dft_kernel), (idft_kernel, reference.idft_kernel)):
        got, ops = _counted(f, fast, f, fiber)
        want, ref_ops = _counted(f, ref, f, fiber)
        assert got == want and ops == ref_ops


# fields above the dense-table limits: no q x q table exists for them
LARGE_FIELDS = [(2, 13, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1)),
                (3, 8, (2, 0, 0, 0, 0, 1, 0, 0, 1))]
# one idft_fast must stay far below a single q x q intp temporary
# (512 MB for GF(2^13), 328 MB for GF(3^8))
IDFT_PEAK_BOUND = 64 << 20


@pytest.mark.parametrize("spec", LARGE_FIELDS, ids=["GF(2^13)", "GF(3^8)"])
def test_transforms_beyond_table_limits(spec, rng):
    f = Field(*spec)
    q = f.q
    assert q > NP_TABLE_Q and f._add_table is None
    c = random_word(f, 1, rng)
    h, dft_ops = _counted(f, dft_fast, c)
    assert dft_ops == (q - 1) + 3 * (q - 1) ** 2
    tracemalloc.start()
    try:
        back, idft_ops = _counted(f, idft_fast, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values == c.values
    assert idft_ops == 1 + (q - 1) * (3 * q - 2)
    assert peak < IDFT_PEAK_BOUND
    indices = [(0,), (1,), (q // 3,), (q - 1,)]
    part, ops = _counted(f, dft_partial, c, indices)
    assert part.values == {a: h.values[a] for a in indices} == dft(c, indices).values
    assert ops == len(indices) * q * 3
    assert f._enc_sums is None  # no q x q table was built on the way
