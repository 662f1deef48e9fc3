import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as reference
from scalar_reference import idft_at, idft_at_count
from avcodes.codes import is_dual_codeword
from avcodes.gf import ZERO, ONE, Field, FieldError, DENSE_Q
from avcodes.transform import (Spectrum, Word, dft, idft, dft_fast, idft_fast,
                               dft_partial, idft_kernel,
                               idft_flat, index_space, omega_space,
                               spectrum_lines, word_lines, parse_assoc_lines,
                               grid_lines, DomainError)
from avcodes.ideal import vanishing_gb, index_array, _extension_array
from avcodes.mindex import MonomialOrder
from avcodes.maps import PointSet
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


def test_partial_domain_rejected(f8, f9):
    c = Word(f8, 1, {(ZERO,): ONE})
    with pytest.raises(DomainError):
        dft(c)
    h = Spectrum(f8, 1, {(0,): ONE})
    with pytest.raises(DomainError):
        idft(h)
    before = f8.op_count
    with pytest.raises(DomainError, match=r"^dft input must be defined on the full domain "
                                          r"\(missing 7 entries\)$"):
        dft_fast(c)
    with pytest.raises(DomainError, match=r"^idft input .* \(missing 7 entries\)$"):
        idft_fast(h)
    assert f8.op_count == before
    with pytest.raises(DomainError, match=r"index \(-1,\) outside A"):
        dft_partial(c, [(0,), (-1,)])
    # a component q or above, and an index of the wrong arity (alone or
    # among right ones)
    with pytest.raises(DomainError, match=r"index \(8,\) outside A"):
        dft_partial(c, [(0,), (8,)])
    with pytest.raises(DomainError, match=r"index \(9, 0\) outside A"):
        dft_partial(Word(f9, 2, {(ZERO, ZERO): ONE}), [(9, 0)])
    before = f8.op_count
    for bad in ([(0, 1)], [(0,), (0, 1)]):
        with pytest.raises(DomainError, match=r"index \(0, 1\) outside A"):
            dft_partial(c, bad)
    # a component that is not an integer, alone or among integer indices
    w9 = Word(f9, 2, {(ZERO, ZERO): ONE})
    f9_before = f9.op_count
    for bad, named in (([(0.5, 1)], r"\(0\.5, 1\)"), ([(0, 1), (1.0, 2)], r"\(1\.0, 2\)"),
                       ([("1", 2)], r"\('1', 2\)"), ([(None, 0)], r"\(None, 0\)"),
                       ([(2 ** 70, 0)], r"\(%d, 0\)" % 2 ** 70)):
        with pytest.raises(DomainError, match=r"index %s outside A" % named):
            dft_partial(w9, bad)
    assert (f8.op_count, f9.op_count) == (before, f9_before)  # a refused call counts nothing
    assert dft_partial(c, []).values == {}
    # a bool component is its int, as in the key: (True, 1) == (1, 1)
    assert dft_partial(w9, [(True, 1)]).values == dft_partial(w9, [(1, 1)]).values


def test_serialization_roundtrip(f9, rng):
    h = random_spectrum(f9, 2, rng)
    lines = spectrum_lines(h)
    back = parse_assoc_lines(f9, 2, lines, "spectrum")
    assert back.values == h.values
    c = random_word(f9, 2, rng)
    lines = word_lines(c)
    back = parse_assoc_lines(f9, 2, lines, "word")
    assert back.values == c.values


@pytest.mark.parametrize("lines, kind, error, message", [
    (["(0,0) -> 1", "(1,0) 2"], "spectrum", DomainError,
     "bad line '(1,0) 2', expected 'index -> value'"),
    (["(0,1) -> 1", " (0,1) -> -1"], "spectrum", DomainError, "duplicate entry for (0, 1)"),
    (["(-1,3) -> 1", "(-1,3) -> 2"], "word", DomainError, "duplicate entry for (-1, 3)"),
    (["(0,9) -> 1"], "spectrum", FieldError, "index (0, 9) out of A"),
    (["(-1,0) -> 1"], "spectrum", FieldError, "index (-1, 0) out of A"),
])
def test_parse_assoc_lines_errors(f9, lines, kind, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        parse_assoc_lines(f9, 2, lines, kind)


def test_grid_lines_shape(f8, rng):
    h = random_spectrum(f8, 2, rng)
    lines = grid_lines(h, "spectrum")
    assert len(lines) == 9  # header + 8 rows
    c = random_word(f8, 1, rng)
    assert len(grid_lines(c, "word")) == 1
    with pytest.raises(DomainError, match=r"^grid form is only defined for N <= 2$"):
        grid_lines(random_spectrum(f8, 3, rng), "spectrum")


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
    got, ops = _counted(f, idft_kernel, f, fiber)
    want, ref_ops = _counted(f, reference.idft_kernel, f, fiber)
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
    assert q > DENSE_Q and f._add_table is None
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
    # the restricted form builds one kernel row per point, never the
    # q x q kernel: the zero point and two others, read off the same word
    pts = [(ZERO,), (0,), (q // 2,)]
    x = f.np_exponents(np.array([h.values[a] for a in index_space(f, 1)], dtype=np.intp))
    tracemalloc.start()
    try:
        at, at_ops = _counted(f, idft_at, f, x, index_array(pts, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.np_codes(at) == [c.values[p] for p in pts]
    assert at_ops == 1 + 2 * (3 * q - 3)
    assert peak < IDFT_PEAK_BOUND
    indices = [(0,), (1,), (q // 3,), (q - 1,)]
    part, ops = _counted(f, dft_partial, c, indices)
    assert part.values == {a: h.values[a] for a in indices} == dft(c, indices).values
    assert ops == len(indices) * q * 3


@st.composite
def restricted_cases(draw):
    """A random code (points with zero coordinates among them, a random
    seed on its delta set) over one of the reference fields, N = 1..3."""
    q, ndim = draw(st.sampled_from(REFERENCE_CASES))
    f = REFERENCE_FIELDS[q]
    coord = st.integers(-1, q - 2)
    zeroed = st.lists(coord, min_size=ndim, max_size=ndim).flatmap(
        lambda p: st.integers(0, ndim - 1).map(lambda i: tuple(p[:i] + [ZERO] + p[i + 1:])))
    pts = draw(st.lists(zeroed, min_size=1, max_size=3, unique=True))
    pts += [p for p in draw(st.lists(st.tuples(*[coord] * ndim), max_size=8, unique=True))
            if p not in pts]
    seed = draw(st.lists(st.integers(-1, q - 2), min_size=len(pts), max_size=len(pts)))
    return f, ndim, pts, seed


@settings(max_examples=80, deadline=None)
@given(restricted_cases(), st.randoms(use_true_random=False))
def test_restricted_idft_agrees_with_full(case, rnd):
    # on the points of a random code, and on random points of a random
    # spectrum, the restricted IDFT reads the full transform's values and
    # counts what idft_at_count says before the work
    f, ndim, pts, seed = case
    gb, delta = vanishing_gb(PointSet(f, ndim, tuple(pts)), MonomialOrder("grlex"))
    ext = _extension_array(Spectrum(f, ndim, dict(zip(sorted(delta.members), seed))), gb)
    other = rnd.sample(omega_space(f, ndim), min(5, f.q ** ndim))
    noise = f.np_exponents(np.array([rnd.randrange(-1, f.q - 1) for _ in range(f.q ** ndim)],
                                    dtype=np.intp))
    for x, where in ((ext, pts), (noise, other + pts)):
        points = index_array(where, ndim)
        full = idft_flat(f, x, ndim)
        got, ops = _counted(f, idft_at, f, x, points)
        assert (got == full[(points + 1) @ f.q ** np.arange(ndim)]).all()
        assert ops == idft_at_count(f.q, points)
