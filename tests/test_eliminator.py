"""The batched eliminator and the bases built on it against the scalar
reference: same residuals, combinations, pivots, outputs, IdealError
messages and exact op counts."""

import random
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from avcodes.codes import CodeSpec, code_from_config, is_dual_codeword
from avcodes.decoder import check_systematic_support, decode_info
from avcodes.gf import Field, MAX_Q, ONE, ZERO
from avcodes.ideal import Eliminator, IdealError, check_set_basis, vanishing_gb
from avcodes.maps import PointSet
from avcodes.mindex import MonomialOrder
from avcodes.transform import Word, dft, omega_space
import scalar_reference as reference

FIELDS = {4: Field(2, 2, (1, 1, 1)), 8: Field(2, 3, (1, 1, 0, 1)), 9: Field(3, 2, (2, 1, 1)),
          16: Field(2, 4, (1, 1, 0, 0, 1)), 25: Field(5, 2, (2, 1, 1)),
          27: Field(3, 3, (1, 2, 0, 1))}


def _counted(f, fn):
    """(result or IdealError message, field operations) of one call."""
    before = f.op_count
    try:
        out = fn()
    except IdealError as exc:
        out = "IdealError: %s" % exc
    return out, f.op_count - before


def _vectors(f, rnd, length, count, pool):
    """Random vectors: some with zero entries, some zero, some repeated
    from ``pool`` (which grows with them) and some combinations of it."""
    out = []
    for _ in range(count):
        kind = rnd.randrange(5)
        if kind == 0:
            vec = [ZERO] * length
        elif kind == 1 and pool:
            vec = list(rnd.choice(pool))
        elif kind == 2 and pool:
            vec = [ZERO] * length
            for row in rnd.sample(pool, min(len(pool), rnd.randrange(1, 4))):
                c = rnd.randrange(-1, f.q - 1)
                vec = [f.add(a, f.mul(c, b)) for a, b in zip(vec, row)]
        else:
            vec = [rnd.choice([ZERO, rnd.randrange(0, f.q - 1)]) for _ in range(length)]
        pool.append(vec)
        out.append(vec)
    return out


def _exponents(f, vecs, length):
    return f.np_exponents(np.array(vecs, dtype=np.intp).reshape(len(vecs), length))


def _negated(f, comb):
    return {t: f.neg(c) for t, c in comb.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FIELDS)), st.integers(0, 2 ** 32))
def test_eliminator_matches_scalar(q, seed):
    f = FIELDS[q]
    rnd = random.Random(seed)
    length = rnd.randrange(1, 9)
    pool = []
    rows = _vectors(f, rnd, length, rnd.randrange(1, 15), pool)
    probes = _vectors(f, rnd, length, rnd.randrange(1, 6), pool)
    ref = reference.Eliminator(f)
    elim = Eliminator(f, length)
    # insert in a few batches, so later batches meet rows kept before them
    cuts = sorted(rnd.sample(range(1, len(rows) + 1), min(len(rows), rnd.randrange(1, 4))))
    lo = 0
    for hi in cuts:
        tags = list(range(lo, hi))
        want, want_ops = _counted(f, lambda: [ref.insert(rows[t], t) for t in tags])
        (done, ops), got_ops = _counted(f, lambda: elim.insert(
            _exponents(f, rows[lo:hi], length), tags))
        assert got_ops == 0 and ops == want_ops
        assert [row for row, _ in done] == list(range(hi - lo))
        assert [None if tail is None else elim.terms(tail) for _, tail in done] == [
            None if comb is None else _negated(f, comb) for comb in want]
        lo = hi
    assert elim.pivots == [pivot for pivot, _, _ in ref.rows]
    assert elim.tags == [t for t in range(len(rows)) if t in elim.tags]
    (residuals, tails, ops), got_ops = _counted(f, lambda: elim.reduce(
        _exponents(f, probes, length)))
    assert got_ops == 0
    for vec, residual, tail, cost in zip(probes, residuals, tails, ops.tolist()):
        (want, comb), want_ops = _counted(f, lambda: ref.reduce(vec))
        assert f.np_codes(residual) == want
        assert elim.terms(tail) == _negated(f, comb)
        assert cost == want_ops


def _same(f, got, want):
    """Both calls give the same output (or IdealError message) and count."""
    g, g_ops = _counted(f, got)
    w, w_ops = _counted(f, want)
    if not isinstance(w, str):
        g, w = [(b.elements, b.leading, b.delta.members) for b in (g, w)]
    assert g == w and g_ops == w_ops
    return w


def test_bases_match_scalar():
    """vanishing_gb, check_set_basis and check_systematic_support against
    the scalar builds on random point sets over GF(4)..GF(27), N in
    {1, 2, 3}, and random B inside the delta set.
    check_systematic_support runs on a code on those points, order and B:
    its answer is the scalar reference's and its count the scalar
    insertion of Phi's columns in store order, the projection it builds;
    asked again, it counts nothing."""
    seen = set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(FIELDS)), st.sampled_from([1, 2, 3]), st.integers(0, 2 ** 32))
    def check(q, ndim, seed):
        assume(q ** ndim <= 729)
        f = FIELDS[q]
        rnd = random.Random(seed)
        omega = omega_space(f, ndim)
        pts = PointSet(f, ndim, tuple(rnd.sample(omega, rnd.randrange(1, min(12, len(omega))))))
        order = rnd.choice([MonomialOrder("lex"), MonomialOrder("grlex"),
                            MonomialOrder("weighted_grlex", rnd.choices(range(1, 5), k=ndim))])
        _same(f, lambda: vanishing_gb(pts, order)[0],
              lambda: reference.vanishing_gb(pts, order)[0])
        delta = vanishing_gb(pts, order)[1]
        b_list = rnd.sample(sorted(delta.members), rnd.randrange(1, len(delta) + 1))
        sub = PointSet(f, ndim, tuple(rnd.sample(pts.points, rnd.randrange(1, len(pts) + 1))))
        out = _same(f, lambda: check_set_basis(sub, b_list, order),
                    lambda: reference.check_set_basis(sub, b_list, order))
        seen.add(("check_set_basis", isinstance(out, str)))
        phi = PointSet(f, ndim, tuple(rnd.sample(pts.points, len(b_list))))
        code = CodeSpec(f, ndim, order, pts, b_list, 1)
        out, ops = _counted(f, lambda: check_systematic_support(phi, code))
        assert out == reference.check_systematic_support(phi, code)
        assert ops == reference.column_insertion(code.psi.subset(phi.points), code.b_list)[2]
        assert _counted(f, lambda: check_systematic_support(phi, code)) == (out, 0)
        seen.add(("check_systematic_support", out))

    check()
    # solvable and unsolvable check-set systems, supports that are and
    # are not systematic (the latter stop at the first dependent column)
    assert seen >= {(name, out) for name in ("check_set_basis", "check_systematic_support")
                    for out in (True, False)}


LARGE_FIELDS = [(2, 13, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1)),
                (3, 8, (2, 0, 0, 0, 0, 1, 0, 0, 1)),
                (3, 10, (2, 0, 1, 0, 1, 2, 2, 2, 2, 1, 1))]


@pytest.mark.parametrize("spec, n", zip(LARGE_FIELDS, (24, 70, 80)),
                         ids=["GF(2^13)", "GF(3^8)", "GF(3^10)"])
def test_bases_on_large_fields(spec, n):
    # GF(2^13) has no dense numpy tables.  A digit sum holds 62 terms on
    # GF(3^8) and 30 on GF(3^10), so rows meet more pivots than one chunk;
    # on GF(3^10) their digits would overflow without the reduction
    f = Field(*spec)
    rnd = random.Random(5)
    pts = PointSet(f, 1, tuple((p,) for p in rnd.sample(range(-1, f.q - 1), n)))
    order = MonomialOrder("lex")
    _same(f, lambda: vanishing_gb(pts, order)[0], lambda: reference.vanishing_gb(pts, order)[0])
    for b_list in ([(k,) for k in range(n)], [(k,) for k in rnd.sample(range(f.q), n)]):
        _same(f, lambda: check_set_basis(pts, b_list, order),
              lambda: reference.check_set_basis(pts, b_list, order))


def test_decode_info_at_max_q():
    # N = 1 over GF(2^16): a generalized Reed-Solomon dual code with
    # c_p = f(p) / prod_(p' != p) (p - p'), deg f <= n - 1 - |B|
    code = code_from_config({
        "field": {"p": 2, "m": 16,
                  "primitive_poly": [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1]},
        "N": 1,
        "order": {"kind": "lex"},
        "points": [[-1], [0], [9], [4000], [30000], [65534]],
        "B": [[0], [1], [2]],
        "d_fr": 4,
    })
    f = code.field
    assert f.q == MAX_Q
    rnd = random.Random(3)
    pts = [p for (p,) in code.psi.points]
    coeffs = [rnd.randrange(-1, f.q - 1) for _ in range(len(pts) - len(code.b_list))]
    values = {}
    for p in pts:
        den = ONE
        for other in pts:
            if other != p:
                den = f.mul(den, f.sub(p, other))
        poly = ZERO
        for c in reversed(coeffs):
            poly = f.add(f.mul(poly, p), c)
        values[(p,)] = f.div(poly, den)
    c = Word(f, 1, values)
    assert is_dual_codeword(c, code) and any(v != ZERO for v in values.values())
    want = dft(c, code.info_support()).values

    r = c.copy()
    r.values[(4000,)] = f.add(r.values[(4000,)], 12345)
    got = decode_info(r, PointSet(f, 1, ()), code)
    assert got.values == want and got.report.meta["locator"]["t"] == 1

    erased = PointSet(f, 1, ((-1,), (9,), (65534,)))
    r = c.copy()
    for p in erased.points:
        r.values[p] = ZERO
    got = decode_info(r, erased, code)
    assert got.values == want and got.report.meta["located"] == 3


@pytest.mark.parametrize("spec", [
    (3, 2, (2, 1, 1)),
    (5, 2, (2, 1, 1)),
    (3, 3, (1, 2, 0, 1)),
    (7, 2, (3, 1, 1)),
    (3, 5, (1, 2, 0, 0, 0, 1)),  # chunk 2
    (7, 4, (3, 0, 1, 1, 1)),  # chunk 1, the least the log table takes
    *LARGE_FIELDS[1:],  # the digit fold
    (65521, 1, (65504, 1)),
], ids=["GF(9)", "GF(25)", "GF(27)", "GF(49)", "GF(3^5)", "GF(7^4)", "GF(3^8)", "GF(3^10)",
        "GF(65521)"])
def test_packed_sums_at_the_chunk_bound(spec):
    # every term is the element whose base-p digits are all p - 1, so that
    # a sum of chunk + 1 terms reaches each digit's bound (chunk + 1)(p - 1)
    # and chunk + 2 terms make np_dot and the eliminator reduce in between
    f = Field(*spec)
    ar, q = f.np_arith(), f.q
    assert (ar.fold is None) == (q not in (3 ** 8, 3 ** 10, 65521))
    assert len(ar.log) <= max(q, 1 << 16)
    top = f.log[q - 1]
    rnd = random.Random(q)
    # one digit spread over 63 bits: no sum reaches GF(65521)'s chunk
    ks = (ar.chunk + 1, ar.chunk + 2) if ar.chunk < 300 else (300,)
    want = ZERO
    for _ in range(ks[0]):
        want = f.add(want, top)
    assert f.np_codes(f.np_log(ar.exp[np.full(ks[0], top)].sum())) == [want]
    for k in ks:
        pairs = [(rnd.randrange(-1, q - 1), rnd.randrange(-1, q - 1)) for _ in range(k)]
        x = np.array([[top] * k, [a for a, _ in pairs]])
        y = np.array([[ONE] * k, [b for _, b in pairs]])
        want = []
        for row_x, row_y in zip(x.tolist(), y.tolist()):
            acc = ZERO
            for a, b in zip(row_x, row_y):
                acc = f.add(acc, f.mul(a, b))
            want.append(acc)
        assert f.np_codes(f.np_dot(f.np_exponents(x), f.np_exponents(y))) == want
        a, b = (np.array(v) for v in zip(*pairs))
        assert f.np_codes(f.np_add(f.np_exponents(a), f.np_exponents(b))) == [
            f.add(u, v) for u, v in pairs]
        # rows e_i - top e_k, i < k: reducing (1, ..., 1, top) adds top at
        # position k once per row
        rows = [[ONE if j == i else f.neg(top) if j == k else ZERO for j in range(k + 1)]
                for i in range(k)]
        vecs = rows + [[ONE] * k + [top]]
        ref = reference.Eliminator(f)
        want, want_ops = _counted(f, lambda: [ref.insert(v, t) for t, v in enumerate(vecs)])
        elim = Eliminator(f, k + 1)
        (done, ops), got_ops = _counted(f, lambda: elim.insert(
            _exponents(f, vecs, k + 1), range(k + 1)))
        assert got_ops == 0 and ops == want_ops
        assert [None if tail is None else elim.terms(tail) for _, tail in done] == [
            None if comb is None else _negated(f, comb) for comb in want]
        (residuals, tails, costs), _ = _counted(f, lambda: elim.reduce(
            _exponents(f, vecs[-1:], k + 1)))
        (residual, comb), want_ops = _counted(f, lambda: ref.reduce(vecs[-1]))
        assert f.np_codes(residuals[0]) == residual and elim.terms(tails[0]) == _negated(f, comb)
        assert costs.tolist() == [want_ops]
