import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avcodes.gf import Field, FieldError, NotPrimitiveError, ZERO, ONE
import scalar_reference as reference


def test_f8_construction(f8):
    # alpha^3 = alpha + 1 under x^3 + x + 1
    assert f8.poly_coeffs(3) == (1, 1, 0)
    assert f8.q == 8
    assert f8.add(3, 1) == 0  # alpha^3 + alpha = 1


def test_f9_construction(f9):
    # alpha^2 = 1 - alpha under x^2 + x - 1
    assert f9.poly_coeffs(2) == (1, 2)
    assert f9.poly_coeffs(4) == (2, 0)  # alpha^4 = -1


def test_not_primitive_rejected():
    # x^3 + x^2 + x + 1 = (x+1)(x^2+1) over GF(2): root order < 7
    with pytest.raises(NotPrimitiveError):
        Field(2, 3, (1, 1, 1, 1))


def test_spec_validation():
    with pytest.raises(FieldError):
        Field(4, 2, (1, 0, 1))  # p not prime
    with pytest.raises(FieldError):
        Field(2, 3, (1, 1, 0, 0))  # not monic
    with pytest.raises(FieldError):
        Field(2, 3, (1, 1, 1))  # wrong length
    with pytest.raises(FieldError):
        Field(2, 0, (1,))
    with pytest.raises(FieldError):
        Field(2, 17, tuple([1] + [0] * 16 + [1]))  # q above the table limit


@pytest.mark.parametrize("p,m", [(2 ** 61 - 1, 1), (3, 2_000_000), (10 ** 4999 + 1, 1)],
                         ids=["p=2^61-1", "m=2e6", "p-of-5000-digits"])
def test_oversized_field_fails_at_once(p, m):
    # the size is checked before p is tested for primality (trial division
    # of 2^61 - 1 did not return in 20 s) and p ** m is never formatted
    # (the 954,243 digits of 3^2000000 are past Python's conversion limit)
    start = time.perf_counter()
    with pytest.raises(FieldError, match="exceeds the 65536 table limit"):
        Field(p, m, (1, 1))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p,m,poly", [(2.5, 1, (1, 1)), (3, 2.0, (2, 1, 1)),
                                        (True, 1, (1, 1)), (2, True, (1, 1)),
                                        ("3", 2, (2, 1, 1))])
def test_non_integer_p_or_m_is_a_field_error(p, m, poly):
    # rejected before any arithmetic on them, which raised TypeError
    with pytest.raises(FieldError, match="is not an integer"):
        Field(p, m, poly)


@pytest.mark.parametrize("p,m,poly", [(2, 3, (1, 1, 0, 1)), (3, 2, (2, 1, 1)),
                                      (5, 1, (2, 1))])
def test_add_and_sub_match_digit_addition(p, m, poly):
    # every pair, the zero element included: Field.add is the digit-wise
    # sum of the encodings and Field.sub its inverse, one count per call
    f = Field(p, m, poly)
    enc = lambda x: 0 if x == ZERO else f.antilog[x]
    for a in f.elements():
        for b in f.elements():
            before = f.op_count
            total, diff = f.add(a, b), f.sub(a, b)
            assert f.op_count - before == 2
            assert enc(total) == reference.digit_add(f, enc(a), enc(b))
            assert reference.digit_add(f, enc(diff), enc(b)) == enc(a)


def test_identities(f8, f9):
    for f in (f8, f9):
        for x in f.elements():
            assert f.add(x, ZERO) == x
            assert f.mul(x, ONE) == x
        assert f.inv(ONE) == ONE


def test_alpha4_is_minus_one_in_f9(f9):
    # independent oracle: square alpha twice in the polynomial encoding
    p = 3
    alpha = (0, 1)

    def poly_mul(a, b):
        # multiply then reduce by x^2 + x - 1, i.e. x^2 = 1 - x
        c0 = a[0] * b[0]
        c1 = a[0] * b[1] + a[1] * b[0]
        c2 = a[1] * b[1]
        return ((c0 + c2) % p, (c1 - c2) % p)

    a2 = poly_mul(alpha, alpha)
    a4 = poly_mul(a2, a2)
    assert a4 == (2, 0)  # the element -1
    assert f9.poly_coeffs(f9.mul(2, 2)) == a4
    assert f9.add(2, 6) == ZERO  # alpha^2 + alpha^6 = alpha^2 (1 + alpha^4) = 0


def test_pow_conventions(f8):
    assert f8.pow(ZERO, 0) == ONE
    assert f8.pow(ZERO, 3) == ZERO
    assert f8.pow(5, 0) == ONE
    assert f8.pow(3, 2) == 6
    assert f8.pow(3, -1) == 4
    with pytest.raises(ZeroDivisionError):
        f8.pow(ZERO, -1)


def test_division_errors(f8):
    with pytest.raises(ZeroDivisionError):
        f8.div(3, ZERO)
    with pytest.raises(ZeroDivisionError):
        f8.inv(ZERO)
    assert f8.div(ZERO, 3) == ZERO


def test_fermat_exhaustive(f8, f9, f4):
    for f in (f8, f9, f4):
        for x in f.nonzero():
            assert f.pow(x, f.q - 1) == ONE
        for x in f.elements():
            assert f.pow(x, f.q) == x


def test_log_antilog_roundtrip(f8, f9):
    for f in (f8, f9):
        for k in range(f.q - 1):
            assert f.log[f.antilog[k]] == k


@settings(max_examples=1000, deadline=None)
@given(st.integers(-1, 6), st.integers(-1, 6), st.integers(-1, 6))
def test_field_axioms_f8(a, b, c):
    f = Field(2, 3, (1, 1, 0, 1))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@settings(max_examples=1000, deadline=None)
@given(st.integers(-1, 7), st.integers(-1, 7), st.integers(-1, 7))
def test_field_axioms_f9(a, b, c):
    f = Field(3, 2, (2, 1, 1))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.sub(f.add(a, b), b) == a
    assert f.add(a, f.neg(a)) == ZERO


def test_zech_path_matches_digit_addition(rng):
    # q = 1024 exceeds the dense-table threshold, exercising the Zech path
    f = Field(2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1))
    assert f._add_table is None
    for _ in range(500):
        a = rng.randrange(-1, f.q - 1)
        b = rng.randrange(-1, f.q - 1)
        ea = 0 if a == ZERO else f.antilog[a]
        eb = 0 if b == ZERO else f.antilog[b]
        want = ea ^ eb
        got = f.add(a, b)
        assert (0 if got == ZERO else f.antilog[got]) == want


def test_text_roundtrip(f9):
    for x in f9.elements():
        assert f9.parse(f9.format(x)) == x
    with pytest.raises(FieldError):
        f9.parse("8")
    with pytest.raises(FieldError):
        f9.parse("xyz")


def test_op_counter(f8):
    before = f8.op_count
    f8.add(1, 2)
    f8.mul(3, 4)
    assert f8.op_count - before == 2


@pytest.mark.parametrize("p,m,poly", [
    (2, 2, (1, 1, 1)),
    (3, 2, (2, 1, 1)),
    (2, 4, (1, 1, 0, 0, 1)),
    (2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)),  # the largest dense table
    (3, 5, (1, 2, 0, 0, 0, 1)),  # dense, odd p, five digits
    (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),  # Zech arithmetic
    (2, 13, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1)),  # q > 4096
    (3, 8, (2, 0, 0, 0, 0, 1, 0, 0, 1)),  # odd p, q > 4096
], ids=["GF(4)", "GF(9)", "GF(16)", "GF(2^9)", "GF(3^5)", "GF(2^10)", "GF(2^13)",
        "GF(3^8)"])
def test_enc_add_matches_scalar(p, m, poly):
    # canonical base-p encodings added digit by digit, elementwise over
    # numpy arrays, agree with Field.add, Field.sub and Field.neg
    f = Field(p, m, poly)
    q = f.q
    codes = np.arange(-1, q - 1)
    enc = np.array([0] + list(f.antilog), dtype=np.int64)
    rng = np.random.default_rng(q)
    rows = codes if q <= 16 else rng.choice(codes, 200)
    cols = codes if q <= 16 else rng.choice(codes, 200)
    got = reference.digit_add(f, enc[rows + 1][:, None], enc[cols + 1][None, :])
    assert f.op_count == 0
    assert got.shape == (len(rows), len(cols))
    for i, row in zip(rows.tolist(), got.tolist()):
        want = [f.add(i, j) for j in cols.tolist()]
        assert row == [0 if w == ZERO else f.antilog[w] for w in want]
        diff = np.array([f.sub(i, j) for j in cols.tolist()])
        assert (reference.digit_add(f, enc[diff + 1], enc[cols + 1]) == enc[i + 1]).all()
    negs = np.array([f.neg(a) for a in codes.tolist()])
    assert (reference.digit_add(f, enc[codes + 1], enc[negs + 1]) == 0).all()


def test_equal_fields_share_their_arrays():
    # GF(9)'s log table holds 65,280 entries: built once while a field
    # of the same parameters lives, read-only, and not shared with another
    # primitive polynomial
    a, b = Field(3, 2, (2, 1, 1)), Field(3, 2, (2, 1, 1))
    assert a.np_arith() is b.np_arith() and len(a.np_arith().log) == 65280
    with pytest.raises(ValueError):
        a.np_arith().log[0] = 0
    other = Field(3, 2, (2, 2, 1))
    assert (other.np_arith().log != a.np_arith().log).any()
    assert other.np_codes(other.np_add(np.arange(8), 1)) == [other.add(x, 1) for x in range(8)]


@pytest.mark.parametrize("p,m,poly", [
    (2, 3, (1, 1, 0, 1)),
    (3, 2, (2, 1, 1)),
    (5, 2, (2, 1, 1)),
    (2, 13, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1)),  # q > 4096
    (3, 8, (2, 0, 0, 0, 0, 1, 0, 0, 1)),  # odd p, more terms than one digit chunk
])
def test_np_dot_matches_scalar(p, m, poly):
    f = Field(p, m, poly)
    ar = f.np_arith()
    assert f.np_arith() is ar and f.op_count == 0
    q = f.q
    # bounded memory: exp is O(q), log at most max(q, 2^16), no q x q table
    assert ar.exp.shape == (4 * (q - 1) + 1,) and q <= len(ar.log) <= max(q, 1 << 16)
    rng = np.random.default_rng(q)
    codes = rng.integers(-1, q - 1, size=(3, 300))  # 300 > ar.chunk for GF(3^8)
    codes[:, :3] = ZERO
    x = f.np_exponents(codes[:2])
    y = f.np_exponents(codes[2])
    got = f.np_codes(f.np_dot(x, y))
    want = []
    for row in codes[:2].tolist():
        acc = ZERO
        for a, b in zip(row, codes[2].tolist()):
            acc = f.add(acc, f.mul(a, b))
        want.append(acc)
    assert got == want
    assert f.np_codes(f.np_dot(x[:, :0], y[:0])) == [ZERO, ZERO]
