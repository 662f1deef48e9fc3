"""Table-driven arithmetic in GF(p^m) with a fixed primitive element.

Elements are plain ints in exponent notation: ``k`` stands for alpha^k
(0 <= k <= q-2) and ``-1`` stands for the zero element, matching the
text convention used everywhere in this package ("-1 means 0").

The scalar methods (``add``, ``mul``, ...) take one element per call
and bump ``op_count`` once per call.  The numpy methods work on whole
arrays of exponents over the arrays of ``np_arith``, an antilog array
of O(q) entries and a log table of at most max(q, 2^16), for every
field up to MAX_Q, and are not op-counted: their callers add the
analytic count of the scalar operations a kernel stands for to
``op_count`` in one addition.  A product is a sum of exponents.
``np_dot`` sums products as XORs (p = 2) or as integer sums of spread
base-p encodings, which the log table reads back in one gather
(``np_log``) on every field whose m digits fit 16 bits.
"""

import numbers
import weakref
from dataclasses import dataclass
from functools import reduce

import numpy as np

ZERO = -1
ONE = 0

MAX_Q = 1 << 16
# Field.add and Field.sub read a dense q x q add table up to this size
# and Zech logarithms above it
DENSE_Q = 512


class FieldError(ValueError):
    pass


class NotPrimitiveError(FieldError):
    pass


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, eq=False)
class GFArrays:
    """The numpy layer's arrays of one field.  An element is its exponent,
    the zero element is ``zero`` = 2(q-1), so the exponent sum of two
    elements is at most 2 * zero: ``exp[x + y]`` is the digit encoding of
    their product (0 when either is zero) with no reduction mod q-1 and
    no zero test.  For p = 2 the encoding is the base-2 one, sums are
    XORs and ``log`` (q entries) maps an encoding to its exponent
    (``zero`` for 0).  For odd p the m base-p digits sit apart in an
    integer, so an integer sum of at most ``chunk`` + 1 encodings adds
    them digit-wise without carries.  Where the digits fit 16 bits with
    ``chunk`` >= 1, they sit 16 // m bits apart and ``log`` (at most 2^16
    entries) maps every such sum straight to its exponent.  Otherwise
    (GF(3^6) and up, GF(5^5), primes above 2^15, ...) they sit 63 // m
    bits apart in an int64 and ``fold`` = (shifts, mask, place) reduces
    them mod p first: digit i sits at bit ``shifts[i]`` and has place
    value ``place[i]`` in the base-p encoding that ``log`` (q entries)
    reads.  ``neg`` is the exponent of -1."""

    exp: np.ndarray
    log: np.ndarray
    zero: int
    neg: int
    chunk: int
    fold: tuple


# GFArrays by (p, m, primitive_poly)
_LIVE_ARRAYS = weakref.WeakValueDictionary()


def _np_tables(p, m, antilog):
    """The GFArrays of GF(p^m) from its antilog table."""
    q = p ** m
    n = q - 1
    zero = 2 * n
    codes = np.array(antilog, dtype=np.int64)
    log = np.full(q, zero, dtype=np.intp)
    log[codes] = np.arange(n)
    # exponent of -1; for p = 2 negation is the identity
    neg = 0 if p == 2 else n // 2
    if p == 2:
        exp, chunk, fold = codes.astype(np.uint16), 0, None
    else:
        # digit sums stay below 2^bits: (chunk + 1) terms of at most p-1
        bits = 16 // m
        chunk = ((1 << bits) - 1) // (p - 1) - 1
        table = chunk >= 1
        if not table:
            # two terms would overflow a digit: spread over an int64
            bits = 63 // m
            chunk = ((1 << bits) - 1) // (p - 1) - 1
        shifts, place = bits * np.arange(m), p ** np.arange(m)
        exp = (codes[:, None] // place % p << shifts).sum(axis=1)
        fold = None if table else (shifts, (1 << bits) - 1, place)
        if table:
            # slot sum_i d_i 2^(bits i) holds the exponent of the
            # digits d_i mod p, by outer sums one digit at a time
            enc = np.zeros(1, dtype=np.uint16)
            for i in range(m):
                top = (chunk + 1) * (p - 1) + 1 if i == m - 1 else 1 << bits
                d = np.arange(top, dtype=np.uint16)
                enc = np.add.outer(d % p * p ** i, enc).ravel()
            log = log[enc]
            exp = exp.astype(np.uint16)
    exp = np.concatenate([exp, exp, np.zeros(zero + 1, dtype=exp.dtype)])
    exp.flags.writeable = log.flags.writeable = False  # shared by equal fields
    return GFArrays(exp, log, zero, neg, chunk, fold)


class Field:
    """GF(p^m) with log/antilog tables; ``primitive_poly`` holds the m+1
    coefficients of a monic primitive polynomial, reduced mod p, in
    ascending order, e.g. x^3 + x + 1 over GF(2) is (1, 1, 0, 1).

    ``antilog[k]`` is the base-p digit encoding of alpha^k and ``log``
    inverts it.  Construction fails with NotPrimitiveError unless the
    root of the polynomial has multiplicative order exactly q-1.  The
    add table of the scalar methods is read off ``np_add``, the one
    definition of the sum: a dense table up to DENSE_Q, indexed by two
    element codes, and Zech logarithms above.

    The instance is immutable after construction apart from
    ``op_count``, a diagnostic counter bumped once per arithmetic call;
    sections of an algorithm are metered by snapshotting it.
    """

    def __init__(self, p, m, primitive_poly):
        poly = tuple(primitive_poly)
        named = [("p", p), ("m", m)] + [("primitive_poly[%d]" % i, c) for i, c in enumerate(poly)]
        for name, value in named:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise FieldError("%s = %r is not an integer" % (name, value))
        if m < 1:
            raise FieldError("extension degree must be >= 1")
        # p and m bounded (p >= 2 in a field) before p ** m is taken or p tested
        if p > MAX_Q or m >= MAX_Q.bit_length() or p ** m > MAX_Q:
            raise FieldError("field size p^m exceeds the %d table limit" % MAX_Q)
        if not is_prime(p):
            raise FieldError("p = %d is not prime" % p)
        poly = tuple(c % p for c in poly)
        if len(poly) != m + 1:
            raise FieldError("primitive polynomial needs m+1 coefficients")
        if poly[m] != 1:
            raise FieldError("primitive polynomial must be monic")
        self.p = p
        self.m = m
        self.q = p ** m
        self.primitive_poly = poly
        self.op_count = 0
        self._build_tables()

    def _poly_mul_x_mod(self, coeffs):
        # multiply by x and reduce by the primitive polynomial
        p, m = self.p, self.m
        shifted = [0] + list(coeffs[: m - 1])
        top = coeffs[m - 1]
        if top:
            for i in range(m):
                shifted[i] = (shifted[i] - top * self.primitive_poly[i]) % p
        return tuple(shifted)

    def _encode(self, coeffs):
        return reduce(lambda acc, c: acc * self.p + c, reversed(coeffs), 0)

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        one = tuple([1] + [0] * (m - 1))
        antilog = []
        seen = {}
        cur = one
        for k in range(q - 1):
            enc = self._encode(cur)
            if enc == 0 or enc in seen:
                raise NotPrimitiveError(
                    "root of the polynomial has multiplicative order %d < %d" % (k, q - 1)
                )
            seen[enc] = k
            antilog.append(enc)
            cur = self._poly_mul_x_mod(cur)
        if cur != one:
            raise NotPrimitiveError("alpha^%d != 1, polynomial root is not primitive" % (q - 1))
        self.antilog = tuple(antilog)
        self.log = seen

        n = q - 1
        # equal fields share their arrays (the log table holds up to 2^16
        # entries) while one of them lives
        key = (p, m, self.primitive_poly)
        ar = _LIVE_ARRAYS.get(key)
        if ar is None:
            ar = _LIVE_ARRAYS[key] = _np_tables(p, m, antilog)
        self._np_arith = ar
        neg, zero = ar.neg, ar.zero

        # table layout: exponents 0..q-2 in slots 0..q-2, ZERO in slot q-1
        # so that Python's index -1 lands on the ZERO row/column
        self._neg = [(a + neg) % n for a in range(n)] + [ZERO]
        if q <= DENSE_Q:
            slots = np.append(np.arange(n), zero)
            self._add_table = [self.np_codes(row) for row in self.np_add(slots[:, None], slots)]
            self._zech = None
        else:
            self._add_table = None
            self._zech = tuple(self.np_codes(self.np_add(ONE, np.arange(n))))

    def np_arith(self):
        """The numpy layer's ``GFArrays``; not op-counted."""
        return self._np_arith

    def np_codes(self, x):
        """Element codes (a list of ints, -1 for zero) of an exponent array."""
        return np.where(x == self.np_arith().zero, ZERO, x).ravel().tolist()

    def np_exponents(self, codes):
        """Exponent array of an intp array of element codes."""
        return np.where(codes < 0, self.np_arith().zero, codes)

    def np_dot(self, x, y):
        """sum_k x[..., k] * y[..., k] over the last axis of the broadcast
        exponent arrays, as exponents; not op-counted.  For odd p the
        products are summed ``chunk`` + 1 at a time, each partial sum
        read back to one encoding through ``np_log``."""
        ar = self.np_arith()
        terms = ar.exp[x + y]
        if self.p == 2:
            return ar.log[np.bitwise_xor.reduce(terms, axis=-1)]
        step = ar.chunk + 1
        while terms.shape[-1] > step:
            part = np.add.reduceat(terms, np.arange(0, terms.shape[-1], step), axis=-1)
            terms = ar.exp[self.np_log(part)]
        return self.np_log(terms.sum(axis=-1))

    def np_add(self, x, y):
        """x + y of the broadcast exponent arrays (each entry an exponent
        or a sum of two, as ``exp`` reads them), as exponents; not
        op-counted."""
        ar = self.np_arith()
        a, b = ar.exp[x], ar.exp[y]
        return self.np_log(a ^ b if self.p == 2 else a + b)

    def np_neg(self, x):
        """-x of an exponent array, as a new exponent array; not op-counted."""
        if self.p == 2:  # -1 = 1
            return x.copy()
        ar = self.np_arith()
        return np.where(x == ar.zero, ar.zero, (x + ar.neg) % (self.q - 1))

    def np_log(self, x):
        """Exponents of an array of encodings, each ``exp`` of an exponent
        or, for odd p, a sum of at most ``chunk`` + 1 of them; not
        op-counted.  One gather where the encodings fit the log table."""
        ar = self.np_arith()
        if ar.fold is None:
            return ar.log[x]
        shifts, mask, place = ar.fold
        return ar.log[(x[..., None] >> shifts & mask) % self.p @ place]

    # -- arithmetic on exponent codes ------------------------------------

    def add(self, a, b):
        self.op_count += 1
        if self._add_table is not None:
            return self._add_table[a][b]
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        d = (b - a) % (self.q - 1)
        z = self._zech[d]
        if z == ZERO:
            return ZERO
        return (a + z) % (self.q - 1)

    def sub(self, a, b):
        self.op_count += 1
        if self._add_table is not None:
            return self._add_table[a][self._neg[b]]
        self.op_count -= 1
        return self.add(a, self._neg[b])

    def neg(self, a):
        self.op_count += 1
        return self._neg[a]

    def mul(self, a, b):
        self.op_count += 1
        if a == ZERO or b == ZERO:
            return ZERO
        return (a + b) % (self.q - 1)

    def div(self, a, b):
        self.op_count += 1
        if b == ZERO:
            raise ZeroDivisionError("division by the zero element")
        if a == ZERO:
            return ZERO
        return (a - b) % (self.q - 1)

    def inv(self, a):
        self.op_count += 1
        if a == ZERO:
            raise ZeroDivisionError("inversion of the zero element")
        return (-a) % (self.q - 1)

    def pow(self, a, k):
        """a^k with the substituted-value convention: x^0 = 1 for every x."""
        self.op_count += 1
        if k == 0:
            return ONE
        if a == ZERO:
            if k < 0:
                raise ZeroDivisionError("negative power of the zero element")
            return ZERO
        return (a * k) % (self.q - 1)

    # -- enumeration and text form ---------------------------------------

    def elements(self):
        """All q elements in the canonical order 0, 1, alpha, ..., alpha^(q-2)."""
        yield ZERO
        for k in range(self.q - 1):
            yield k

    def nonzero(self):
        return range(self.q - 1)

    def poly_coeffs(self, a):
        """Base-p coefficient tuple of an element (for inspection)."""
        if a == ZERO:
            return tuple([0] * self.m)
        enc = self.antilog[a]
        out = []
        for _ in range(self.m):
            out.append(enc % self.p)
            enc //= self.p
        return tuple(out)

    def format(self, a):
        return str(a)

    def parse(self, text):
        try:
            a = int(text)
        except ValueError:
            raise FieldError("bad element %r, expected an exponent or -1" % (text,))
        if a == ZERO:
            return ZERO
        if 0 <= a <= self.q - 2:
            return a
        raise FieldError("exponent %d out of range for GF(%d)" % (a, self.q))

    def check_element(self, a):
        """Return ``a`` if it is an element code (an int from -1 to q-2,
        not a bool), else raise FieldError."""
        if isinstance(a, int) and not isinstance(a, bool) and ZERO <= a <= self.q - 2:
            return a
        raise FieldError("bad element code %r for GF(%d)" % (a, self.q))

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.m, self.primitive_poly) == (
            other.p, other.m, other.primitive_poly)

    def __hash__(self):
        return hash((self.p, self.m, self.primitive_poly))

    def __repr__(self):
        return "Field(p=%d, m=%d, q=%d)" % (self.p, self.m, self.q)
