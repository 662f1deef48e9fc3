"""Generalized DFT F: V_Omega -> V_A and IDFT on GF(q)^N.

Vectors indexed by A = {0..q-1}^N are Spectrum values, vectors indexed
by points of Omega = GF(q)^N are Word values.  Both transforms exist in
two implementations: the direct pointwise formulas (``dft``, ``idft``;
the test oracle, one Field call per operation) and the numpy kernels of
the gf layer, for every field up to MAX_Q.  ``dft_fast`` and ``idft_fast``
run one pass per axis, each the q x q kernel matrix applied to every
fiber at once, blocked so that a temporary stays near BLOCK elements;
``dft_kernel`` and ``idft_kernel`` are the N = 1 case.  ``dft_partial`` is
one |indices| x |points| product over the matrix of exponents of
omega^a.  The kernels count analytically: each adds, in one addition to
``Field.op_count``, the field operations the scalar loop kernels make
(at most 3*N*q^(N+1) for the fast transforms), and each rejects a value
that is no element code with FieldError, naming its position.

Powers follow the substituted-value convention omega^0 = 1 for every
omega, including zero.
"""

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import ZERO, ONE, FieldError
from .mindex import format_index, parse_index, index_box


class DomainError(ValueError):
    pass


@dataclass
class Spectrum:
    """Field values indexed by multi-indices (all of A or a declared subset)."""

    field: object
    ndim: int
    values: dict

    def domain(self):
        return set(self.values)

    def get(self, a):
        return self.values.get(a, ZERO)

    def copy(self):
        return Spectrum(self.field, self.ndim, dict(self.values))

    def restrict(self, indices):
        return Spectrum(self.field, self.ndim, {a: self.values[a] for a in indices})


@dataclass
class Word:
    """Field values indexed by points (all of Omega or a declared subset)."""

    field: object
    ndim: int
    values: dict

    def domain(self):
        return set(self.values)

    def get(self, w):
        return self.values.get(w, ZERO)

    def copy(self):
        return Word(self.field, self.ndim, dict(self.values))

    def restrict(self, points):
        return Word(self.field, self.ndim, {w: self.values[w] for w in points})


def _codes(field, vals):
    """The values as an intp array if each is an element code of type int,
    else None; vectorized past one C-level pass over the types."""
    if not set(map(type, vals)) <= {int}:
        return None
    try:
        codes = np.array(vals, dtype=np.intp)
    except OverflowError:
        return None
    return codes if ((codes >= ZERO) & (codes < field.q - 1)).all() else None


def check_values(vec, what):
    """Raise FieldError, naming the position, at the first value of a Word
    or Spectrum that is not an element code of its field.  The test is
    vectorized; only a vector that fails it is walked."""
    if _codes(vec.field, list(vec.values.values())) is not None:
        return
    for key, x in vec.values.items():
        try:
            vec.field.check_element(x)
        except FieldError as exc:
            raise FieldError("%s at %s: %s" % (what, key, exc)) from None


def index_space(field, ndim):
    """A = {0..q-1}^N in serialization order (first component fastest)."""
    return index_box(field.q, ndim)


def omega_space(field, ndim):
    """Omega = GF(q)^N ordered like the worked grids: coordinates run
    0, 1, alpha, ..., alpha^(q-2) with the last coordinate fastest."""
    coords = [ZERO] + list(range(field.q - 1))
    out = [()]
    for _ in range(ndim):
        out = [rest + (v,) for rest in out for v in coords]
    return out


def point_power(field, w, a):
    """w^a = prod_i w_i^{a_i} with the 0^0 = 1 convention."""
    acc = field.pow(w[0], a[0])
    for wi, ai in zip(w[1:], a[1:]):
        acc = field.mul(acc, field.pow(wi, ai))
    return acc


def _require_full(domain, space, what):
    missing = [x for x in space if x not in domain]
    if missing or len(domain) != len(space):
        raise DomainError("%s must be defined on the full domain (missing %d entries)"
                          % (what, len(missing)))


# -- direct formulas ------------------------------------------------------

def dft(c, indices=None):
    """h_a = sum_omega c_omega omega^a over all of A (or the given indices)."""
    f = c.field
    if indices is None:
        _require_full(c.domain(), omega_space(f, c.ndim), "dft input")
        indices = index_space(f, c.ndim)
    out = {}
    for a in indices:
        acc = ZERO
        for w, cw in c.values.items():
            acc = f.add(acc, f.mul(cw, point_power(f, w, a)))
        out[a] = acc
    return Spectrum(f, c.ndim, out)


def dft_partial(c, indices, what="dft input"):
    """Restricted-output transform: the sum runs over the word's own domain,
    so applied to a word on Psi (zero-padded elsewhere) this is the proper
    transform of the word restricted to ``indices``.  One numpy product
    of the power matrix with the values; same output and op count as
    dft(c, indices).  A value that is no element code raises FieldError
    naming ``what`` and its position."""
    f = c.field
    indices = list(indices)
    x = _element_array(c, list(c.values.values()), what)
    f.op_count += len(indices) * len(x) * (2 * c.ndim + 1)
    a = np.array(indices, dtype=np.intp).reshape(len(indices), c.ndim)
    negative = (a < 0).any(axis=1)
    if negative.any():
        raise DomainError("index %s outside A" % (indices[negative.argmax()],))
    w = np.array(list(c.values), dtype=np.intp).reshape(len(x), c.ndim)
    out = np.empty(len(indices), dtype=np.intp)
    step = max(1, BLOCK // max(1, len(x)))
    for lo in range(0, len(indices), step):
        out[lo:lo + step] = f.np_dot(power_matrix(f, a[lo:lo + step], w), x)
    return Spectrum(f, c.ndim, dict(zip(indices, f.np_codes(out))))


def power_matrix(field, a, w):
    """Exponent matrix of omega^a (0^0 = 1): one row per row of the
    integer array ``a`` (|indices| x N), one column per row of ``w`` (the
    points as element codes, |points| x N).  Not op-counted; it stands
    for 2N - 1 field operations per entry, like point_power."""
    at_zero = w.T < 0
    e = a @ np.where(at_zero, 0, w.T) % (field.q - 1)
    e[(a != 0) @ at_zero] = field.np_arith().zero  # a zero coordinate to a positive power
    return e


def idft(h):
    """Direct generalized IDFT.

    For each point the supporting index set I (positions of its nonzero
    coordinates, m of them) is found; the value is the l-sum over
    {1..q-1}^m of the signed subset sum over J of h at the auxiliary
    index (l on I, q-1 on J, 0 elsewhere), times the negative powers of
    the nonzero coordinates, times (-1)^m.  Signs are field elements.
    """
    f = h.field
    ndim = h.ndim
    q = f.q
    _require_full(h.domain(), index_space(f, ndim), "idft input")
    out = {}
    for w in omega_space(f, ndim):
        supp = [i for i in range(ndim) if w[i] != ZERO]
        rest = [i for i in range(ndim) if w[i] == ZERO]
        m = len(supp)
        acc = ZERO
        ltuples = [()]
        for _ in range(m):
            ltuples = [t + (l,) for t in ltuples for l in range(1, q)]
        for ls in ltuples:
            inner = ZERO
            for mask in range(1 << len(rest)):
                idx = [0] * ndim
                for i, l in zip(supp, ls):
                    idx[i] = l
                bits = 0
                for j, pos in enumerate(rest):
                    if mask >> j & 1:
                        idx[pos] = q - 1
                        bits += 1
                hv = h.values[tuple(idx)]
                inner = f.add(inner, hv) if bits % 2 == 0 else f.sub(inner, hv)
            factor = ONE
            for i, l in zip(supp, ls):
                factor = f.mul(factor, f.pow(w[i], -l))
            acc = f.add(acc, f.mul(inner, factor))
        if m % 2 == 1:
            acc = f.neg(acc)
        out[w] = acc
    return Word(f, ndim, out)


# -- the numpy kernels -------------------------------------------------------

# elements of one kernel temporary: about 8 MB of intp gather indices
BLOCK = 1 << 20


def _element_array(vec, vals, what):
    """The values ``vals`` of ``vec`` as an exponent array; FieldError from
    check_values if one is not an element code."""
    codes = _codes(vec.field, vals)
    if codes is None:
        check_values(vec, what)
        codes = np.array(vals, dtype=np.intp)  # int subclasses check_element accepts
    return vec.field.np_exponents(codes)


@lru_cache(maxsize=32)
def _flat_keys(q, ndim, shift):
    """Keys of the q^N flat positions (first component fastest), each
    component the position plus ``shift``: the indices of A for 0, the
    points of Omega (position 0 the zero element) for -1; with a getter
    reading a dict's values in that order."""
    keys = tuple(tuple(x + shift for x in reversed(k))
                 for k in itertools.product(range(q), repeat=ndim))
    return keys, operator.itemgetter(*keys)


def _full_array(vec, shift, what):
    """The values of a vector on all of A (shift 0) or Omega (shift -1) as
    an exponent array in flat order."""
    keys, getter = _flat_keys(vec.field.q, vec.ndim, shift)
    try:
        vals = getter(vec.values)
    except KeyError:
        vals = None
    if vals is None or len(vec.values) != len(keys):
        _require_full(vec.domain(), keys, what)
    return _element_array(vec, vals, what)


def _kernel_rows(f, lo, hi, inverse):
    """Rows lo..hi-1 of the 1-D kernel's exponent matrix, columns the q
    input positions.  DFT: row 0 sums the fiber, row a >= 1 weighs
    position j >= 1 (omega = alpha^(j-1)) by alpha^((j-1)a).  IDFT: row 0
    is h_0 - h_(q-1), row t+1 is -sum_(i>=1) h_i alpha^(-ti)."""
    ar = f.np_arith()
    n = f.q - 1
    out = np.empty((hi - lo, f.q), dtype=np.intp)
    out[:, 0] = ar.zero
    # uint32 products stay below q(q-1) + q/2 < 2^32 for q <= MAX_Q
    r = np.arange(lo, hi, dtype=np.uint32)
    i = np.arange(1, f.q, dtype=np.uint32)
    if inverse:
        k = np.multiply.outer(n + 1 - r, i)  # row r = t+1: (n - t)i + neg
        k += ar.neg
    else:
        k = np.multiply.outer(r % n, i - 1)
    k %= n
    out[:, 1:] = k
    if lo == 0:
        out[0] = ar.zero if inverse else 0
        if inverse:
            out[0, 0], out[0, n] = 0, ar.neg
    return out


def _kernel_ops(q, inverse):
    return 1 + (q - 1) * (3 * q - 2) if inverse else (q - 1) + 3 * (q - 1) ** 2


def _fibers(f, x, inverse):
    """The 1-D kernel on every row of the (fibers, q) exponent array x,
    blocked over rows and kernel rows so a temporary stays near BLOCK
    elements; adds the kernel's scalar count per fiber to op_count."""
    q = f.q
    nfib = x.shape[0]
    rstep = min(q, max(1, BLOCK // q))
    fstep = max(1, BLOCK // (rstep * q))
    out = np.empty_like(x)
    for lo in range(0, q, rstep):
        k = _kernel_rows(f, lo, min(q, lo + rstep), inverse)
        for flo in range(0, nfib, fstep):
            out[flo:flo + fstep, lo:lo + rstep] = f.np_dot(k, x[flo:flo + fstep, None, :])
    f.op_count += nfib * _kernel_ops(q, inverse)
    return out


def _passes(f, x, ndim, inverse):
    q = f.q
    for axis in range(ndim):
        # flat position = sum pos_i q^i: component ``axis`` has stride q^axis
        cube = x.reshape(q ** (ndim - axis - 1), q, q ** axis)
        fib = _fibers(f, cube.transpose(0, 2, 1).reshape(-1, q), inverse)
        x = fib.reshape(cube.shape[0], cube.shape[2], q).transpose(0, 2, 1).ravel()
    return x


def dft_kernel(field, vec):
    """1-D DFT of a length-q fiber; position j holds the value at omega =
    alpha^(j-1), position 0 the value at omega = 0."""
    x = field.np_exponents(np.array(vec, dtype=np.intp))
    return field.np_codes(_fibers(field, x[None, :], False))


def idft_kernel(field, vec):
    """1-D IDFT of a length-q fiber indexed by a; output is omega-positioned
    like dft_kernel's input.  c_0 = h_0 - h_{q-1}, and for omega != 0,
    c_omega = -(h_1 omega^-1 + ... + h_{q-1} omega^-(q-1))."""
    x = field.np_exponents(np.array(vec, dtype=np.intp))
    return field.np_codes(_fibers(field, x[None, :], True))


def dft_fast(c):
    """Axis-by-axis 1-D DFT passes; identical output to dft()."""
    f = c.field
    x = _passes(f, _full_array(c, -1, "dft input"), c.ndim, False)
    return Spectrum(f, c.ndim, dict(zip(_flat_keys(f.q, c.ndim, 0)[0], f.np_codes(x))))


def idft_fast(h):
    """Axis-by-axis 1-D IDFT passes; identical output to idft()."""
    f = h.field
    x = _passes(f, _full_array(h, 0, "idft input"), h.ndim, True)
    return Word(f, h.ndim, dict(zip(_flat_keys(f.q, h.ndim, -1)[0], f.np_codes(x))))


# -- text forms ------------------------------------------------------------

def spectrum_lines(s):
    order = sorted(s.values, key=lambda a: tuple(reversed(a)))
    return ["%s -> %s" % (format_index(a), s.field.format(s.values[a])) for a in order]


def word_lines(c):
    order = sorted(c.values)
    return ["%s -> %s" % (format_index(w), c.field.format(c.values[w])) for w in order]


def parse_assoc_lines(field, ndim, lines, kind):
    values = {}
    for ln in lines:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "->" not in ln:
            raise DomainError("bad line %r, expected 'index -> value'" % (ln,))
        left, right = ln.split("->", 1)
        key = parse_index(left, ndim)
        val = field.parse(right.strip())
        if kind == "spectrum":
            if any(not 0 <= x < field.q for x in key):
                raise FieldError("index %s out of A" % (key,))
        else:
            key = tuple(field.check_element(x) for x in key)
        if key in values:
            raise DomainError("duplicate entry for %s" % (key,))
        values[key] = val
    if kind == "spectrum":
        return Spectrum(field, ndim, values)
    return Word(field, ndim, values)


def grid_lines(obj, kind):
    """Dense grid matching the worked figures: first index down, second
    across, -1 for the zero element.  One row for N = 1."""
    f = obj.field
    coords = list(range(f.q)) if kind == "spectrum" else list(f.elements())
    fetch = lambda r, c: obj.values.get((r,) if obj.ndim == 1 else (r, c), ZERO)
    if obj.ndim == 1:
        return [" ".join("%3s" % f.format(fetch(r, None)) for r in coords)]
    if obj.ndim != 2:
        raise DomainError("grid form is only defined for N <= 2")
    lines = []
    header = "     " + " ".join("%3s" % c for c in coords)
    lines.append(header)
    for r in coords:
        row = " ".join("%3s" % f.format(fetch(r, c)) for c in coords)
        lines.append("%4s %s" % (r, row))
    return lines
