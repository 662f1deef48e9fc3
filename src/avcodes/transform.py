"""Generalized DFT F: V_Omega -> V_A and IDFT on GF(q)^N.

Vectors indexed by A = {0..q-1}^N are Spectrum values, vectors indexed
by points of Omega = GF(q)^N are Word values.  Both transforms exist in
two implementations: the direct pointwise formulas (the test oracle) and
the axis-by-axis decomposition into 1-D kernels (the default fast path,
at most 3*N*q^(N+1) field operations).

Powers follow the substituted-value convention omega^0 = 1 for every
omega, including zero.
"""

from dataclasses import dataclass

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


def check_values(vec, what):
    """Raise FieldError, naming the position, at the first value of a Word
    or Spectrum that is not an element code of its field."""
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


def dft_partial(c, indices):
    """Restricted-output transform: the sum runs over the word's own domain,
    so applied to a word on Psi (zero-padded elsewhere) this is the proper
    transform of the word restricted to ``indices``."""
    return dft(c, indices=list(indices))


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


# -- 1-D kernels and the multidimensional fast path -----------------------

def dft_kernel(field, vec):
    """1-D DFT of a length-q fiber; position j holds the value at omega =
    alpha^(j-1), position 0 the value at omega = 0."""
    q = field.q
    out = [ZERO] * q
    acc = vec[0]
    for j in range(1, q):
        acc = field.add(acc, vec[j])
    out[0] = acc
    for a in range(1, q):
        step = a % (q - 1)
        acc = ZERO
        pw = ONE
        for j in range(q - 1):
            acc = field.add(acc, field.mul(vec[j + 1], pw))
            pw = field.mul(pw, step)
        out[a] = acc
    return out


def idft_kernel(field, vec):
    """1-D IDFT of a length-q fiber indexed by a; output is omega-positioned
    like dft_kernel's input.  c_0 = h_0 - h_{q-1}, and for omega != 0,
    c_omega = -(h_1 omega^-1 + ... + h_{q-1} omega^-(q-1))."""
    q = field.q
    out = [ZERO] * q
    out[0] = field.sub(vec[0], vec[q - 1])
    for t in range(q - 1):
        step = (q - 1 - t) % (q - 1)
        acc = ZERO
        pw = ONE
        for i in range(1, q):
            pw = field.mul(pw, step)
            acc = field.add(acc, field.mul(vec[i], pw))
        out[t + 1] = field.neg(acc)
    return out


def _to_flat(values, ndim, q, pos_of):
    data = [ZERO] * (q ** ndim)
    for key, v in values.items():
        flat = 0
        stride = 1
        for i in range(ndim):
            flat += pos_of(key[i]) * stride
            stride *= q
        data[flat] = v
    return data


def _axis_pass(field, data, ndim, axis, kernel):
    q = field.q
    stride = q ** axis
    outer = q ** (ndim - axis - 1)
    for hi in range(outer):
        base_hi = hi * stride * q
        for lo in range(stride):
            base = base_hi + lo
            vec = [data[base + j * stride] for j in range(q)]
            res = kernel(field, vec)
            for j in range(q):
                data[base + j * stride] = res[j]


def dft_fast(c, axis_order=None):
    """Axis-by-axis 1-D DFT passes; identical output to dft()."""
    f = c.field
    ndim = c.ndim
    _require_full(c.domain(), omega_space(f, ndim), "dft input")
    data = _to_flat(c.values, ndim, f.q, lambda w: w + 1)
    for axis in axis_order if axis_order is not None else range(ndim):
        _axis_pass(f, data, ndim, axis, dft_kernel)
    out = {}
    for flat, v in enumerate(data):
        rem, idx = flat, []
        for _ in range(ndim):
            idx.append(rem % f.q)
            rem //= f.q
        out[tuple(idx)] = v
    return Spectrum(f, ndim, out)


def idft_fast(h, axis_order=None):
    """Axis-by-axis 1-D IDFT passes; identical output to idft()."""
    f = h.field
    ndim = h.ndim
    _require_full(h.domain(), index_space(f, ndim), "idft input")
    data = _to_flat(h.values, ndim, f.q, lambda a: a)
    for axis in axis_order if axis_order is not None else range(ndim):
        _axis_pass(f, data, ndim, axis, idft_kernel)
    out = {}
    for flat, v in enumerate(data):
        rem, pt = flat, []
        for _ in range(ndim):
            pt.append(rem % f.q - 1)
            rem //= f.q
        out[tuple(pt)] = v
    return Word(f, ndim, out)


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
