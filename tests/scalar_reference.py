"""The scalar kernels the numpy layer replaced, kept as the reference
the tests compare values and exact op counts against: one Field call per
field operation.

``dft_kernel``/``idft_kernel`` and the axis-by-axis ``dft_fast``/
``idft_fast`` are the loop kernels of ``avcodes.transform``; ``extend``
runs the tuple-based extension plan and checks every recurrence one
field operation at a time, like ``avcodes.ideal.extend`` did.  The
direct formulas (``transform.dft``, ``transform.idft``) stay in the
library as the transform oracle; ``dft(c, indices)`` is the reference of
``dft_partial``.
"""

from avcodes.gf import ZERO, ONE
from avcodes.ideal import IdealError, _is_sequential
from avcodes.mindex import MonomialOrder, dominates, dominated_sub, semigroup_add, index_box
from avcodes.transform import Spectrum, Word, index_space, omega_space, _require_full


# -- 1-D kernels and the multidimensional fast path -----------------------

def dft_kernel(field, vec):
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


# -- the extension with tuple plans and scalar checks ----------------------

def _extension_plan(q, ndim, order_spec, leads, seeds, target, sequential, tails):
    """(indices, seeds, exps, program, checks, outputs) of a basis shape,
    every recurrence a tuple (slot, element, reference slots)."""
    order = MonomialOrder(*order_spec)
    key = order.key
    for t in target:
        if len(t) != ndim or any(not 0 <= x < q for x in t):
            raise IdealError("target index %s outside A" % (t,))
    admissible = [w for w, aw in enumerate(leads) if all(x < q for x in aw)]
    space = sorted(index_box(q, ndim), key=key)
    if sequential:
        top = key(max(target, key=key))
        space = [a for a in space if key(a) <= top]
        seed_order = sorted(seeds, key=key)
        exps = [tuple(d for d in seed_order if key(d) < key(aw)) + tail
                for aw, tail in zip(leads, tails)]
    else:
        exps = list(tails)
    exps = tuple(exps[w] if w in admissible else () for w in range(len(leads)))
    slot = {a: s for s, a in enumerate(space)}

    recs = {}
    for a in space:
        if a in seeds:
            continue
        recs[a] = [
            (w, tuple(slot[semigroup_add(dominated_sub(a, leads[w]), d, q)]
                      for d in exps[w]))
            for w in admissible if dominates(a, leads[w])
        ]
        if not recs[a]:
            raise IdealError("no admissible basis element for %s (corrupt basis)" % (a,))

    if sequential:
        program = [(slot[a],) + r[0] for a, r in recs.items()]
        checks = [(slot[a],) + rec for a, r in recs.items() for rec in r[1:]]
    else:
        known = {slot[a] for a in space if a in seeds}
        program = []
        pending = list(recs)
        while pending:
            left = []
            for a in pending:
                rec = next((r for r in recs[a] if known.issuperset(r[1])), None)
                if rec is None:
                    left.append(a)
                else:
                    program.append((slot[a],) + rec)
                    known.add(slot[a])
            if len(left) == len(pending):
                raise IdealError(
                    "recurrence family is not sequentially computable (stuck on %d indices)"
                    % len(left))
            pending = left
        checks = [(slot[a],) + rec for a, r in recs.items() for rec in r]
    return (tuple(space), tuple((d, slot[d]) for d in seeds if d in slot), exps,
            program, checks, tuple((t, slot[t]) for t in target))


def extend(h, gb, target):
    """``avcodes.ideal.extend`` with every check run through Field calls."""
    dset = gb.delta.members
    if h.domain() != set(dset):
        raise IdealError("seed spectrum domain does not match the basis seed set")
    target = tuple(tuple(t) for t in target)
    if not target:
        return Spectrum(gb.field, gb.ndim, dict(h.values))
    sequential = _is_sequential(gb)
    tails = tuple(tuple(sorted(e for e, _ in tail if not (sequential and e in dset)))
                  for tail in gb._tails)
    indices, seeds, exps, program, checks, outputs = _extension_plan(
        gb.field.q, gb.ndim, (gb.order.kind, gb.order.weights),
        tuple(gb.leading), dset, target, sequential, tails)
    f = gb.field
    coeffs = [[g.terms.get(d, ZERO) for d in e] for g, e in zip(gb.elements, exps)]
    vals = [ZERO] * len(indices)
    for d, s in seeds:
        vals[s] = h.values[d]

    def recur(w, refs):
        acc = ZERO
        for c, s in zip(coeffs[w], refs):
            if c != ZERO:
                acc = f.add(acc, f.mul(c, vals[s]))
        return f.neg(acc)

    for s, w, refs in program:
        vals[s] = recur(w, refs)
    for s, w, refs in checks:
        if recur(w, refs) != vals[s]:
            raise IdealError("inconsistent recurrences at %s (corrupt basis)" % (indices[s],))
    out = dict(h.values)
    out.update((t, vals[s]) for t, s in outputs)
    return Spectrum(gb.field, gb.ndim, out)
