"""The scalar kernels the numpy layer replaced, kept as the reference
the tests compare values and exact op counts against: one Field call per
field operation.

``digit_add`` adds two base-p encodings digit by digit, the oracle of
``Field.add``.  ``dft_kernel``/``idft_kernel`` and the axis-by-axis
``dft_fast``/``idft_fast`` are the loop kernels of ``avcodes.transform``;
``idft_at`` evaluates the IDFT at given points only, one inverse kernel
row per point and axis, counting ``idft_at_count``;
``extend`` runs the tuple-based extension plan and checks every
recurrence one field operation at a time, like ``avcodes.ideal.extend``
did.  Its ``_extension_plan`` keeps two schedules over all of A, an
increasing sweep for families whose tails precede their leads
(``tails_precede_leads`` tells them apart) and worklist passes for the
others, both over the admissible elements in the library's
shortest-register order, as the oracle of the library's one worklist
schedule; ``plan_args`` gives what both read off a basis, each
element's exact tail exponents.
``Eliminator`` is the one-vector-at-a-time Gaussian elimination, and
``vanishing_gb``, ``check_set_basis``, ``check_systematic_support`` and
``transpose_check`` build on it and on point_power as the library did
before its batched eliminator; ``column_insertion`` and ``compiled_map``
build on it the oracles of ``avcodes.codes.PointSetEntry``'s
``projection`` and of the map its tail rows give.  ``find_supports``
is the plain meet-in-the-middle enumeration of consistent supports, the
oracle of the voting locator.  ``sum_forms`` computes normal forms of monomials by
eliminating evaluation vectors, the oracle of ``ideal.SumForms``, which
divides on the basis.  ``decode_info``, ``decode_word`` and
``systematic_encode`` are the decoders and systematic encoding on
Spectrum and Word dicts, every transform ``dft_partial``'s on the word
rebuilt over the code's field (``code_transform``) and every subtraction
and negation one Field call: the oracle of the library's exponent-array
paths, words, per-step counts and errors.  The direct formulas (``transform.dft``,
``transform.idft``) stay in the library as the transform oracle;
``dft(c, indices)`` is the reference of ``dft_partial``.
"""

import itertools

import numpy as np

from avcodes import decoder, ideal, transform
from avcodes.decoder import SystematicSupportError, UndecodableError
from avcodes.gf import ZERO, ONE
from avcodes.ideal import (IdealError, _level_leads, DeltaSet, Polynomial, ReducedGroebnerBasis,
                           index_array)
from avcodes.mindex import MonomialOrder, dominates, dominated_sub, semigroup_add, index_box
from avcodes.transform import (Spectrum, Word, check_field, index_space, omega_space,
                               _require_full, point_power, dft_partial, power_matrix)


# -- field addition, digit by digit ----------------------------------------

def digit_add(field, ea, eb):
    """Sum of two canonical base-p encodings (ints, or numpy integer
    arrays elementwise), added digit by digit mod p: the oracle of the
    field's add tables, which the library reads off ``Field.np_add``."""
    p = field.p
    if p == 2:
        return ea ^ eb
    out = 0
    mult = 1
    for _ in range(field.m):
        out = out + ((ea + eb) % p) * mult
        ea = ea // p
        eb = eb // p
        mult *= p
    return out


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


def dft_fast(c):
    f = c.field
    ndim = c.ndim
    _require_full(c.domain(), omega_space(f, ndim), "dft input")
    data = _to_flat(c.values, ndim, f.q, lambda w: w + 1)
    for axis in range(ndim):
        _axis_pass(f, data, ndim, axis, dft_kernel)
    out = {}
    for flat, v in enumerate(data):
        rem, idx = flat, []
        for _ in range(ndim):
            idx.append(rem % f.q)
            rem //= f.q
        out[tuple(idx)] = v
    return Spectrum(f, ndim, out)


def idft_fast(h):
    f = h.field
    ndim = h.ndim
    _require_full(h.domain(), index_space(f, ndim), "idft input")
    data = _to_flat(h.values, ndim, f.q, lambda a: a)
    for axis in range(ndim):
        _axis_pass(f, data, ndim, axis, idft_kernel)
    out = {}
    for flat, v in enumerate(data):
        rem, pt = flat, []
        for _ in range(ndim):
            pt.append(rem % f.q - 1)
            rem //= f.q
        out[tuple(pt)] = v
    return Word(f, ndim, out)


# -- the IDFT at given points ----------------------------------------------

def idft_at_count(q, points):
    """The scalar count of idft_at at the points (an integer array of
    element codes, one row each), known before any work.  The spectrum
    is contracted axis by axis, the first component first, so axis i has
    q^(N-1-i) fibers per point.  A zero coordinate takes
    h_0 - h_(q-1) per fiber; a nonzero one builds its q - 1 kernel powers
    once and takes q - 1 muls, q - 2 adds and a neg per fiber, as the
    scalar kernel does."""
    fibers = q ** np.arange(points.shape[1] - 1, -1, -1, dtype=np.int64)
    per = np.where(points < 0, fibers, (q - 1) + (2 * q - 2) * fibers)
    return int(per.sum())


def idft_at(field, x, points):
    """The generalized IDFT of the flat exponent array x (all of A, first
    component fastest) at the given points only (an integer array of
    element codes, one row each), as exponents.  Per point and axis the
    inverse kernel row of the point's coordinate is built, never the
    q x q matrix, and contracted with the spectrum axis by axis; points
    and fibers are blocked so that a temporary stays near BLOCK elements.
    Adds idft_at_count to op_count.  The lemma's values at a point set
    alone, the oracle of what the library reads off eliminations."""
    q, ndim = field.q, points.shape[1]
    pos = np.where(points < 0, 0, points + 1)  # the kernel row of each coordinate
    out = np.empty(len(points), dtype=np.intp)
    step = max(1, transform.BLOCK // q ** ndim)
    for lo in range(0, len(points), step):
        y = x[None]
        for axis in range(ndim):
            y = y.reshape(len(y), -1, q)  # the last axis is component ``axis``
            k = transform._kernel_rows(field, pos[lo:lo + step, axis], True)[:, None, :]
            z = np.empty((len(k), y.shape[1]), dtype=np.intp)
            rstep = max(1, transform.BLOCK // (len(k) * q))
            for r in range(0, y.shape[1], rstep):
                z[:, r:r + rstep] = field.np_dot(k, y[:, r:r + rstep])
            y = z
        out[lo:lo + step] = y[:, 0]
    field.op_count += idft_at_count(q, points)
    return out


# -- the extension with tuple plans and scalar checks ----------------------

def _tails_precede(key, leads, tails):
    """Whether every tail exponent precedes its element's lead."""
    return all(key(e) < key(aw) for aw, tail in zip(leads, tails) for e in tail)


def tails_precede_leads(gb):
    """Whether the basis is a family whose tails precede its leads (every
    vanishing-ideal basis), which the oracle settles in one increasing
    sweep; any other family takes its worklist passes."""
    return _tails_precede(gb.order.key, gb.leading, [[e for e, _ in t] for t in gb._tails])


def _extension_plan(q, ndim, order_spec, leads, seeds, tails):
    """(indices, seeds, tails, program, checks) of a basis over all of A,
    every recurrence a tuple (slot, element, reference slots)."""
    order = MonomialOrder(*order_spec)
    key = order.key
    admissible = [w for w, aw in enumerate(leads) if all(x < q for x in aw)]
    space = sorted(index_box(q, ndim), key=key)
    admissible.sort(key=lambda w: (len(tails[w]), key(leads[w]), w))
    slot = {a: s for s, a in enumerate(space)}

    recs = {}
    for a in space:
        if a in seeds:
            continue
        recs[a] = [
            (w, tuple(slot[semigroup_add(dominated_sub(a, leads[w]), d, q)]
                      for d in tails[w]))
            for w in admissible if dominates(a, leads[w])
        ]
        if not recs[a]:
            raise IdealError("no admissible basis element for %s (corrupt basis)" % (a,))

    if _tails_precede(key, leads, tails):
        program = [(slot[a],) + r[0] for a, r in recs.items()]
        checks = [(slot[a],) + rec for a, r in recs.items() for rec in r[1:]]
    else:
        known = {slot[d] for d in seeds}
        program, chosen = [], {}
        pending = list(recs)
        while pending:
            left = []
            for a in pending:
                rec = next((r for r in recs[a] if known.issuperset(r[1])), None)
                if rec is None:
                    left.append(a)
                else:
                    program.append((slot[a],) + rec)
                    chosen[a] = rec
                    known.add(slot[a])
            if len(left) == len(pending):
                raise IdealError(
                    "recurrence family is not sequentially computable (stuck on %d indices)"
                    % len(left))
            pending = left
        # the recurrence that set a value cannot fail its check
        checks = [(slot[a],) + rec for a, r in recs.items() for rec in r if rec is not chosen[a]]
    return tuple(space), tuple((d, slot[d]) for d in seeds), tails, program, checks


def plan_args(gb):
    """The arguments of ``_extension_plan`` for a basis, each element's
    tail as its sorted tail exponents: what ``ideal._extension_plan``
    reads off the basis."""
    return (gb.field.q, gb.ndim, (gb.order.kind, gb.order.weights), tuple(gb.leading),
            gb.delta.members, tuple(tuple(sorted(e for e, _ in t)) for t in gb._tails))


def extend(h, gb):
    """``avcodes.ideal.extend`` with every check run through Field calls."""
    if h.domain() != set(gb.delta.members):
        raise IdealError("seed spectrum domain does not match the basis seed set")
    indices, seeds, tails, program, checks = _extension_plan(*plan_args(gb))
    f = gb.field
    coeffs = [[g.terms.get(d, ZERO) for d in e] for g, e in zip(gb.elements, tails)]
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
    return Spectrum(gb.field, gb.ndim, dict(zip(indices, vals)))


# -- scalar Gaussian elimination and the bases built on it -----------------

class Eliminator:
    """Incremental Gaussian elimination with one Field call per operation.

    Each inserted vector is reduced against the rows so far and, if
    independent of them, kept as a row normalized at its pivot (its first
    nonzero entry) together with its expression over the inserted tags.
    ``reduce`` subtracts the rows in insertion order and returns the
    residual and the combination ``comb`` with
    vec = residual + sum(comb[t] * vec_t).
    """

    def __init__(self, field):
        self.field = field
        self.rows = []  # (pivot, normalized row, row as a combination over tags)

    def reduce(self, vec):
        f = self.field
        vec = list(vec)
        comb = {}
        for pivot, row, row_comb in self.rows:
            c = vec[pivot]
            if c == ZERO:
                continue
            for i, y in enumerate(row):
                if y != ZERO:
                    vec[i] = f.sub(vec[i], f.mul(c, y))
            for t, y in row_comb.items():
                s = f.add(comb.get(t, ZERO), f.mul(c, y))
                if s == ZERO:
                    comb.pop(t, None)
                else:
                    comb[t] = s
        return vec, comb

    def insert(self, vec, tag):
        """Add ``vec`` under ``tag`` and return None; if it depends on the
        rows already inserted, add nothing and return its combination."""
        f = self.field
        vec, comb = self.reduce(vec)
        pivot = next((i for i, x in enumerate(vec) if x != ZERO), None)
        if pivot is None:
            return comb
        inv = f.inv(vec[pivot])
        row_comb = {t: f.neg(f.mul(y, inv)) for t, y in comb.items()}
        row_comb[tag] = inv
        self.rows.append((pivot, [f.mul(x, inv) for x in vec], row_comb))
        return None


def _vanishing_element(field, ndim, lead, comb):
    terms = {lead: ONE}
    terms.update((d, field.neg(c)) for d, c in comb.items())
    return Polynomial(field, ndim, terms)


def vanishing_gb(points, order):
    f = points.field
    ndim = points.ndim
    pts = list(points.points)
    n = len(pts)
    if n == 0:
        raise IdealError("empty point set has no vanishing-ideal basis")
    q = f.q

    candidates = sorted(index_box(q, ndim, top=q), key=order.key)
    elim = Eliminator(f)
    delta = []
    min_leads = []
    scan_tails = {}
    for e in candidates:
        if any(dominates(e, m) for m in min_leads):
            continue
        comb = elim.insert([point_power(f, p, e) for p in pts], e)
        if comb is None:
            delta.append(e)
        else:
            min_leads.append(e)
            scan_tails[e] = comb

    if len(delta) != n:
        raise IdealError("delta set size %d != %d points (non-distinct points?)"
                         % (len(delta), n))
    members = set(delta)

    emit = set(_level_leads(members, q, ndim))
    emit.update(m for m in min_leads if any(x >= q for x in m))
    for m in min_leads:
        if m not in emit and not any(dominates(m, e) for e in emit):
            emit.add(m)
    leads = sorted(emit, key=lambda a: tuple(reversed(a)))

    elements = []
    for e in leads:
        if e in scan_tails:
            comb = scan_tails[e]
        else:
            vec, comb = elim.reduce([point_power(f, p, e) for p in pts])
            if any(v != ZERO for v in vec):
                raise IdealError("lead %s is not in the ideal (internal error)" % (e,))
        elements.append(_vanishing_element(f, ndim, e, comb))

    ds = DeltaSet(frozenset(delta))
    gb = ReducedGroebnerBasis(f, ndim, order, elements, leads, ds)
    return gb, ds


def check_set_basis(points, b_set, order):
    f = points.field
    ndim = points.ndim
    pts = list(points.points)
    if not pts:
        raise IdealError("empty point set")
    q = f.q
    b_list = [tuple(b) for b in b_set]
    members = set(b_list)
    for b in members:
        if len(b) != ndim or any(not 0 <= x < q for x in b):
            raise IdealError("check index %s outside A" % (b,))

    emit = set(_level_leads(members, q, ndim))
    space = index_box(q, ndim)
    outside = [a for a in sorted(space, key=order.key) if a not in members]
    minimal = [a for a in outside if not any(dominates(a, m) and a != m for m in outside)]
    for m in minimal:
        if m not in emit and not any(dominates(m, e) for e in emit):
            emit.add(m)
    b_delta = DeltaSet(frozenset(members))
    if not b_delta.is_downward_closed():
        units = [tuple(int(j == i) for j in range(ndim)) for i in range(ndim)]
        emit.update(a for a in (semigroup_add(b, e, q) for b in b_list for e in units)
                    if a not in members)
    leads = sorted(emit, key=lambda a: tuple(reversed(a)))

    elim = Eliminator(f)
    for b in b_list:
        elim.insert([point_power(f, p, b) for p in pts], b)
    elements = []
    for a in leads:
        vec, comb = elim.reduce([point_power(f, p, a) for p in pts])
        if any(v != ZERO for v in vec):
            raise IdealError(
                "check-set system unsolvable on the points (ev not surjective)")
        elements.append(_vanishing_element(f, ndim, a, comb))
    return ReducedGroebnerBasis(f, ndim, order, elements, leads, b_delta)


def check_systematic_support(phi, code):
    """``avcodes.decoder.check_systematic_support`` after its size check."""
    f = code.field
    elim = Eliminator(f)
    return all(elim.insert([point_power(f, p, b) for p in phi.points], b) is None
               for b in code.b_list)


def column_insertion(points, b_list):
    """The points' columns on B inserted in store order, every one:
    (the eliminator, whether the columns are independent, the count of
    the insertion, without the powers).  The oracle of the
    ``projection`` of ``avcodes.codes.PointSetEntry``, rank and count."""
    f = points.field
    columns = [[point_power(f, p, b) for b in b_list] for p in points.points]
    elim = Eliminator(f)
    before = f.op_count
    dependent = [elim.insert(col, p) for p, col in zip(points.points, columns)]
    return elim, all(comb is None for comb in dependent), f.op_count - before


def compiled_map(points, b_list):
    """The map of a set of points with independent check columns as
    element codes, one row per point and one column per check index, and
    the count of its reductions: the points' columns on B are inserted in
    store order (column_insertion), then minus the unit vector at each b
    is reduced, and minus its combination is column b.  The oracle of
    minus the tail rows of ``avcodes.codes.PointSetEntry``'s
    ``projection``, values, and of the count of its unit reductions."""
    f = points.field
    elim, independent, _ = column_insertion(points, b_list)
    assert independent
    minus_one = f.neg(ONE)
    before = f.op_count
    combs = [elim.reduce([minus_one if d == b else ZERO for d in b_list])[1] for b in b_list]
    ops = f.op_count - before
    return [[f.neg(comb.get(p, ZERO)) for comb in combs] for p in points.points], ops


def transpose_check(delta, psi):
    from avcodes.maps import evaluate

    f = psi.field
    members = delta.members if isinstance(delta, DeltaSet) else frozenset(delta)
    if len(members) != len(psi):
        return False
    monos = sorted(members)
    pts = list(psi.points)
    n = len(pts)
    ev_rows = []
    for d in monos:
        unit = Spectrum(f, psi.ndim, {e: (0 if e == d else ZERO) for e in monos})
        w = evaluate(unit, psi)
        ev_rows.append([w.values[p] for p in pts])
    pt_rows = []
    for p in pts:
        unit = Word(f, psi.ndim, {pp: (0 if pp == p else ZERO) for pp in pts})
        s = dft_partial(unit, monos)
        pt_rows.append([s.values[d] for d in monos])
    for i in range(len(monos)):
        for j in range(n):
            if ev_rows[i][j] != pt_rows[j][i]:
                return False
    elim = Eliminator(f)
    return all(elim.insert(row, i) is None for i, row in enumerate(ev_rows))


# -- the locator's oracle ------------------------------------------------

def find_supports(field, target, columns, t):
    """The sorted supports of size t admitting an all-nonzero combination
    of ``columns`` equal to ``target``: every half combination enumerated
    with Field calls and joined through a dict."""
    def half_entries(k):
        if k == 0:
            yield tuple([ZERO] * len(target)), ()
            return
        for combo in itertools.combinations(range(len(columns)), k):
            for coeffs in itertools.product(field.nonzero(), repeat=k):
                acc = [ZERO] * len(target)
                for idx, c in zip(combo, coeffs):
                    acc = [field.add(a, field.mul(c, x)) for a, x in zip(acc, columns[idx])]
                yield tuple(acc), combo

    ka = t // 2
    lookup = {}
    for vec, combo in half_entries(ka):
        lookup.setdefault(vec, []).append(combo)
    found = set()
    for vec, combo in half_entries(t - ka):
        want = tuple(field.sub(tv, v) for tv, v in zip(target, vec))
        for combo_a in lookup.get(want, ()):
            if combo_a and combo and combo_a[-1] >= combo[0]:
                continue
            found.add(tuple(combo_a) + tuple(combo))
    return sorted(found)


# -- the sum forms by elimination ------------------------------------------

def sum_forms(gb, psi, keys):
    """(forms, leads) of the monomials x^key, one row of the index array
    ``keys`` each, mod the vanishing ideal of ``psi`` with basis ``gb``:
    x^key evaluated on psi and reduced against an Eliminator holding the
    vectors of the sorted delta set, the negated tail taken as the
    coefficient exponents over it, the lead the last nonzero position
    (-1 for zero).  This is how ideal.SumForms filled its rows before it
    divided on the basis."""
    f = gb.field
    ar = f.np_arith()
    delta = gb.delta.sorted(gb.order)
    pts = index_array(psi.points, gb.ndim)
    elim = ideal.Eliminator(f, len(delta))
    elim.insert(power_matrix(f, index_array(delta, gb.ndim), pts), delta)
    _, tails, _ = elim.reduce(power_matrix(f, keys, pts))
    live = tails != ar.zero
    forms = np.where(live, (tails + ar.neg) % (f.q - 1), ar.zero)
    leads = np.where(live.any(axis=1), len(delta) - 1 - live[:, ::-1].argmax(axis=1), -1)
    return forms, leads


# -- the dict paths of the decoders and systematic encoding ----------------

def code_transform(c, code, onto, what="dft input"):
    """The transform of the word c on B (``onto`` "B", in ``b_list``
    order) or D ("D", in ``d_sorted`` order) by ``dft_partial``, with c
    rebuilt over the code's field: ``dft_partial`` counts on its word's
    field, and a word may come from another code over an equal field."""
    indices = code.b_list if onto == "B" else code.d_sorted
    return dft_partial(Word(code.field, c.ndim, c.values), indices, what)


def _decode_head(r, phi1, code, t_max, kind, onto):
    """``avcodes.decoder``'s decode head on Spectrum and Word dicts: the
    received word's transform by ``code_transform``, handed whole to
    ``decoder.locate``, and the error word on the located set.  Returns (meter, report, transform, located set, error word)."""
    f = code.field
    check_field(r, f, "received word", "code", UndecodableError)
    check_field(phi1, f, "erasure set", "code", UndecodableError)
    if r.domain() != set(code.psi.points):
        raise UndecodableError("received word is not indexed by the code's point set")
    meter = decoder._Meter(f)
    rt = code_transform(r, code, onto, "received word")
    if len(phi1) == len(code.psi) and set(phi1.points) == set(code.psi.points):
        raise UndecodableError("every position erased, no information positions")
    meter.lap("transform")
    loc = decoder.locate(rt, phi1, code, t_max)
    meter.lap("locator")
    located = loc.located
    if loc.values is None:
        raise UndecodableError("locator delta escapes the check set and the check-set "
                               "system is unsolvable: the check columns of the %d "
                               "located points are dependent" % len(located))
    report = decoder.StepCounts(meter.steps, {
        "kind": kind,
        "code": code.name or repr(code),
        "q": f.q,
        "N": code.ndim,
        "n": code.n,
        "located": len(located),
        "locator": loc.stats,
        "point_sets_reused": not loc.built,
    }, meter.ms)
    e_loc = Word(f, code.ndim, dict(zip(located.points, f.np_codes(loc.values))))
    return meter, report, rt, located, e_loc


def decode_info(r, phi1, code, t_max=None):
    """The dict path of ``avcodes.decoder.decode_info``: the error
    spectrum a Spectrum, the subtraction one Field.sub per index of D."""
    f = code.field
    meter, report, rtilde, located, e_loc = _decode_head(r, phi1, code, t_max, "decode_info",
                                                         "D")
    k = code_transform(e_loc, code, "D").values
    meter.lap("spectrum")
    out = {d: f.sub(rtilde.values[d], k[d]) for d in code.d_sorted}
    meter.lap("subtract")
    for b in code.b_list:
        if out[b] != ZERO:
            raise UndecodableError("recovered spectrum has support at check index %s" % (b,))
    return decoder.InfoSpectrum(f, code.ndim, {d: out[d] for d in code.d_sorted
                                               if d not in code.b_members}, report)


def decode_word(r, phi1, code, t_max=None):
    """The dict path of ``avcodes.decoder.decode_word``: the error and the
    codeword built point by point, one Field.sub per point, and the check
    a Spectrum of the error word on the located set."""
    f = code.field
    meter, report, rt, located, e_loc = _decode_head(r, phi1, code, t_max, "decode_word",
                                                     "B")
    e = Word(f, code.ndim, {p: e_loc.values.get(p, ZERO) for p in code.psi.points})
    c = Word(f, code.ndim, {p: f.sub(r.values[p], e.values[p]) for p in code.psi.points})
    meter.lap("subtract")
    if code_transform(e_loc, code, "B").values != rt.values:
        raise UndecodableError("decoded word fails the check set")
    meter.lap("check")
    return decoder.DecodeResult(codeword=c, error=e, located=located, report=report)


def systematic_encode(info, phi, code):
    """The dict path of ``avcodes.decoder.systematic_encode``: Phi's map
    minus the tail rows of its erasure projection, the seed a Spectrum,
    the values of the map a Word checked by its Spectrum, and one
    Field.neg per point of Phi."""
    f = code.field
    check_field(info, f, "information word", "code", SystematicSupportError)
    decoder._check_phi(phi, code)
    if info.domain() != set(code.psi.points) - set(phi.points):
        raise SystematicSupportError("information word must be indexed by Psi \\ Phi")
    entry = code.point_set(phi.points)[0]
    tails = entry.projection.tails
    if len(tails) < len(phi):
        raise SystematicSupportError("Phi not generic: the check columns of the %d points "
                                     "have rank %d" % (len(phi), len(tails)))
    matrix = f.np_neg(tails)
    seed = code_transform(info, code, "B", "information word")
    x = f.np_exponents(np.array([seed.values[b] for b in code.b_list], dtype=np.intp))
    f.op_count += len(matrix) * (2 * len(code.b_list) - 1)
    w = Word(f, code.ndim, dict(zip(entry.points.points, f.np_codes(f.np_dot(matrix, x)))))
    if code_transform(w, code, "B").values != seed.values:
        raise SystematicSupportError("systematic output fails the check set")
    out = dict(info.values)
    for p in phi.points:
        out[p] = f.neg(w.values[p])
    return Word(f, code.ndim, out)
