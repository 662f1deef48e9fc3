"""Vanishing-ideal machinery: reduced bases of point ideals, delta sets,
normal forms, and the extension map (multidimensional LFSR).

Delta sets come from Buchberger-Moeller style elimination: monomials are
scanned in increasing order and those whose evaluation vector on the
points is independent of the earlier ones form the delta set; every
other monomial has a unique monic representative with tail supported on
the delta set.  Scanning the box {0..q}^N suffices because x_i^q - x_i
vanishes everywhere, so no minimal leading exponent has a component
above q.

The elimination (``Eliminator``) works on numpy exponent arrays of the
gf layer: evaluation vectors come from one power-matrix kernel
(transform.power_matrix), and a batch of vectors is eliminated
right-looking, one pivot step per kept row over the stacked
[vectors | -combination] matrix.  In exact arithmetic that is the
sequence of row operations of inserting one vector at a time, so each
step returns the scalar count of its rows and the bases count exactly
what the one-vector-at-a-time scan counts (2N - 1 per evaluated entry,
as point_power).  What does not depend on the points is cached per
(q, N, order): the sorted scan box, and per seed set its leads.

Both bases are one recurrence family, built by one routine: seeded on a
set S of indices, it has one monic element with tail on S per
last-coordinate level of the staircase of S (the shape shift-register
synthesis produces, which may include order-redundant elements such as
y*g over a two-point set) and per minimal index outside S.
vanishing_gb seeds it on the delta set its scan finds and adds the
x_i^q-carrying minimal generators; check_set_basis seeds it on a check
set B, which is what erasure-only decoding beyond the radius and
systematic encoding require.

The extension (``extend``) is split in two.  A plan, built from the
basis shape alone (q, N, order, leading indices, seed set, target and
family kind) and kept in a bounded cache of PLAN_CACHE_SIZE shapes,
lists over flat integer slots the seed slots, then for each other index
in evaluation order its admissible recurrences as reference slots (the
sweep's as tuples, the checks packed into integer arrays), then the
output slots.  Sequential families read every element at the seed
exponents preceding its lead, so their key holds only the tail exponents
outside the seed set; worklist families, whose pass order depends on
which references are known, are keyed on their exact tail supports.
The executor fills the slots from the seed values and the coefficients
read from the basis on each call with a scalar sweep of Field calls,
skipping zero coefficients.  It then checks every admissible recurrence
the sweep did not use to set a value (every one, for worklist families)
as one numpy product over the plan's packed check arrays, and counts it
analytically as the sweep would: one mul and one add per nonzero
coefficient and one neg per recurrence.  Building a plan costs no field
operations, so the counts of a call do not depend on the cache.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import ZERO, ONE
from .mindex import MonomialOrder, dominates, dominated_sub, semigroup_add, index_box
from .transform import Spectrum, point_power, power_matrix


class IdealError(ValueError):
    pass


class Polynomial:
    """N-variable polynomial as exponent-tuple -> coefficient-code map."""

    def __init__(self, field, ndim, terms=None):
        self.field = field
        self.ndim = ndim
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c != ZERO:
                    if len(e) != ndim:
                        raise IdealError("exponent %s has wrong arity" % (e,))
                    self.terms[tuple(e)] = c

    def is_zero(self):
        return not self.terms

    def coeff(self, e):
        return self.terms.get(tuple(e), ZERO)

    def add(self, other):
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(out.get(e, ZERO), c)
            if s == ZERO:
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(f, self.ndim, out)

    def neg(self):
        f = self.field
        return Polynomial(f, self.ndim, {e: f.neg(c) for e, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        f = self.field
        if c == ZERO:
            return Polynomial(f, self.ndim, {})
        return Polynomial(f, self.ndim, {e: f.mul(c, v) for e, v in self.terms.items()})

    def mul_term(self, e, c):
        """Multiply by c * x^e (plain exponent addition, no wrap)."""
        f = self.field
        out = {}
        for e2, c2 in self.terms.items():
            out[tuple(a + b for a, b in zip(e, e2))] = f.mul(c, c2)
        return Polynomial(f, self.ndim, out)

    def mul(self, other):
        acc = Polynomial(self.field, self.ndim, {})
        for e, c in other.terms.items():
            acc = acc.add(self.mul_term(e, c))
        return acc

    def eval(self, point):
        f = self.field
        acc = ZERO
        for e, c in self.terms.items():
            acc = f.add(acc, f.mul(c, point_power(f, point, e)))
        return acc

    def leading(self, order):
        if not self.terms:
            raise IdealError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def sorted_terms(self, order=None):
        if order is None:
            key = lambda e: (sum(e),) + tuple(reversed(e))
        else:
            key = order.key
        return [(e, self.terms[e]) for e in sorted(self.terms, key=key)]

    def text(self, order=None):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms(order):
            mono = "*".join(
                ("x%d" % (i + 1)) + ("" if k == 1 else "^%d" % k)
                for i, k in enumerate(e) if k != 0
            )
            parts.append("%d*%s" % (c, mono) if mono else "%d" % c)
        return " + ".join(parts)

    @classmethod
    def parse(cls, field, ndim, text):
        terms = {}
        body = text.strip()
        if body == "0":
            return cls(field, ndim, {})
        for part in body.split("+"):
            part = part.strip()
            if not part:
                continue
            factors = part.split("*")
            coeff = field.parse(factors[0])
            exps = [0] * ndim
            for fac in factors[1:]:
                fac = fac.strip()
                if not fac.startswith("x"):
                    raise IdealError("bad factor %r" % (fac,))
                if "^" in fac:
                    var, k = fac[1:].split("^")
                else:
                    var, k = fac[1:], "1"
                i = int(var) - 1
                if not 0 <= i < ndim:
                    raise IdealError("variable x%s out of range" % (var,))
                exps[i] += int(k)
            e = tuple(exps)
            if e in terms:
                raise IdealError("duplicate monomial %s" % (e,))
            if coeff != ZERO:
                terms[e] = coeff
        return cls(field, ndim, terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.field == other.field
                and self.terms == other.terms)

    def __repr__(self):
        return "Polynomial(%s)" % self.text()


class Eliminator:
    """Incremental Gaussian elimination over GF(q) on numpy exponent
    arrays, the linear algebra of Buchberger-Moeller.

    Vectors have ``length`` entries.  Each inserted vector is reduced
    against the kept rows in insertion order and, if independent of them,
    kept as a row normalized at its pivot (its first nonzero entry) with
    its expression over the tags of the kept rows.  A vector in work is
    the encoding array of [vector | -combination], so one pivot step
    subtracts c * [row | row combination] from every vector of a batch at
    once, c being each vector's entry at the pivot.  ``insert`` runs
    right-looking: the batch is first reduced by the rows kept before it,
    then each vector that stays independent becomes a row and is
    eliminated from the vectors after it.  In exact arithmetic these are
    the row operations of inserting one vector at a time, so each step
    knows its scalar count: 2 (nnz(row) + nnz(row combination)) per vector
    it hits, plus 1 + 2 nnz(combination) + length per kept vector.  The
    eliminator adds nothing to ``op_count``; it returns those counts, and
    a caller adds those of the vectors a scalar scan would have touched.

    A combination is returned as its tail: the exponents of -combination
    over ``tags``, the coefficients of the monic relation it expresses.
    """

    def __init__(self, field, length):
        self.field = field
        self.length = length
        self.tags = []  # tag of each kept row
        self.pivots = []  # pivot entry of each kept row
        self._ar = field.np_arith()
        # exponents of -[row | row combination], one line per kept row
        self._rows = np.empty((length, 2 * length), dtype=np.intp)
        self._weights = []  # scalar count of subtracting each row once

    def _work(self, vecs):
        vecs = np.asarray(vecs, dtype=np.intp).reshape(-1, self.length)
        x = np.zeros((len(vecs), 2 * self.length), dtype=self._ar.exp.dtype)
        x[:, :self.length] = self._ar.exp[vecs]
        return x

    def _step(self, j, x, ops):
        """Subtract c * row j from each vector of x, c its entry at the
        row's pivot, and add the scalar count of each to ``ops``."""
        f, ar = self.field, self._ar
        if not len(x):
            return
        cols = self.length + j + 1  # the row's combination covers tags 0..j
        c = f.np_log(x[:, self.pivots[j]])
        terms = ar.exp[c[:, None] + self._rows[j, :cols]]
        if f.p == 2:
            x[:, :cols] ^= terms
        else:
            # digit sums: a vector meets rows 0, 1, ... in turn, so it
            # holds at most j + 2 terms here
            x[:, :cols] += terms
            if (j + 1) % ar.chunk == 0:
                x[:] = ar.exp[f.np_log(x)]
        ops += self._weights[j] * (c != ar.zero)

    def reduce(self, vecs):
        """Reduce each vector (a row of the exponent array ``vecs``) by the
        kept rows.  Returns the residuals and the tails as exponent arrays
        and the scalar count of each reduction."""
        x = self._work(vecs)
        ops = np.zeros(len(x), dtype=np.int64)
        for j in range(len(self.pivots)):
            self._step(j, x, ops)
        e = self.field.np_log(x)
        return e[:, :self.length], e[:, self.length:self.length + len(self.pivots)], ops

    def insert(self, vecs, tags, prune=None):
        """Insert the vectors (rows of the exponent array ``vecs``) in order
        under their tags.  Returns a list with one (row, tail) pair per
        vector inserted, the tail None for a kept one, and the scalar
        count of the insertions.  ``prune``, called as prune(row, tail) at
        each dependent vector, returns a boolean mask over the rows of
        ``vecs`` marking later vectors not to insert."""
        f, ar = self.field, self._ar
        n, size = f.q - 1, self.length
        x = self._work(vecs)
        ops = np.zeros(len(x), dtype=np.int64)
        for j in range(len(self.pivots)):
            self._step(j, x, ops)
        rows = np.arange(len(x))
        out = []
        total = 0
        i = 0
        while i < len(x):
            e = f.np_log(x[i])
            live = e != ar.zero
            r = len(self.pivots)
            pivot = int(live[:size].argmax()) if size else 0
            if not size or not live[pivot]:
                tail = e[size:size + r]
                out.append((int(rows[i]), tail))
                if prune is not None:
                    keep = ~prune(int(rows[i]), tail)[rows]
                    keep[:i + 1] = True
                    if not keep.all():
                        x, ops, rows = x[keep], ops[keep], rows[keep]
            else:
                nnz, nnz_comb = np.count_nonzero(live), np.count_nonzero(live[size:])
                total += 1 + 2 * int(nnz_comb) + size
                self._weights.append(2 * (int(nnz) + 1))
                # scale by -1/pivot, with the row's own tag at coefficient one
                e[size + r], live[size + r] = 0, True
                self._rows[r] = np.where(live, (e + (ar.neg - e[pivot])) % n, ar.zero)
                self.pivots.append(pivot)
                self.tags.append(tags[rows[i]])
                out.append((int(rows[i]), None))
                self._step(r, x[i + 1:], ops[i + 1:])
            i += 1
        # every vector left in x was inserted
        return out, total + int(ops.sum())

    def terms(self, tail):
        """The nonzero entries of a tail as {tag: element code}."""
        return {t: x for t, x in zip(self.tags, tail.tolist()) if x != self._ar.zero}


def rows_independent(field, vecs):
    """Whether the rows of the exponent array ``vecs`` are linearly
    independent, by inserting them in order up to the first dependent one.
    Adds the insertion's count to ``op_count`` and returns (answer, number
    of rows inserted)."""
    n = len(vecs)
    done, ops = Eliminator(field, vecs.shape[1]).insert(
        vecs, range(n), lambda row, tail: np.ones(n, dtype=bool))
    field.op_count += ops
    return all(tail is None for _, tail in done), len(done)


@dataclass(frozen=True)
class DeltaSet:
    members: frozenset

    def __contains__(self, e):
        return tuple(e) in self.members

    def __len__(self):
        return len(self.members)

    def sorted(self, order):
        return sorted(self.members, key=order.key)

    def is_downward_closed(self):
        for d in self.members:
            for i, k in enumerate(d):
                if k > 0:
                    lower = d[:i] + (k - 1,) + d[i + 1:]
                    if lower not in self.members:
                        return False
        return True


class ReducedGroebnerBasis:
    """Basis {g^(w)}, each monic with tail supported on the delta set."""

    def __init__(self, field, ndim, order, elements, leading, delta):
        self.field = field
        self.ndim = ndim
        self.order = order
        self.elements = list(elements)
        self.leading = list(leading)
        self.delta = delta
        # tail term lists, used by the extension recurrence
        self._tails = [
            [(e, c) for e, c in g.terms.items() if e != aw]
            for g, aw in zip(self.elements, self.leading)
        ]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _level_leads(members, q, ndim):
    """Shift-register-style leading indices of the complement of a
    downward-closed delta set: recursing on the last coordinate, one lead
    per slice (the first gap of the slice), stopping at the first empty
    slice; slices full across {0..q-1} contribute nothing (the x_i^q
    generators cover them)."""
    if ndim == 1:
        c = 0
        while (c,) in members:
            c += 1
        return [(c,)] if c <= q - 1 else []
    out = []
    for t in range(q):
        slice_t = {a[:-1] for a in members if a[-1] == t}
        if not slice_t:
            out.append((0,) * (ndim - 1) + (t,))
            break
        out.extend(s + (t,) for s in _level_leads(slice_t, q, ndim - 1))
    return out


@lru_cache(maxsize=16)
def _scan_space(q, ndim, order_spec):
    """The box {0..q}^N that vanishing_gb scans, in increasing order, as
    tuples and as an integer array."""
    box = tuple(sorted(index_box(q, ndim, top=q), key=MonomialOrder(*order_spec).key))
    arr = index_array(box, ndim)
    arr.flags.writeable = False  # shared by every caller
    return box, arr


@lru_cache(maxsize=16)
def _sorted_space(q, ndim, order_spec):
    """A = {0..q-1}^N in increasing order: the scan box without the
    indices that carry a component q."""
    return tuple(a for a in _scan_space(q, ndim, order_spec)[0] if max(a) < q)


def index_array(indices, ndim):
    """Multi-indices or points (tuples of length ndim) as a 2-D integer
    array, one row each."""
    return np.array(indices, dtype=np.intp).reshape(len(indices), ndim)


def vanishing_gb(points, order):
    """Reduced basis of the vanishing ideal of a point set, plus its
    delta set.  ``points`` is a PointSet (or anything with .field, .ndim,
    .points).

    The scan finds the delta set and the minimal leads with their tails.
    The basis is the family check_set_basis builds for B = delta (per
    level and minimal leads) plus the minimal leads that carry a
    component q.

    The scan inserts the candidates of the box in batches of 2 |points|,
    skipping every candidate that dominates a minimal lead found before
    it, and counts exactly the candidates the scan inserts."""
    f = points.field
    ndim = points.ndim
    n = len(points.points)
    if n == 0:
        raise IdealError("empty point set has no vanishing-ideal basis")
    q = f.q
    per = (2 * ndim - 1) * n  # evaluating one monomial on the points
    box, arr = _scan_space(q, ndim, (order.kind, order.weights))
    w = index_array(points.points, ndim)
    elim = Eliminator(f, n)
    skipped = np.zeros(len(box), dtype=bool)
    delta = []
    scan_tails = {}  # per minimal lead, in increasing order
    pos = 0
    while pos < len(box):
        batch = pos + np.flatnonzero(~skipped[pos:])[:2 * n]
        if not batch.size:
            break
        pos = int(batch[-1]) + 1

        def prune(row, tail):
            skipped[:] |= (arr >= arr[batch[row]]).all(axis=1)
            return skipped[batch]

        done, ops = elim.insert(power_matrix(f, arr[batch], w),
                                [box[k] for k in batch], prune)
        f.op_count += len(done) * per + ops
        for row, tail in done:
            e = box[batch[row]]
            if tail is None:
                delta.append(e)
            else:
                scan_tails[e] = elim.terms(tail)

    if len(delta) != n:
        raise IdealError("delta set size %d != %d points (non-distinct points?)"
                         % (len(delta), n))
    # the minimal leads inside A are the corners of A \ delta, which
    # _check_set_leads finds in the same order; none of them dominates a
    # lead with a component q
    gb = _family(elim, w, order, frozenset(delta), scan_tails)
    return gb, gb.delta


@lru_cache(maxsize=64)
def _check_set_leads(q, ndim, order_spec, members):
    """The leading indices of check_set_basis for the check set
    ``members`` (a frozenset), in level order; no field operations."""
    emit = set(_level_leads(members, q, ndim))
    outside = [a for a in _sorted_space(q, ndim, order_spec) if a not in members]
    out = index_array(outside, ndim)
    # the minimal indices outside B, in increasing order: the order
    # extends dominance, so the first index dominating no earlier minimal
    # one is minimal
    live = np.ones(len(outside), dtype=bool)
    while live.any():
        k = int(live.argmax())
        live &= ~(out >= out[k]).all(axis=1)
        a = outside[k]
        if a not in emit and not any(dominates(a, e) for e in emit):
            emit.add(a)
    if not DeltaSet(members).is_downward_closed():
        # the corners alone can leave indices undetermined: every border
        # index x_i * b outside B leads an element too
        units = [tuple(int(j == i) for j in range(ndim)) for i in range(ndim)]
        emit.update(a for a in (semigroup_add(b, e, q) for b in members for e in units)
                    if a not in members)
    return tuple(sorted(emit, key=lambda a: tuple(reversed(a))))


def _family(elim, w, order, members, solved):
    """The recurrence family seeded on ``members`` that vanishes on the
    points ``w`` (one row each); ``elim`` holds the evaluation vectors of
    the seed indices as rows.  Its leads are those of check_set_basis plus
    the leads outside A among the tails already ``solved`` (lead ->
    terms).  The other leads are reduced in one batch, and each is
    counted in lead order as the scalar scan counts it."""
    f = elim.field
    ndim = w.shape[1]
    per = (2 * ndim - 1) * len(w)
    leads = sorted(_check_set_leads(f.q, ndim, (order.kind, order.weights), members)
                   + tuple(a for a in solved if f.q in a), key=lambda a: tuple(reversed(a)))
    rest = [a for a in leads if a not in solved]
    if rest:
        res, tails, ops = elim.reduce(power_matrix(f, index_array(rest, ndim), w))
        bad = (res != f.np_arith().zero).any(axis=1).tolist()
        fresh = dict(zip(rest, zip(bad, ops.tolist(), tails)))
    elements = []
    for a in leads:
        terms = solved.get(a)
        if terms is None:
            unsolvable, cost, tail = fresh[a]
            f.op_count += per + cost
            if unsolvable:
                raise IdealError(
                    "check-set system unsolvable on the points (ev not surjective)")
            terms = elim.terms(tail)
        f.op_count += len(terms)  # the negated combination
        elements.append(Polynomial(f, ndim, {a: ONE, **terms}))
    return ReducedGroebnerBasis(f, ndim, order, elements, leads, DeltaSet(members))


def check_set_basis(points, b_set, order):
    """Recurrence family seeded on a check set B: one monic element per
    needed leading index of A\\B (its corners, and when B is not closed
    under division also every border index x_i * b outside B), with tail
    supported on B, vanishing on the points.

    This is the basis that drives erasure-only decoding beyond the
    radius (and hence systematic encoding): the tail coefficients of
    each element are solved from the point-evaluation system, which is
    solvable for every lead exactly when ev restricted to (V_B, points)
    is surjective.  When the delta set of the points equals B it
    coincides with vanishing_gb on the leads inside A.  The returned
    object's delta set is B, the seed domain of the recurrences.  The
    leads depend on (q, N, order, B) alone and are cached.
    """
    f = points.field
    ndim = points.ndim
    n = len(points.points)
    if not n:
        raise IdealError("empty point set")
    q = f.q
    b_list = [tuple(b) for b in b_set]
    members = frozenset(b_list)
    for b in members:
        if len(b) != ndim or any(not 0 <= x < q for x in b):
            raise IdealError("check index %s outside A" % (b,))
    # tails use only the B columns independent of the earlier ones, so a
    # lead's solution is unique: the free-variables-zero one
    w = index_array(points.points, ndim)
    elim = Eliminator(f, n)
    _, ops = elim.insert(power_matrix(f, index_array(b_list, ndim), w), b_list)
    f.op_count += len(b_list) * (2 * ndim - 1) * n + ops
    return _family(elim, w, order, members, {})


def normal_form(poly, gb):
    """Remainder of the division algorithm by the basis; support lies in
    the delta set and poly - remainder is in the ideal."""
    f = gb.field
    order = gb.order
    work = Polynomial(f, gb.ndim, dict(poly.terms))
    remainder = {}
    while work.terms:
        lt = work.leading(order)
        c = work.terms[lt]
        hit = next((w for w, aw in enumerate(gb.leading) if dominates(lt, aw)), None)
        if hit is None:
            remainder[lt] = c
            del work.terms[lt]
            continue
        shift = dominated_sub(lt, gb.leading[hit])
        work = work.sub(gb.elements[hit].mul_term(shift, c))
    return Polynomial(f, gb.ndim, remainder)


def _is_sequential(gb):
    """True when every tail monomial precedes its element's lead in the
    order, so the recurrences close over the already-generated prefix."""
    cached = getattr(gb, "_sequential", None)
    if cached is None:
        key = gb.order.key
        cached = all(
            all(key(e) < key(aw) for e, _ in tail)
            for tail, aw in zip(gb._tails, gb.leading)
        )
        gb._sequential = cached
    return cached


# extension plans kept at once, one per basis shape (see _extension_plan)
PLAN_CACHE_SIZE = 256


@dataclass(frozen=True, eq=False)
class _Plan:
    """The schedule of one extension over flat integer slots, one slot
    per index of the swept part of A: the first ``size`` indices of
    ``indices``, all of A in increasing order and shared by every plan
    of the same q, N and order.

    The checks are packed: check k applies element ``check_elems[k]``
    with the lead at slot ``check_slots[k, 0]`` and the coefficients at
    the slots that follow, padded with slot ``size``, which holds zero;
    ``check_uses[w]`` counts the checks of element w."""

    indices: tuple
    size: int
    seeds: tuple  # (seed index, slot)
    exps: tuple  # per basis element, the exponents its coefficients are read at
    program: tuple  # (slot, element, reference slots), in evaluation order
    check_elems: np.ndarray
    check_slots: np.ndarray
    check_uses: tuple
    output_slots: tuple  # the slot of each target index


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _extension_plan(q, ndim, order_spec, leads, seeds, target, sequential, tails):
    """Build the plan of a basis shape; no field operations.

    ``tails`` holds per element the tail exponents the schedule reads
    besides the aligned ones: a sequential family reads every element at
    the seed exponents preceding its lead, plus its tail exponents
    outside the seed set; a worklist family reads its exact tails."""
    order = MonomialOrder(*order_spec)
    key = order.key
    for t in target:
        if len(t) != ndim or any(not 0 <= x < q for x in t):
            raise IdealError("target index %s outside A" % (t,))
    admissible = [w for w, aw in enumerate(leads) if all(x < q for x in aw)]
    space = box = _sorted_space(q, ndim, order_spec)
    if sequential:
        # the prefix of A up to the order-maximum of the target
        top = key(max(target, key=key))
        space = space[:sum(1 for a in space if key(a) <= top)]
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
        # one increasing sweep: the first recurrence sets the value, the
        # others must agree with it
        program = [(slot[a],) + r[0] for a, r in recs.items()]
        checks = [(slot[a],) + rec for a, r in recs.items() for rec in r[1:]]
    else:
        # worklist passes: each index takes its first recurrence whose
        # references are known; every recurrence is verified at the end
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
    width = 1 + max(map(len, exps), default=0)
    check_slots = np.full((len(checks), width), len(space), dtype=np.intp)
    for row, (s, _, refs) in zip(check_slots, checks):
        row[:1 + len(refs)] = (s,) + refs
    elems = np.array([w for _, w, _ in checks], dtype=np.intp)
    return _Plan(
        indices=box,
        size=len(space),
        seeds=tuple((d, slot[d]) for d in seeds if d in slot),
        exps=exps,
        program=tuple(program),
        check_elems=elems,
        check_slots=check_slots,
        check_uses=tuple(np.bincount(elems, minlength=len(leads)).tolist()),
        output_slots=tuple(slot[t] for t in target),
    )


def _run_plan(plan, gb, seed_values):
    """Fill the plan's slots from the seed values and the basis
    coefficients with a scalar sweep, where zero coefficients cost no
    field operations, then run every check as one numpy product, counted
    as the scalar recurrences it stands for."""
    f = gb.field
    add, mul, neg = f.add, f.mul, f.neg
    coeffs = [[g.terms.get(d, ZERO) for d in exps]
              for g, exps in zip(gb.elements, plan.exps)]
    vals = [ZERO] * plan.size
    for d, s in plan.seeds:
        vals[s] = seed_values[d]

    for s, w, refs in plan.program:
        acc = ZERO
        for c, r in zip(coeffs[w], refs):
            if c != ZERO:
                acc = add(acc, mul(c, vals[r]))
        vals[s] = neg(acc)

    if len(plan.check_elems):
        # lead coefficient one, then the tail, padded with zero
        width = plan.check_slots.shape[1]
        rows = [[ONE] + cw + [ZERO] * (width - 1 - len(cw)) for cw in coeffs]
        cmat = f.np_exponents(np.array(rows, dtype=np.intp))
        x = f.np_exponents(np.array(vals + [ZERO], dtype=np.intp))
        f.op_count += sum(u * (2 * (len(cw) - cw.count(ZERO)) + 1)
                          for u, cw in zip(plan.check_uses, coeffs))
        bad = f.np_dot(cmat[plan.check_elems], x[plan.check_slots]) != f.np_arith().zero
        if bad.any():
            s = plan.check_slots[bad.argmax(), 0]
            raise IdealError("inconsistent recurrences at %s (corrupt basis)"
                             % (plan.indices[s],))
    return vals


def extend(h, gb, target):
    """LFSR prolongation of a seed spectrum along the basis recurrences.

    For a outside the seed set, every basis element whose leading index
    is dominated by a yields h_a = -sum_d g_d h_{(a - a_w) (+) d} with
    semigroup addition; all admissible elements are evaluated and must
    agree.  For bases whose tails precede their leads (vanishing-ideal
    bases) the values are generated in one increasing-order sweep of the
    prefix of A covering the target; check-set-seeded families may
    reference forward indices, so they are generated over all of A in
    worklist passes and every admissible recurrence is verified at the
    end.  The schedule comes from the plan of the basis shape, built once
    and cached; only the coefficients and seed values are read per call.
    """
    dset = gb.delta.members
    if h.domain() != set(dset):
        raise IdealError("seed spectrum domain does not match the basis seed set")
    target = tuple(tuple(t) for t in target)
    if not target:
        return Spectrum(gb.field, gb.ndim, dict(h.values))
    sequential = _is_sequential(gb)
    tails = tuple(tuple(sorted(e for e, _ in tail if not (sequential and e in dset)))
                  for tail in gb._tails)
    plan = _extension_plan(gb.field.q, gb.ndim, (gb.order.kind, gb.order.weights),
                           tuple(gb.leading), dset, target, sequential, tails)
    vals = _run_plan(plan, gb, h.values)
    out = dict(h.values)
    out.update(zip(target, map(vals.__getitem__, plan.output_slots)))
    return Spectrum(gb.field, gb.ndim, out)
