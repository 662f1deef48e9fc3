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
as point_power).  Reduction by a fixed eliminator is linear, so
``Eliminator.insert_compiled`` reads it off the unit vectors, reduced
alongside the insertion, as one matrix (CompiledReduction, the
decoder's erasure projection), which reduces at the same count.  What
does not depend on the points is cached: the sorted scan box per
(q, N, order), and the leads per (q, N, seed set).

Both bases are one recurrence family, built by one routine: seeded on a
set S of indices, it has one monic element with tail on S per
last-coordinate level of the staircase of S (the shape shift-register
synthesis produces, which may include order-redundant elements such as
y*g over a two-point set); every minimal index outside S is one of these
leads or dominates one.  vanishing_gb seeds it on the delta set its scan
finds and adds the x_i^q-carrying minimal generators; check_set_basis
seeds it on a check set B.  ``lemma_family`` picks the one the lemma
extends with on a point set (decoder.systematic_basis).

The extension (``extend``) is split in two.  A plan, built from a
basis by its first extension and kept on it, lists over one flat integer
slot per index of A the seed slots, the recurrences that set the other
indices and every other admissible recurrence as a check, each reading
its element at its exact sorted tail exponents.  Admissible recurrences
agree, so worklist passes over A set each index by its shortest register
whose references are known: the first in the order (tail terms, lead,
element index).  A family whose tails precede its leads (every
vanishing-ideal basis) settles in the first pass.  The recurrences that
set values are grouped by dependency level, each level reading only
seeds and earlier levels, and packed into integer arrays as the checks
are; the tail coefficients are read into the plan with them.  Per call,
one numpy product over the slots as an exponent array per level fills
the slots from the seed values, and one more runs the checks, on every
field.  Each recurrence is counted once: one mul and one add per tail
term and one neg.  A plan costs no field operations, so the counts of a
call do not depend on whether it built the plan.  ``_extension_array``
hands the extension over all of A to the inverse transform in flat
order; ``extend`` zips it into a dict.
"""

import numbers
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import ZERO, ONE
from .mindex import dominates, dominated_sub, semigroup_add, index_box
from .transform import (Spectrum, check_field, check_values, index_space, point_power,
                        power_matrix)


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

    def text(self, order=None):
        """The terms as text, in increasing ``order`` (grlex by default)."""
        if not self.terms:
            return "0"
        key = order.key if order is not None else lambda e: (sum(e),) + tuple(reversed(e))
        parts = []
        for e in sorted(self.terms, key=key):
            c = self.terms[e]
            mono = "*".join(
                ("x%d" % (i + 1)) + ("" if k == 1 else "^%d" % k)
                for i, k in enumerate(e) if k != 0
            )
            parts.append("%d*%s" % (c, mono) if mono else "%d" % c)
        return " + ".join(parts)

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
        row's pivot, and add the scalar count of each to ``ops``.  Returns
        the exponents c."""
        f, ar = self.field, self._ar
        if not len(x):
            return None
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
        return c

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
        return self._insert(vecs, tags, prune, False)[:2]

    def insert_compiled(self, vecs, tags):
        """``insert(vecs, tags)``, and the reduction by every row kept then
        compiled to one product (CompiledReduction) as a third value, not
        op-counted.  The ``length`` unit vectors ride along after the
        batch, so each kept row is subtracted from them in the same step
        as from the batch's later vectors."""
        return self._insert(vecs, tags, None, True)

    def _insert(self, vecs, tags, prune, compiled):
        f, ar = self.field, self._ar
        n, size = f.q - 1, self.length
        x = self._work(vecs)
        batch = len(x)  # the vectors to insert; the unit vectors follow
        if compiled:
            x = np.vstack([x, np.zeros((size, 2 * size), dtype=x.dtype)])
            np.fill_diagonal(x[batch:], ar.exp[0])
        ops = np.zeros(len(x), dtype=np.int64)
        coeffs = [self._step(j, x, ops) for j in range(len(self.pivots))]
        rows = np.arange(len(x))
        out = []
        total = 0
        i = 0
        while i < batch:
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
                        batch = len(x)
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
                coeffs.append(self._step(r, x[i + 1:], ops[i + 1:]))
            i += 1
        # every vector of the batch left in x was inserted
        count = total + int(ops[:batch].sum())
        if not compiled:
            return out, count, None
        r = len(self.pivots)
        matrix = np.empty((size + 2 * r, size), dtype=np.intp)
        matrix[:size + r] = f.np_log(x[batch:, :size + r]).T
        for j, c in enumerate(coeffs):
            matrix[size + r + j] = c[-size:]
        return out, count, CompiledReduction(f, size, tuple(self.pivots), matrix,
                                             np.array(self._weights, dtype=np.int64),
                                             ops[batch:])

    def terms(self, tail):
        """The nonzero entries of a tail as {tag: element code}."""
        return {t: x for t, x in zip(self.tags, tail.tolist()) if x != self._ar.zero}


class CompiledReduction:
    """Reduction by a fixed Eliminator with r kept rows, compiled.  The
    residual and the tail of a vector are linear in it, and so is the
    coefficient c_j that step j subtracts row j by: the vector's entry at
    the row's pivot when the step meets it.  So one reduction of the
    ``length`` unit vectors gives the read-only (length + 2r) x length
    exponent matrix ``matrix``, whose column b is unit vector b's
    residual, tail and coefficients stacked, and ``reduce`` is one
    product with it.  ``tails``, the read-only r x length view of its
    tail rows, takes a vector to its tail, minus its combination of the
    kept rows: when r = length, minus ``tails`` is the inverse of the
    matrix whose columns are the inserted vectors (a point set's
    systematic map, codes.PointSetEntry, and the generator,
    codes._generator).  ``unit_ops`` holds the scalar count of each unit
    vector's reduction, ``pivots`` the eliminator's pivots (its rank)."""

    def __init__(self, field, length, pivots, matrix, weights, unit_ops):
        self.field, self.length, self.pivots = field, length, pivots
        self.matrix, self.weights, self.unit_ops = matrix, weights, unit_ops
        matrix.flags.writeable = False
        self.tails = matrix[length:length + len(pivots)]

    def reduce(self, vecs):
        """Eliminator.reduce by one product: the residuals, the tails and the
        scalar count of each vector, which is the sequential one, the
        weights of the steps at its nonzero coefficients."""
        size, r = self.length, len(self.pivots)
        vecs = np.asarray(vecs, dtype=np.intp).reshape(-1, size)
        if not r:  # no kept row: each vector is its own residual
            return vecs.copy(), vecs[:, :0].copy(), np.zeros(len(vecs), dtype=np.int64)
        out = self.field.np_dot(self.matrix, vecs[:, None, :])
        live = out[:, size + r:] != self.field.np_arith().zero
        return out[:, :size], out[:, size:size + r], live @ self.weights


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
    """Basis {g^(w)}, each monic with tail supported on the delta set.
    Its extension plan, coefficients included, is built by its first
    extension (_extension_array) and kept, so a basis is read-only once
    extended, and one that is never extended builds none."""

    def __init__(self, field, ndim, order, elements, leading, delta):
        self.field = field
        self.ndim = ndim
        self.order = order
        self.elements = list(elements)
        self.leading = list(leading)
        self.delta = delta
        # tail term lists (nonzero terms), used by the extension recurrence
        self._tails = [
            [(e, c) for e, c in g.terms.items() if e != aw and c != ZERO]
            for g, aw in zip(self.elements, self.leading)
        ]
        self._plan = None
        self._lock = threading.Lock()

    def __len__(self):
        return len(self.elements)


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
def _scan_space(q, ndim, order):
    """The box {0..q}^N that vanishing_gb scans, in increasing order, as
    tuples and as an integer array."""
    box = tuple(sorted(index_box(q, ndim, top=q), key=order.key))
    arr = index_array(box, ndim)
    arr.flags.writeable = False  # shared by every caller
    return box, arr


@lru_cache(maxsize=16)
def _sorted_space(q, ndim, order):
    """A = {0..q-1}^N in increasing order: the scan box without the
    indices that carry a component q."""
    return tuple(a for a in _scan_space(q, ndim, order)[0] if max(a) < q)


def index_array(indices, ndim):
    """Multi-indices or points (tuples of length ndim) as a 2-D integer
    array, one row each."""
    return np.array(indices, dtype=np.intp).reshape(len(indices), ndim)


def vanishing_gb(points, order):
    """Reduced basis of the vanishing ideal of a point set, plus its
    delta set.  ``points`` is a PointSet (or anything with .field, .ndim,
    .points).

    The scan finds the delta set and the minimal leads with their tails.
    The basis is the family check_set_basis builds for B = delta (its
    level leads) plus the minimal leads that carry a component q.

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
    box, arr = _scan_space(q, ndim, order)
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
    # the minimal leads inside A are the corners of A \ delta, which are
    # level leads of delta (delta is closed); none of them dominates a
    # lead with a component q
    gb = _family(elim, w, order, frozenset(delta), scan_tails)
    return gb, gb.delta


@lru_cache(maxsize=64)
def _check_set_leads(q, ndim, members):
    """The leading indices of check_set_basis for the check set
    ``members`` (a frozenset), in level order; no field operations.
    Every minimal index of A \\ B is a level lead or dominates one, so
    the level leads cover the corners."""
    emit = set(_level_leads(members, q, ndim))
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
    leads = sorted(_check_set_leads(f.q, ndim, members)
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
    needed leading index of A\\B (its level leads, which cover its
    corners, and when B is not closed under division also every border
    index x_i * b outside B), with tail supported on B, vanishing on the
    points.

    The lemma's path on a point set extends with this family when the
    delta set of the points leaves B (lemma_family): the tail coefficients
    of each element are solved from the point-evaluation system, which is
    solvable for every lead exactly when ev restricted to (V_B, points) is
    surjective.  When the delta set of the points equals B it coincides
    with vanishing_gb on the leads inside A.  The returned
    object's delta set is B, the seed domain of the recurrences.  The
    leads depend on (q, N, B) alone and are cached.
    """
    f = points.field
    ndim = points.ndim
    n = len(points.points)
    if not n:
        raise IdealError("empty point set")
    q = f.q
    b_list = [tuple(b) for b in b_set]
    members = frozenset(b_list)
    for b in members:  # a bool component is read as its int, as dft_partial reads it
        if len(b) != ndim or any(not isinstance(x, numbers.Integral) or not 0 <= x < q
                                 for x in b):
            raise IdealError("check index %s outside A" % (b,))
    # tails use only the B columns independent of the earlier ones, so a
    # lead's solution is unique: the free-variables-zero one
    w = index_array(points.points, ndim)
    elim = Eliminator(f, n)
    _, ops = elim.insert(power_matrix(f, index_array(b_list, ndim), w), b_list)
    f.op_count += len(b_list) * (2 * ndim - 1) * n + ops
    return _family(elim, w, order, members, {})


def lemma_family(points, b_set, order):
    """The recurrence family by which the lemma extends a syndrome on the
    check set B to the values at a point set: the reduced basis of the
    points' vanishing ideal when its delta set lies in B, else
    check_set_basis (IdealError where that is unsolvable)."""
    gb, delta = vanishing_gb(points, order)
    if delta.members <= frozenset(tuple(b) for b in b_set):
        return gb
    return check_set_basis(points, b_set, order)


def normal_form(poly, gb):
    """Remainder of the division algorithm by the basis; support lies in
    the delta set and poly - remainder is in the ideal.  Each step takes
    the leading term c x^a of the working terms and subtracts c x^(a - a_w)
    g_w for the first element whose lead a_w it dominates: g_w is monic,
    so the lead cancels, and its tail terms are updated in one
    Field.np_add.  Runs on the numpy layer, so it is not op-counted."""
    f = gb.field
    ar = f.np_arith()
    key = gb.order.key
    work = dict(poly.terms)  # nonzero codes, which are their exponents
    remainder = {}
    while work:
        lt = max(work, key=key)
        c = work.pop(lt)
        hit = next((w for w, aw in enumerate(gb.leading) if dominates(lt, aw)), None)
        if hit is None:
            remainder[lt] = c
            continue
        shift = dominated_sub(lt, gb.leading[hit])
        exps = [tuple(a + b for a, b in zip(shift, e)) for e, _ in gb._tails[hit]]
        # -c t reduced below q - 1 (np_add reads 2(q - 1) and up as zero)
        minus = [(c + t + ar.neg) % (f.q - 1) for _, t in gb._tails[hit]]
        old = [work.pop(e, ar.zero) for e in exps]
        work.update((e, v) for e, v in zip(exps, f.np_add(old, minus).tolist()) if v != ar.zero)
    return Polynomial(f, gb.ndim, remainder)


@dataclass(frozen=True, eq=False)
class StaircaseStep:
    """What the decoder's Feng-Rao staircase reads when eta is the first
    unknown syndrome and prev the one before it (0 at the first), on the
    block of the first m = min(n, eta + 1) delta monomials; read-only.
    A pair is known when every pair of its box leads below eta, so the
    known pairs of row i are its first ``width[i]`` and those known at
    prev its first ``old[i]``.  The pairs known since prev are
    (``new_i``, ``new_j``) with slots ``new_slots``; ``need`` lists the
    slots of the forms none of the pairs known at prev has, with their
    first m coefficients (``need_forms``, whose leads are below eta) and
    the scalar count of their syndrome sums (``need_ops``).  The
    well-behaving pairs leading at eta, the voters, are (``vote_i``,
    ``vote_j``), with their forms below eta (``vote_forms``), each one's
    count of its sum (``vote_ops``) and its coefficient at eta
    (``vote_coef``).  ``slots`` bounds every slot named."""

    m: int
    width: np.ndarray
    old: np.ndarray
    new_i: np.ndarray
    new_j: np.ndarray
    new_slots: np.ndarray
    need: np.ndarray
    need_forms: np.ndarray
    need_ops: int
    vote_i: np.ndarray
    vote_j: np.ndarray
    vote_forms: np.ndarray
    vote_ops: np.ndarray
    vote_coef: np.ndarray
    slots: int


class SumForms:
    """Normal forms mod I(Psi) of the products of pairs (i, j) of delta
    monomials (in increasing order), memoized per semigroup sum, computed
    for the pairs asked for: the coefficient exponents over the delta set
    of normal_form(x^sum, gb), by division on the code's basis ``gb``, and
    the lead position (-1 for zero).  The decoder's schedule per first
    unknown syndrome (``step``) is compiled from them once and kept.  Not
    op-counted: they belong to the code, like its evaluation columns."""

    def __init__(self, gb):
        self.gb = gb
        self.delta = gb.delta.sorted(gb.order)
        self.position = {d: k for k, d in enumerate(self.delta)}
        # the forms and leads filled so far: views of buffers that double
        # when they fill up
        self._buf = (np.empty((0, len(self.delta)), dtype=np.intp), np.empty(0, dtype=np.intp))
        self.forms, self.leads = self._buf
        self._slot = {}
        self._block = (np.empty((0, 0), dtype=np.intp),) * 4
        self._steps = {}  # (prev, eta) -> StaircaseStep
        self._lock = threading.Lock()

    def block(self, m):
        """(slots into forms and leads, leads, box maxima, well-behaving
        mask) of the pairs of the first m monomials.  The box of (i, j)
        holds the (i', j') with i' <= i, j' <= j; a pair is well-behaving
        when its lead tops those of the rest of its box."""
        with self._lock:
            if m > len(self._block[0]):
                self._grow(m)
            return tuple(a[:m, :m] for a in self._block)

    def step(self, eta, prev):
        """The StaircaseStep of first unknown syndrome eta after prev,
        compiled on first use and kept."""
        with self._lock:
            step = self._steps.get((prev, eta))
            if step is None:
                step = self._steps[prev, eta] = self._compile(eta, prev)
            return step

    def _compile(self, eta, prev):
        m = min(len(self.delta), eta + 1)
        if m > len(self._block[0]):
            self._grow(m)
        zero = self.gb.field.np_arith().zero
        pairs, lead, box, good = (a[:m, :m] for a in self._block)
        new_i, new_j = np.nonzero((box < eta) & (box >= prev))
        new_slots = pairs[new_i, new_j]
        need = np.setdiff1d(new_slots, pairs[box < prev])
        need_forms = self.forms[need, :m]
        live = need_forms != zero
        # np_dot's scalar count per form: a mul per term, an add between
        need_ops = 2 * int(live.sum()) - int(live.any(axis=1).sum())
        vote_i, vote_j = np.nonzero(good & (lead == eta))
        at = self.forms[pairs[vote_i, vote_j], :eta + 1]
        live = at[:, :eta] != zero
        step = StaircaseStep(
            m=m, width=(box < eta).sum(axis=1), old=(box < prev).sum(axis=1),
            new_i=new_i, new_j=new_j, new_slots=new_slots, need=need, need_forms=need_forms,
            need_ops=need_ops, vote_i=vote_i, vote_j=vote_j, vote_forms=at[:, :eta],
            vote_ops=2 * live.sum(axis=1) - live.any(axis=1), vote_coef=at[:, -1],
            slots=len(self.leads))
        for a in vars(step).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return step

    def _grow(self, m):
        gb, f = self.gb, self.gb.field
        e = index_array(self.delta[:m], gb.ndim)
        s = e[:, None] + e[None, :]
        s = np.where(s == 0, 0, (s - 1) % (f.q - 1) + 1)  # x^q = x on GF(q)
        uniq, inv = np.unique(s.reshape(m * m, -1), axis=0, return_inverse=True)
        keys = list(map(tuple, uniq.tolist()))
        new = [key for key in keys if key not in self._slot]
        if new:
            forms = np.full((len(new), len(self.delta)), f.np_arith().zero, dtype=np.intp)
            leads = np.full(len(new), -1, dtype=np.intp)
            for k, key in enumerate(new):
                terms = normal_form(Polynomial(f, gb.ndim, {key: ONE}), gb).terms
                at = [self.position[d] for d in terms]
                forms[k, at] = list(terms.values())
                leads[k] = max(at, default=-1)
            size, end = len(self.leads), len(self.leads) + len(new)
            self._slot.update((key, size + k) for k, key in enumerate(new))
            if end > len(self._buf[1]):
                grow = max(len(self._buf[1]), len(new))  # at least double
                self._buf = tuple(np.concatenate([b, np.empty_like(b, shape=(grow,) + b.shape[1:])])
                                  for b in self._buf)
            self._buf[0][size:end], self._buf[1][size:end] = forms, leads
            self.forms, self.leads = self._buf[0][:end], self._buf[1][:end]
        pairs = np.array([self._slot[key] for key in keys])[inv.ravel()].reshape(m, m)
        lead = self.leads[pairs]
        box = np.maximum.accumulate(np.maximum.accumulate(lead, axis=0), axis=1)
        rest = np.full_like(box, -1)
        rest[1:] = box[:-1]
        rest[:, 1:] = np.maximum(rest[:, 1:], box[:, :-1])
        self._block = (pairs, lead, box, lead > rest)


@dataclass(frozen=True, eq=False)
class _Plan:
    """The extension of one basis over all of A, scheduled over flat
    integer slots: one slot per index of A in increasing order
    (``indices``, shared by every plan of the same q, N and order), then
    a pad slot that holds zero.

    Recurrences are packed: one applies element ``elems[k]`` with the
    lead at slot ``slots[k, 0]`` and the coefficients at the slots that
    follow, padded with the pad slot.  ``levels`` packs the recurrences
    that set the values, one (elems, slots) pair per dependency level,
    each reading only seeds and slots of earlier levels; ``check_elems``
    and ``check_slots`` pack the checks.  The basis's coefficients are
    read in with the schedule: row w of ``coeffs`` holds element w's
    lead coefficient one, then its tail coefficients at its sorted tail
    exponents, padded with zero, as exponents, and row w of ``minus``
    minus its tail.  ``ops`` is the count of one run, each recurrence
    counted once, and ``flat`` the slot of each index of A in the
    kernels' flat order."""

    field: object
    indices: tuple
    seeds: tuple  # (seed index, slot)
    levels: tuple  # (elements, slots) per dependency level, in order
    check_elems: np.ndarray
    check_slots: np.ndarray
    coeffs: np.ndarray
    minus: np.ndarray
    ops: int
    flat: np.ndarray


def _pack(recs, width, pad):
    """Recurrences (slot, element, reference slots) as an element array
    and a slot array of ``width`` columns, padded with ``pad``."""
    slots = [(s,) + refs + (pad,) * (width - 1 - len(refs)) for s, _, refs in recs]
    return (np.array([w for _, w, _ in recs], dtype=np.intp),
            np.array(slots, dtype=np.intp).reshape(len(recs), width))


def _extension_plan(gb):
    """Build the plan of a basis over all of A; no field operations.

    Each element's tail is read at its sorted tail exponents.  Worklist
    passes over A in increasing order set each index outside the seeds by
    the first of its admissible recurrences whose references are known,
    in the order (number of tail terms, lead, element index): the
    shortest register.  A family whose tails precede its leads settles in
    the first pass.  That choice fixes each index's dependency level:
    seeds are at level 0, any other index at 1 + the highest level of its
    references.  Every other recurrence is a check; the checks are listed
    by index in increasing order and, at an index, in that order, so a
    corrupt basis fails at the first of them that disagrees."""
    f, ndim, leads, key = gb.field, gb.ndim, gb.leading, gb.order.key
    q, seeds = f.q, gb.delta.members
    tails = [sorted(e for e, _ in tail) for tail in gb._tails]
    admissible = [w for w, aw in enumerate(leads) if all(x < q for x in aw)]
    space = _sorted_space(q, ndim, gb.order)
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

    known = {slot[d] for d in seeds}
    level = dict.fromkeys(known, 0)
    chosen = {}
    pending = list(recs)
    while pending:
        left = []
        for a in pending:
            rec = next((r for r in recs[a] if known.issuperset(r[1])), None)
            if rec is None:
                left.append(a)
            else:
                chosen[a] = rec
                known.add(slot[a])
                level[slot[a]] = 1 + max(map(level.get, rec[1]), default=0)
        if len(left) == len(pending):
            raise IdealError(
                "recurrence family is not sequentially computable (stuck on %d indices)"
                % len(left))
        pending = left
    swept = [[] for _ in range(max(level.values(), default=0))]
    for a, rec in chosen.items():
        swept[level[slot[a]] - 1].append((slot[a],) + rec)
    checks = [(slot[a],) + rec for a, r in recs.items() for rec in r if rec is not chosen[a]]
    width = 1 + max(map(len, tails), default=0)
    check_elems, check_slots = _pack(checks, width, len(space))
    # lead coefficient one, then the tail, padded with zero
    coeffs = f.np_exponents(np.array(
        [[ONE] + [g.terms[d] for d in tail] + [ZERO] * (width - 1 - len(tail))
         for g, tail in zip(gb.elements, tails)], dtype=np.intp))
    return _Plan(
        field=f,
        indices=space,
        seeds=tuple((d, slot[d]) for d in seeds),
        levels=tuple(_pack(recs_k, 1 + max(len(r[2]) for r in recs_k), len(space))
                     for recs_k in swept),
        check_elems=check_elems,
        check_slots=check_slots,
        coeffs=coeffs,
        minus=f.np_neg(coeffs[:, 1:]),  # h_lead = sum of -c_d h_d
        ops=sum(2 * len(tails[w]) + 1 for r in recs.values() for w, _ in r),
        flat=np.array([slot[a] for a in index_space(f, ndim)], dtype=np.intp),
    )


def _run_plan(plan, seed_values):
    """Fill the plan's slots from the seed values, one numpy product with
    the tail coefficients per dependency level, then run every check as
    one more, over the slots as an exponent array; returns the values of
    A in flat order.  The count is added once, as the scalar recurrences
    the levels and the checks stand for: one mul and one add per tail
    term and one neg per recurrence."""
    f = plan.field
    f.op_count += plan.ops
    x = np.full(len(plan.indices) + 1, f.np_arith().zero, dtype=np.intp)
    x[[s for _, s in plan.seeds]] = f.np_exponents(
        np.array([seed_values[d] for d, _ in plan.seeds], dtype=np.intp))
    for elems, slots in plan.levels:
        x[slots[:, 0]] = f.np_dot(plan.minus[elems, :slots.shape[1] - 1], x[slots[:, 1:]])
    if len(plan.check_elems):
        bad = f.np_dot(plan.coeffs[plan.check_elems], x[plan.check_slots]) != f.np_arith().zero
        if bad.any():
            s = plan.check_slots[bad.argmax(), 0]
            raise IdealError("inconsistent recurrences at %s (corrupt basis)"
                             % (plan.indices[s],))
    return x[plan.flat]


def _extension_array(h, gb):
    """Check the seed spectrum and run the plan of the basis, which its
    first extension builds and keeps: the extension of h over all of A as
    an exponent array in the flat order of the transform kernels (first
    component fastest, as index_space), the hand-off to the inverse
    transform, with no dict built and no value checked again."""
    check_field(h, Spectrum, gb, "seed spectrum", "basis", IdealError)
    if h.domain() != set(gb.delta.members):
        raise IdealError("seed spectrum domain does not match the basis seed set")
    check_values(h, "seed spectrum")
    with gb._lock:
        if gb._plan is None:
            gb._plan = _extension_plan(gb)
    return _run_plan(gb._plan, h.values)


def extend(h, gb):
    """LFSR prolongation of a seed spectrum along the basis recurrences,
    over all of A.

    For a outside the seed set, every basis element whose leading index
    is dominated by a yields h_a = -sum_d g_d h_{(a - a_w) (+) d} with
    semigroup addition; all admissible elements are evaluated and must
    agree.  Each index is set by the shortest register (fewest tail
    terms, then smaller lead, then smaller element index) whose
    references the plan's worklist passes know, one dependency level per
    numpy product, and every other admissible recurrence is checked at
    the end; a family whose tails precede its leads (every
    vanishing-ideal basis) settles in the first pass.  The schedule and
    the coefficients are read into the basis's plan on its first
    extension; only the seed values are read per call.
    A seed over another field or on a domain other than the basis seed
    set raises IdealError, a disagreement IdealError naming the index of
    the first failing check, and a seed value that is no element code
    FieldError.
    """
    f = gb.field
    return Spectrum(f, gb.ndim, dict(zip(index_space(f, gb.ndim),
                                         f.np_codes(_extension_array(h, gb)))))
