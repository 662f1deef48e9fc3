"""Erasure-and-error decoding and DFT systematic encoding for dual affine
variety codes, plus per-step field-operation accounting.

Each decode call returns its own report (``StepCounts``): the field
operations of every named step, their wall times in milliseconds (``ms``,
same labels), and meta data on the code and the locator
(``point_sets_reused``: the call built no point-set store entry).
``decode_word`` runs ``transform`` (the received word's transform),
``locator``, ``subtract`` and ``check`` and carries the report in
``DecodeResult.report``; ``decode_info`` runs ``transform``, ``locator``,
``spectrum`` (the error values' transform to the delta set) and
``subtract`` and returns an ``InfoSpectrum``, a Spectrum with a
``report`` field.  The error values come with the locator, so no decode
extends or runs an IDFT; ``decode_word`` checks its word by the error's
syndrome, by linearity.  Systematic encoding is erasure-only decoding:
the values on the redundant set are one product of the syndrome with the
tail rows of the erasure projection the locator reduces by (the set's
one store entry, codes.PointSetEntry), and are checked the same way.

On a fixed code and erasure set each of these steps up to the error
values is a fixed linear map, read off a matrix built once: every
transform, on B or D, is one product with the code's exponent rows
(codes.CodeSpec.transform_at), and the erasure projection and the stop
rule's span test are one product with Phi1's compiled reduction
(ideal.CompiledReduction).  Each counts what the sequential computation
counts: transform.dft_partial's |indices| |points| (2N + 1), and per
reduced vector the weights of the elimination steps it meets.  From the
input word to the output word these paths hold exponent arrays: the
input's values are converted once, the checks compare arrays, and the
only dicts built on the way are the syndrome handed to ``locate``, a
public name, and the output.  The subtractions and negations made on
arrays count one operation per entry, as the scalar calls did.

The locator finds the errors off the erasures Phi1 by Feng-Rao majority
voting, the erasures entering through erasure rows (Sakata, Leonard,
Jensen and Hoeholdt 1998).  A syndrome projected to zero off the columns
of Phi1 locates Phi1 alone.  Otherwise the known staircase of the
syndrome matrix M[g, b] = sum_p e_p R_g(p) p^b is eliminated: rows
R_g = x^g + tail vanishing on Phi1 (eliminated on the code's E_D,
codes.CodeSpec.d_rows) for g in the delta set outside Delta(Phi1),
columns b in the delta set, entries through the normal forms of x^(g+b)
(ideal.SumForms), known while every pair of the box leads below eta,
the first unknown syndrome; more than t_max pivots is undecodable.
The common zeros Z off Phi1 of the pivot-free rows covering every pivot
column are accepted when |Z| is the pivot count and the syndrome lies in
the span of the columns of Phi1 and Z.  Otherwise the well-behaving pairs
at eta free of pivots to their left and above vote on the syndrome at
eta.  Inside the Feng-Rao radius the majority is always right and Z is
the error support; beyond it a decode returns a checked word or raises
UndecodableError.  The projection and the span test leave the syndrome's
combination of the columns of Phi1 and Z as tails, which are minus the
error values.  The numpy steps count the scalar operations they stand
for, each once.  Each vote fills the next index outside B, so the etas
a locate meets are the code's own: what a step reads of the code at eta
(the known widths, the new entries and their forms, the voters) is
compiled once per code and eta (ideal.SumForms.step), and a locate
works on a store the size of the block, a fixed few array calls per
step, pivot and vote.
"""

import numbers
import time
from dataclasses import dataclass

import numpy as np

from .gf import ZERO
from .transform import Spectrum, Word, check_field, check_values, _element_array
from .maps import PointSet
from .ideal import IdealError, Eliminator, lemma_family


class UndecodableError(Exception):
    pass


class SystematicSupportError(Exception):
    pass


@dataclass
class StepCounts:
    """Field operations per named step of one decode call, with meta data,
    and the wall time of each step in milliseconds (``ms``, same labels)."""

    steps: dict
    meta: dict
    ms: dict

    @property
    def total(self):
        return sum(self.steps.values())

    def lines(self):
        out = ["%-9s %10d" % (k, v) for k, v in self.steps.items()]
        out.append("%-9s %10d" % ("total", self.total))
        return out


@dataclass
class DecodeResult:
    codeword: Word
    error: Word
    located: PointSet
    report: StepCounts


@dataclass
class InfoSpectrum(Spectrum):
    """The information spectrum returned by ``decode_info``, with the
    call's report."""

    report: StepCounts


class _Meter:
    def __init__(self, field):
        self.field = field
        self.steps = {}
        self.ms = {}
        self.mark = field.op_count
        self.clock = time.perf_counter()

    def lap(self, label):
        now, clock = self.field.op_count, time.perf_counter()
        self.steps[label] = self.steps.get(label, 0) + (now - self.mark)
        self.ms[label] = self.ms.get(label, 0.0) + (clock - self.clock) * 1e3
        self.mark, self.clock = now, clock


def default_t_max(code, phi1_size):
    return max(0, (code.d_fr - 1 - phi1_size) // 2)


# -- the locator -------------------------------------------------------------

@dataclass(eq=False)
class LocateResult:
    """What ``locate`` returns: ``located``, the located point set in the
    code's point order, and ``rows``, its increasing point rows;
    ``values``, the error values on its points as exponents, None when
    their check columns are dependent; ``stats``, the
    errors located off Phi1 (t), the syndromes filled by majority (votes),
    the pivot count (rank) and the staircase block's rows and cols;
    ``built``, whether the call built Phi1's store entry."""

    located: PointSet
    rows: tuple
    values: np.ndarray
    stats: dict
    built: bool


def _span(f, vecs):
    """The insertion of the rows of the exponent array ``vecs`` in order
    into a fresh Eliminator of their length, right-looking on one array
    of [vector | -combination] exponents: whether every row but the last
    was kept, the last one's tail over the kept rows (None when it was
    kept), and Eliminator.insert's scalar count, read off the terms of
    each kept row and the coefficients each step met."""
    ar = f.np_arith()
    k, size = vecs.shape
    x = np.full((k, size + k), ar.zero, dtype=np.intp)
    x[:, :size] = vecs
    terms = np.zeros((k, size + k), dtype=bool)  # each kept row's, before its tag
    coeffs = np.full((k, k), ar.zero, dtype=np.intp)  # step j's in column j
    kept = 0
    for i in range(k):
        e = x[i]
        live = e != ar.zero
        pivot = live[:size].argmax()
        if not live[pivot]:
            continue
        terms[i] = live
        # scale by -1/pivot, with the row's own tag at coefficient one
        e[size + kept], live[size + kept] = 0, True
        row = (e + (ar.neg - e[pivot])) % (f.q - 1)
        row[~live] = ar.zero
        kept += 1
        if i + 1 < k:
            c = coeffs[i + 1:, i] = x[i + 1:, pivot]
            x[i + 1:] = f.np_add(x[i + 1:], c[:, None] + row)
    # per kept row 1 + 2 nnz(combination) + length, and per vector a step
    # meets at a nonzero coefficient 2 (nnz(row) + 1)
    nnz, nnz_comb = np.add.reduce(terms, axis=1), np.add.reduce(terms[:, size:], axis=1)
    hits = np.add.reduce(coeffs != ar.zero)
    ops = int(kept * (1 + size) + 2 * np.add.reduce(nnz_comb) + hits @ (2 * (nnz + 1)))
    last = x[k - 1]
    if (last[:size] != ar.zero).any():
        return kept == k, None, ops
    return kept == k - 1, last[size:size + kept], ops


class _Staircase:
    """Feng-Rao majority voting for one locate call, over the delta
    indices of ``code.d_sorted``, whose values at the points are the rows
    of ``code.d_rows``.  What depends only on the code and on eta, the
    first unknown syndrome, is read off its compiled schedule
    (ideal.SumForms.step).  The store ``st`` covers the block, growing by
    doubling: ``st[i, 1]`` (poly) is row i reduced by the pivot rows above
    it, a polynomial over the delta monomials (at first R_g);
    ``st[i, 0]`` (red) holds its known entries and ``st[i, 2]`` the
    syndrome sums of the known pairs of row i, the sums of their normal
    forms (``u`` per form slot)."""

    def __init__(self, code, target, erasures, phi1_rows, t_max):
        f = code.field
        self.f, self.ar, self.code, self.forms = f, f.np_arith(), code, code.sum_forms
        self.target, self.erasures, self.t_max = target, erasures, t_max
        n = self.n = code.n
        self.sval = np.full(n, self.ar.zero, dtype=np.intp)
        # the syndromes known and the pivot columns
        self.known, self.pivot_cols = np.zeros((2, n), dtype=bool)
        self.sval[code.d_check], self.known[code.d_check] = target, True
        # the rows R_g (g outside Delta(Phi1)), those without a pivot, and
        # the points off Phi1
        live = np.ones((3, n), dtype=bool)
        self.rows, self.free, self.off = live
        self.tags = self.tails = None
        if phi1_rows:
            # R_g = x^g + tail vanishes on Phi1: one insertion of the delta
            # monomials' values on Phi1 until the footprint is complete,
            # the rest reduced in one batch
            evals = code.d_rows[:, phi1_rows]
            ne = len(phi1_rows)
            elim = Eliminator(f, ne)
            done, ops = elim.insert(evals, range(n), lambda row, tail: np.full(
                n, len(elim.pivots) == ne))
            _, self.tails, more = elim.reduce(evals)
            f.op_count += ops + int(more[len(done):].sum())
            self.tags = np.array(elim.tags, dtype=np.intp)  # increasing
            live[:2, self.tags] = False
        self.off[list(phi1_rows)] = False
        self.n_off = n - len(phi1_rows)
        self.index = np.arange(n)
        self.st = np.empty((0, 3, 0), dtype=np.intp)
        self.u = np.empty(0, dtype=np.intp)
        self.pivots = []  # (column, row, -1 / pivot entry)
        self.last = 0  # the rightmost pivot column, 0 with none
        self.votes = 0
        self.tried = None

    def run(self):
        """The located positions off Phi1, their combination (``_located``)
        and the statistics."""
        prev = 0
        while True:
            eta = int(self.known.argmin())
            if self.known[eta]:
                eta = self.n
            s = self.forms.step(eta, prev)
            self._advance(s)
            found = self._located(s)
            if found is not None:
                z, comb = found
                return z, comb, {"t": len(z), "votes": self.votes, "rank": len(self.pivots),
                                 "rows": int(np.count_nonzero(self.rows[:s.m] & (s.width > 0))),
                                 "cols": int(s.width[0])}  # widths never grow downwards
            if eta == self.n:
                raise UndecodableError("no error support of size <= %d is consistent "
                                       "with the syndrome" % self.t_max)
            self._vote(eta, s)
            prev = eta

    def _fit(self, m):
        """Grow the store, which holds fewer than m rows and columns, to 2m
        (n at most), at least doubling; row g of the new poly is R_g, x^g
        plus its tail on the erasure tags below g."""
        size = self.st.shape[0]
        grown = min(self.n, 2 * m)
        st = np.full((grown, 3, grown), self.ar.zero, dtype=np.intp)
        st[:size, :, :size] = self.st
        g = self.index[size:grown]
        st[g, 1, g] = 0
        if self.tags is not None:
            below = np.searchsorted(self.tags, grown)
            st[size:, 1, self.tags[:below]] = self.tails[size:grown, :below]
        self.st = st

    def _advance(self, s):
        """Grow the staircase to the syndromes below eta; eliminate its new
        entries by the old pivots, in column order, then the new ones."""
        f, zero, m = self.f, self.ar.zero, s.m
        if m > self.st.shape[0]:
            self._fit(m)
        st = self.st
        red, sums = st[:, 0], st[:, 2]
        if s.slots > self.u.size:
            self.u = np.concatenate([self.u, np.empty(s.slots - self.u.size, dtype=np.intp)])
        self.u[s.need] = f.np_dot(s.need_forms, self.sval[:m])
        sums[s.new_i, s.new_j] = self.u[s.new_slots]
        # a row reaches a pair only through the known box of its own pair
        live = self.rows[s.new_i]
        ii, jj = s.new_i[live], s.new_j[live]
        poly = st[ii, 1, :m]
        red[ii, jj] = f.np_dot(poly, sums[:m, jj].T)
        # one dot per pair, over its row's terms (the diagonal one among them)
        ops = s.need_ops + 2 * np.count_nonzero(poly != zero) - ii.size
        known = (self.index[:m] < s.width[:, None]) & self.rows[:m, None]
        new = known & (self.index[:m] >= s.old[:, None])
        for col, p, scale in sorted(self.pivots):
            ops += self._eliminate(p, col, scale, new, s)
        search = known & self.free[:m, None]
        start = 0
        while True:
            nz = (red[start:m, :m] != zero) & search[start:]
            k = nz.argmax()
            if not nz.flat[k]:
                break
            if len(self.pivots) >= self.t_max:
                raise UndecodableError("more than t_max = %d pivots" % self.t_max)
            p, col = start + k // m, k % m
            scale = (self.ar.neg - red[p, col]) % (f.q - 1)
            self.pivots.append((col, p, scale))
            self.free[p] = False
            self.pivot_cols[col] = True
            if col > self.last:
                self.last = col
            ops += 1 + self._eliminate(p, col, scale, known, s)
            start = p + 1
        f.op_count += int(ops)

    def _eliminate(self, p, col, scale, cells, s):
        """Clear column col, with pivot row p, of the rows below p whose
        pair at col is among ``cells`` and nonzero, on the block's m
        columns of red and poly; the scalar count."""
        f, st, m = self.f, self.st, s.m
        at = st[p + 1:m, 0, col]
        rows = ((at != self.ar.zero) & cells[p + 1:, col]).nonzero()[0]
        if not rows.size:
            return 0
        coeff = (at[rows] + scale) % (f.q - 1)
        rows += p + 1
        st[rows, :2, :m] = f.np_add(st[rows, :2, :m], coeff[:, None, None] + st[p, :2, :m])
        return (rows.size * (1 + 2 * np.count_nonzero(st[p, 1, :m] != self.ar.zero) - 2 * col)
                + 2 * (np.add.reduce(s.width[rows]) - rows.size))

    def _located(self, s):
        """The stop rule: the candidate locator's zeros Z off Phi1 and the
        target's combination of the columns of Phi1 and Z as tails (None
        when the columns of Z are dependent), or None."""
        f, code, zero, m = self.f, self.code, self.ar.zero, s.m
        cand = (self.free[:m] & (s.width > self.last)).nonzero()[0]
        key = (cand.tobytes(), len(self.pivots))
        if not cand.size or key == self.tried:
            return None
        self.tried = key
        # the first polynomial on every point (those of Phi1 left out),
        # the others on its zeros
        poly = self.st[cand, 1, :m]
        z = ((f.np_dot(poly[0], code.d_rows[:m].T) == zero) & self.off).nonzero()[0]
        # one dot per point, over each polynomial's terms (the diagonal one
        # among them)
        dots = 2 * np.add.reduce(poly != zero, axis=1) - 1
        f.op_count += int(dots[0] * self.n_off + np.add.reduce(dots[1:]) * z.size)
        if cand.size > 1 and z.size:
            z = z[(f.np_dot(poly[1:, None, :], code.d_rows[:m, z].T[None]) == zero).all(axis=0)]
        if z.size != len(self.pivots):
            return None
        # the target is in the span of the columns of Phi1 and Z when its
        # residual off Phi1 is in the span of theirs
        res, tails, more = self.erasures.reduce(np.concatenate([code.columns[z],
                                                                self.target[None]]))
        independent, c_z, ops = _span(f, res)
        f.op_count += ops + int(np.add.reduce(more))
        if c_z is None:
            return None
        if not independent:
            return z, None
        # the target's tail c_Z over Z; over Phi1 its erasure tail plus
        # sum_z c_z times column z's: |Z| muls and |Z| adds per tail entry
        f.op_count += 2 * z.size * tails.shape[1]
        return z, np.concatenate([f.np_dot(tails.T, np.concatenate([c_z, [0]])), c_z])

    def _vote(self, eta, s):
        """Fill the syndrome at eta with the majority vote of the
        well-behaving pairs at eta free of pivots left and above."""
        f, zero, m = self.f, self.ar.zero, s.m
        sel = self.free[s.vote_i] & ~self.pivot_cols[s.vote_j]
        ii, jj = s.vote_i[sel], s.vote_j[sel]
        if not ii.size:
            raise UndecodableError("no pair votes at %s" % (self.code.d_sorted[eta],))
        # each pair's entry with the syndrome at eta left out, then reduced:
        # no two voters share a row or a column, and no voter's pair is
        # read by another's reduction
        sums = self.st[:, 2]
        sums[ii, jj] = f.np_dot(s.vote_forms[sel], self.sval[:eta])
        poly = self.st[ii, 1, :m]
        rest = f.np_dot(poly, sums[:m, jj].T)
        # the partial sum, the combination and a division per pair
        ops = np.add.reduce(s.vote_ops[sel]) + 2 * np.count_nonzero(poly != zero)
        # the vote: -rest / (the coefficient of the syndrome at eta)
        votes = (rest + self.ar.neg - s.vote_coef[sel]) % (f.q - 1)
        votes[rest == zero] = zero
        self.sval[eta], self.known[eta] = np.bincount(votes).argmax(), True
        self.votes += 1
        f.op_count += int(ops)


def locate(synd, phi1, code, t_max=None):
    """The error support of the B-indexed syndrome, by Feng-Rao majority
    voting, and the error values on it: a LocateResult (located point set
    Phi1 union Phi2 in the code's point order).  Raises UndecodableError
    at more than t_max pivots, when no pair votes, or when no support
    passes the stop rule once every syndrome is filled, and at a syndrome
    or erasure set over another field or a syndrome missing a check index;
    FieldError, naming the index, at a syndrome value that is no element
    code; ValueError at a t_max that is not a nonnegative integer (a bool
    or 2.5 included).  The erasure projection comes from Phi1's entry in
    the code's point-set store; the located set is not stored.  The values
    are minus the tails of the projection and the stop rule's span test,
    None where the located set's columns are dependent.
    The decode head calls this public name too, re-running the syndrome
    checks its transform has made (a few microseconds), so that a wrapper
    of ``decoder.locate`` sees every decode.
    """
    f = code.field
    if t_max is None:
        t_max = default_t_max(code, len(phi1))
    if isinstance(t_max, bool) or not isinstance(t_max, numbers.Integral) or t_max < 0:
        raise ValueError("t_max must be a nonnegative integer, not %r" % (t_max,))
    check_field(synd, Spectrum, code, "syndrome", "code", UndecodableError)
    check_field(phi1, PointSet, code, "erasure set", "code", UndecodableError)
    missing = [b for b in code.b_list if b not in synd.values]
    if missing:
        raise UndecodableError("syndrome is missing %d check indices" % len(missing))
    check_values(synd, "syndrome")
    target = f.np_exponents(np.array([synd.values[b] for b in code.b_list], dtype=np.intp))

    try:
        entry, built = code.point_set(phi1.points)
    except KeyError as exc:
        raise UndecodableError("erasure location %s is not a code point" % (exc.args[0],))
    # the erasure projection: only the target is reduced
    elim = entry.projection
    res, tails, reduce_ops = elim.reduce(target[None])
    f.op_count += int(reduce_ops[0])

    stats = {"t": 0, "votes": 0, "rank": 0, "rows": 0, "cols": 0}
    located, rows, comb = entry.points, entry.rows, tails[0]
    if (res != f.np_arith().zero).any():
        if not t_max:
            raise UndecodableError(
                "no error support of size <= 0 is consistent with the syndrome")
        z, comb, stats = _Staircase(code, target, elim, entry.rows, t_max).run()
        rows = entry.rows + tuple(z.tolist())
        order = sorted(range(len(rows)), key=rows.__getitem__)
        if comb is not None and len(comb) == len(rows):  # Phi1's rows, then Z's
            comb = comb[order]
        rows = tuple(sorted(rows))
        located = PointSet(f, code.ndim, tuple(code.psi.points[r] for r in rows))
    values = None
    if comb is not None and len(comb) == len(rows):  # tails skip dependent columns of Phi1
        f.op_count += len(rows)
        values = f.np_neg(comb)
    return LocateResult(located, rows, values, stats, built)


# -- the two decoding algorithms --------------------------------------------

def _decode_head(r, phi1, code, t_max, kind, onto):
    """The steps shared by both decoders: the transform of r on B or D
    (``onto``, CodeSpec.transform_at) and the locator, called on the
    syndrome as a Spectrum.  Returns (meter, report, the transform as an
    exponent array, LocateResult); UndecodableError when the located
    set's check columns are dependent, where it has no error values."""
    f = code.field
    check_field(r, Word, code, "received word", "code", UndecodableError)
    check_field(phi1, PointSet, code, "erasure set", "code", UndecodableError)
    if r.domain() != set(code.psi.points):  # the transform checks the values
        raise UndecodableError("received word is not indexed by the code's point set")
    meter = _Meter(f)
    x = _element_array(r, list(r.values.values()), "received word")
    rt = code.transform_at([code.point_row[p] for p in r.values], x, onto)
    # a bad value is reported before a bad erasure set; locate rejects an
    # erasure outside the code
    if len(phi1) == len(code.psi) and set(phi1.points) == set(code.psi.points):
        raise UndecodableError("every position erased, no information positions")
    meter.lap("transform")
    synd = rt if onto == "B" else rt[code.d_check]
    loc = locate(Spectrum(f, code.ndim, dict(zip(code.b_list, f.np_codes(synd)))), phi1, code,
                 t_max)
    meter.lap("locator")
    if loc.values is None:
        raise UndecodableError("locator delta escapes the check set and the check-set "
                               "system is unsolvable: the check columns of the %d "
                               "located points are dependent" % len(loc.located))
    report = StepCounts(meter.steps, {
        "kind": kind,
        "code": code.name or repr(code),
        "q": f.q,
        "N": code.ndim,
        "n": code.n,
        "located": len(loc.located),
        "locator": loc.stats,
        "point_sets_reused": not loc.built,
    }, meter.ms)
    return meter, report, rt, loc


def decode_info(r, phi1, code, t_max=None):
    """Recover the information spectrum on D\\B from a received word
    (non-systematic decoding).  Erased positions of r may hold any value:
    the locator takes them as unknown error values.  The error spectrum on
    D is the transform of the locator's error values on the located set L,
    |D| |L| terms (the ``spectrum`` step), subtracted from the received
    word's, |D| subtractions.
    Returns an InfoSpectrum, whose ``report`` holds the call's counts."""
    f = code.field
    meter, report, rt, loc = _decode_head(r, phi1, code, t_max, "decode_info", "D")
    k = code.transform_at(loc.rows, loc.values, "D")
    meter.lap("spectrum")
    f.op_count += len(rt)
    out = f.np_add(rt, f.np_neg(k))
    meter.lap("subtract")
    bad = (out != f.np_arith().zero) & code.d_check
    if bad.any():
        raise UndecodableError("recovered spectrum has support at check index %s"
                               % (code.d_sorted[int(bad.argmax())],))
    return InfoSpectrum(f, code.ndim, dict(zip(code.d_info, f.np_codes(out[~code.d_check]))),
                        report)


def decode_word(r, phi1, code, t_max=None):
    """Split a received word into codeword + error (erasure-and-error
    decoding with explicit error values).  The error values on the located
    set L come with the locator (LocateResult), so no extension or IDFT
    runs; UndecodableError when the located set's check columns are
    dependent.  The codeword is r minus the error, which vanishes off L:
    n subtractions, |L| of them made.  It is checked by linearity: its
    syndrome is the received word's, already computed on B, minus the
    error's, the check columns of L times the error values."""
    f = code.field
    meter, report, rt, loc = _decode_head(r, phi1, code, t_max, "decode_word", "B")
    located, values = loc.located.points, f.np_codes(loc.values)
    e = dict.fromkeys(code.psi.points, ZERO)
    e.update(zip(located, values))
    c = {p: r.values[p] for p in code.psi.points}
    for p, v in zip(located, values):
        c[p] = f.sub(c[p], v)
    f.op_count += code.n - len(located)
    meter.lap("subtract")
    if (code.transform_at(loc.rows, loc.values, "B") != rt).any():
        raise UndecodableError("decoded word fails the check set")
    meter.lap("check")
    return DecodeResult(codeword=Word(f, code.ndim, c), error=Word(f, code.ndim, e),
                        located=loc.located, report=report)


# -- systematic encoding -----------------------------------------------------

def _check_phi(phi, code):
    """SystematicSupportError unless Phi is |B| points of the code, over
    its field."""
    check_field(phi, PointSet, code, "Phi", "code", SystematicSupportError)
    if len(phi) != len(code.b_list):
        raise SystematicSupportError("|Phi| = %d but |B| = %d" % (len(phi), len(code.b_list)))
    if not all(p in code.psi for p in phi.points):
        raise SystematicSupportError("Phi is not a subset of the code's point set")


def check_systematic_support(phi, code):
    """True iff the |B| x |Phi| evaluation matrix is invertible: the check
    columns held by the erasure projection of Phi's store entry have rank
    |Phi|, the rank at which its tail rows are minus Phi's map.  Counts
    the entry's build, nothing when the store already holds it."""
    _check_phi(phi, code)
    return len(code.point_set(phi.points)[0].projection.pivots) == len(phi)


def systematic_basis(phi, code):
    """The recurrence family G_Phi of the lemma's path on Phi
    (ideal.lemma_family): the vanishing ideal's basis when Delta(Phi) lies
    in B, else the check-set family.  Extending the information word's
    syndrome by it and taking the IDFT at Phi gives minus the values that
    systematic_encode fills in.  It is built on each call, so a repeated
    call counts the same field operations; SystematicSupportError when
    the check-set family is unsolvable."""
    _check_phi(phi, code)
    try:
        return lemma_family(code.psi.subset(phi.points), code.b_list, code.order)
    except IdealError as exc:
        raise SystematicSupportError("Phi not generic: %s" % (exc,))


def systematic_encode(info, phi, code):
    """Fill the redundant positions Phi so the word is a dual codeword
    agreeing with the information symbols on Psi \\ Phi: the erasure-only
    decoding of Phi.  The values on Phi are one product of the
    information word's syndrome with the tail rows of Phi's erasure
    projection (PointSetEntry, shared with the erasure decoding of Phi),
    minus the lemma's map, and the word is checked by its syndrome, on
    exponent arrays: the information word is converted once, and the
    output is it with the values on Phi added, in the code's point order.
    SystematicSupportError, "Phi not generic", when Phi's check columns
    have rank below |Phi|, where no such map exists."""
    f = code.field
    check_field(info, Word, code, "information word", "code", SystematicSupportError)
    _check_phi(phi, code)
    if info.domain() != set(code.psi.points) - set(phi.points):
        raise SystematicSupportError("information word must be indexed by Psi \\ Phi")
    entry = code.point_set(phi.points)[0]
    tails = entry.projection.tails
    if len(tails) < len(phi):
        raise SystematicSupportError("Phi not generic: the check columns of the %d points "
                                     "have rank %d" % (len(phi), len(tails)))
    x = _element_array(info, list(info.values.values()), "information word")
    seed = code.transform_at([code.point_row[p] for p in info.values], x, "B")
    # the values on Phi: |Phi| |B| muls and |Phi| (|B| - 1) adds
    f.op_count += len(tails) * (2 * len(code.b_list) - 1)
    v = f.np_dot(tails, seed)
    # the word is info on Psi \ Phi and v on Phi, so its syndrome is
    # seed + syndrome(v): zero when the Phi part's is minus the seed
    if (code.transform_at(entry.rows, v, "B") != f.np_neg(seed)).any():
        raise SystematicSupportError("systematic output fails the check set")
    f.op_count += len(v)  # the seed's negation, counted once the word checks
    out = dict(info.values)
    out.update(zip(entry.points.points, f.np_codes(v)))
    return Word(f, code.ndim, out)
