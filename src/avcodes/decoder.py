"""Erasure-and-error decoding and DFT systematic encoding for dual affine
variety codes, plus per-step field-operation accounting.

Each decode call returns its own report (``StepCounts``): the field
operations of every named step it runs, in order ``transform`` (the
received word's transform), ``locator``, ``extension`` (the locator
seed and the error-spectrum extension), ``idft``, ``subtract`` and
``check``, their wall times in milliseconds (``ms``, same labels), and
meta data on the code and the support search.
``decode_word`` runs all six and carries the report in
``DecodeResult.report``; ``decode_info`` skips ``idft`` and ``check``
and returns an ``InfoSpectrum``, a Spectrum with a ``report`` field.

The locator step replaces shift-register synthesis at desk scale: the
smallest error support consistent with the check-set syndrome is found
by exhaustive search over candidate supports (minimal size first, then
lexicographically by the code's point order), after projecting the known
erasure columns out of the linear system.

The search is meet-in-the-middle.  A support of size t splits into its
first t//2 and its last t - t//2 candidates, and a size-k half holds
every all-nonzero combination of k reduced columns.  Each half is turned
into sorted uint64 keys once per ``locate`` call, as itself (the left
side) or added to the target (the right side, target minus a
combination), and serves every t that needs it.  Keys pack the canonical
base-p encodings of the rows (gf ``np_enc_add``) in base q, after a
fixed pseudo-random GF(q)-linear projection when the rows are longer
than a key needs; the two sides are joined with ``searchsorted`` and
every key match is re-checked on the full-length vectors, so the search
returns exactly the supports of plain enumeration.  Before a half is
built its size is estimated (``half_table_bytes``); above TABLE_BUDGET
the locator raises UndecodableError instead of allocating it.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .gf import ZERO
from .transform import Spectrum, Word, dft_partial, index_space, power_matrix
from .maps import PointSet, restrict_idft
from .ideal import (vanishing_gb, check_set_basis, extend, ReducedGroebnerBasis,
                    DeltaSet, Polynomial, IdealError, Eliminator, index_array,
                    rows_independent)
from .codes import is_dual_codeword


class UndecodableError(Exception):
    pass


class AmbiguousPatternError(UndecodableError):
    """More than one minimal support is consistent with the syndrome
    (impossible while |Phi1| + 2|Phi2| < d_fr)."""


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


def _trivial_locator(field, ndim, order):
    origin = (0,) * ndim
    one = Polynomial(field, ndim, {origin: 0})
    return ReducedGroebnerBasis(field, ndim, order, [one], [origin], DeltaSet(frozenset()))


# -- the support search ------------------------------------------------------

# ceiling on the estimated bytes of all half tables of one locate call
TABLE_BUDGET = 256 << 20
# a half is built in passes of whole leading coefficients, at least this
# many rows each so that small blocks amortize numpy's per-call cost
_PASS_ROWS = 4096
_MASK64 = (1 << 64) - 1


def _half_rows(ncand, k, q):
    return math.comb(ncand, k) * (q - 1) ** k


def half_table_bytes(ncand, k, q, r):
    """Estimated peak bytes of one half table over ncand columns with
    r-symbol keys: on each of its two key sides a uint64 key and an intp
    sort index per row, the join's intp positions and gathered keys per
    row, 16 bytes a row for the scaled columns and slack, plus the symbols
    and gather indices of the largest pass while it is built."""
    rows = _half_rows(ncand, k, q)
    return rows * 64 + max(rows // (q - 1), _PASS_ROWS) * r * 16


def _key_width(q, veclen, largest):
    """Coordinates a packed key keeps: r with q^(r-2) >= largest^2, so that
    a chance key match between two sides of at most ``largest`` rows has
    odds about 1/q^2; at most veclen, and q^r must fit in 64 bits."""
    need = 2
    while q ** (need - 2) < largest * largest:
        need += 1
    cap = 1
    while q ** (cap + 1) <= 1 << 64:
        cap += 1
    return min(veclen, need, cap)


def _mix(x):
    """splitmix64 finalizer: a fixed integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _pack(rows, q):
    """Base-q uint64 key of each row."""
    keys = rows[:, 0].astype(np.uint64)
    for j in range(1, rows.shape[1]):
        keys *= np.uint64(q)
        keys += rows[:, j]
    return keys


class _SupportSearch:
    """All index supports of each size t <= t_max admitting an all-nonzero
    combination of ``columns`` equal to ``target`` (element codes), by a
    sort join of half tables that are built on first use and kept for
    larger t."""

    def __init__(self, field, target, columns, t_max):
        self.field = field
        self.target = target
        self.columns = columns
        self.ar = ar = field.np_arith()
        self.q = q = field.q
        self.ncand = len(columns)
        cols = np.array(columns, dtype=np.intp).reshape(self.ncand, len(target))
        cols, tgt = field.np_exponents(cols), field.np_exponents(np.array(target, dtype=np.intp))
        # coordinates zero in every column and in the target (the pivots
        # of the erasure reduction) carry nothing
        live = (cols != ar.zero).any(axis=0) | (tgt != ar.zero)
        cols, tgt = cols[:, live], tgt[live]
        veclen = len(tgt)
        largest = _half_rows(self.ncand, (t_max + 1) // 2, q)
        self.r = r = _key_width(q, veclen, largest)
        if r < veclen:
            # a fixed pseudo-random r x veclen matrix over GF(q): entry v
            # is alpha^(v-1), or zero for v = 0
            P = np.array([[_mix(i * veclen + j) % q for j in range(veclen)]
                          for i in range(r)], dtype=np.intp)
            both = field.np_dot(field.np_exponents(P - 1), np.vstack([cols, tgt])[:, None, :])
            cols, tgt = both[:-1], both[-1]
            field.op_count += (self.ncand + 1) * r * (2 * veclen - 1)
        self.tgt = ar.enc[tgt]
        # scaled[c, i] = alpha^c * column i, as encodings
        self.scaled = ar.enc[np.arange(q - 1)[:, None, None] + cols]
        self.combos = {}
        self.sides = {}  # (k, want) -> (sorted keys, row of each key)
        self.reserved = {}  # k -> estimated bytes of half k
        self.stats = {"t": 0, "candidates": self.ncand, "r": r,
                      "entries": 0, "matches": 0}

    def _reserve(self, t, ks):
        for k in ks:
            if k not in self.reserved:
                self.reserved[k] = half_table_bytes(self.ncand, k, self.q, self.r)
        need = sum(self.reserved.values())
        if need > TABLE_BUDGET:
            raise UndecodableError(
                "support search of size %d needs about %d MB of tables, over the "
                "%d MB budget" % (t, need >> 20, TABLE_BUDGET >> 20))

    def _combos(self, k):
        if k not in self.combos:
            combos = list(itertools.combinations(range(self.ncand), k))
            self.combos[k] = np.array(combos, dtype=np.intp).reshape(len(combos), k)
        return self.combos[k]

    def _side(self, k, want):
        """Sorted keys, with the row number of each, of the half rows
        c_1*col_i1 + ... + c_k*col_ik or, with ``want``, of the rows
        target + c_1*col_i1 + ... (target minus the row of the negated
        coefficients).  Rows run in the order (c_1, ..., c_k, i1 < ... <
        ik) and are built a few leading coefficients at a time."""
        if (k, want) not in self.sides:
            f, q, r = self.field, self.q, self.r
            combos = self._combos(k)
            nrows = _half_rows(self.ncand, k, q)
            keys = np.empty(nrows, dtype=np.uint64)
            if k == 0:
                keys[:] = _pack((self.tgt if want else np.zeros_like(self.tgt))[None], q)
            elif nrows:
                rest = [self.scaled[:, combos[:, j]] for j in range(1, k)]
                block = nrows // (q - 1)
                step = max(1, _PASS_ROWS // block)
                for c in range(0, q - 1, step):
                    acc = self.scaled[c:c + step, combos[:, 0]]
                    if want:
                        acc = f.np_enc_add(self.tgt, acc)
                    for part in rest:
                        acc = f.np_enc_add(acc[..., None, :, :], part)
                    keys[c * block:(c + step) * block] = _pack(acc.reshape(-1, r), q)
                f.op_count += nrows * r * (2 * k - 1 + want)
            order = np.argsort(keys)
            self.sides[k, want] = keys[order], order
            self.stats["entries"] += nrows
        return self.sides[k, want]

    def _entry(self, k, e, want):
        """(combination, coefficient exponents) of row e of a side: the
        coefficients are the base-(q-1) digits of the row's block number,
        negated on the ``want`` side."""
        combos = self.combos[k]
        block, i = divmod(e, len(combos))
        coeffs = []
        for _ in range(k):
            block, c = divmod(block, self.q - 1)
            coeffs.append((c + self.ar.neg) % (self.q - 1) if want else c)
        return tuple(combos[i].tolist()), tuple(reversed(coeffs))

    def _exact(self, support, coeffs):
        f = self.field
        acc = list(self.target)
        for i, c in zip(support, coeffs):
            acc = [f.sub(a, f.mul(c, x)) for a, x in zip(acc, self.columns[i])]
        return all(a == ZERO for a in acc)

    def supports(self, t):
        ka, kb = t // 2, t - t // 2
        self._reserve(t, (ka, kb))
        self.stats["t"] = t
        a_keys, a_order = self._side(ka, False)
        b_keys, b_order = self._side(kb, True)
        if not len(a_keys) or not len(b_keys):
            return []
        lo = np.searchsorted(a_keys, b_keys)
        hit = np.flatnonzero(a_keys.take(lo, mode="clip") == b_keys)
        lo = lo[hit]
        counts = np.searchsorted(a_keys, b_keys[hit], "right") - lo
        total = int(counts.sum())
        self.stats["matches"] += total
        if not total:
            return []
        first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        a_rows = a_order[first + np.arange(total)]
        b_rows = b_order[np.repeat(hit, counts)]
        if ka:
            # a support splits as combo_a[-1] < combo_b[0]
            ca, cb = self.combos[ka], self.combos[kb]
            keep = ca[a_rows % len(ca), -1] < cb[b_rows % len(cb), 0]
            a_rows, b_rows = a_rows[keep], b_rows[keep]
        found = set()
        for ea, eb in zip(a_rows.tolist(), b_rows.tolist()):
            combo_a, coeffs_a = self._entry(ka, ea, False)
            combo_b, coeffs_b = self._entry(kb, eb, True)
            support = combo_a + combo_b
            if support not in found and self._exact(support, coeffs_a + coeffs_b):
                found.add(support)
        return sorted(found)


class LocateResult(tuple):
    """The pair (basis, located) returned by ``locate``, with the search
    statistics as ``stats``: the largest size t searched, the candidate
    count, the key width r, and the half-table rows built and key matches
    joined."""

    def __new__(cls, basis, located, stats):
        pair = super().__new__(cls, (basis, located))
        pair.stats = stats
        return pair


def locate(synd, phi1, code, t_max=None):
    """Smallest error support consistent with the B-indexed syndrome.

    Returns a LocateResult (reduced basis of the vanishing ideal of Phi1
    union Phi2, located point set in the code's point order).  Raises
    UndecodableError when no support of size <= t_max is consistent, or
    when the search would need more than TABLE_BUDGET bytes of tables,
    and AmbiguousPatternError when several minimal ones are.
    """
    f = code.field
    if t_max is None:
        t_max = default_t_max(code, len(phi1))
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    b_list = code.b_list
    missing = [b for b in b_list if b not in synd.values]
    if missing:
        raise UndecodableError("syndrome is missing %d check indices" % len(missing))
    s = [synd.values[b] for b in b_list]

    phi1_set = set(phi1.points)
    try:
        phi1_rows = [code.point_row[p] for p in phi1.points]
    except KeyError as exc:
        raise UndecodableError("erasure location %s is not a code point" % (exc.args[0],))
    elim = Eliminator(f, len(b_list))
    _, ops = elim.insert(code.columns[phi1_rows], phi1.points)
    # the target, and every candidate column when a search may follow
    # (t_max > 0), in one batch; the columns count only when the target
    # is nonzero
    candidates = [p for p in code.psi.points if p not in phi1_set]
    batch = f.np_exponents(np.array(s, dtype=np.intp))[None]
    if t_max:
        batch = np.vstack([batch, np.delete(code.columns, phi1_rows, axis=0)])
    res, _, reduce_ops = elim.reduce(batch)
    f.op_count += ops + int(reduce_ops[0])
    live = res != f.np_arith().zero
    res = np.where(live, res, ZERO)

    chosen = ()
    stats = {"t": 0, "candidates": 0, "r": 0, "entries": 0, "matches": 0}
    if live[0].any():
        f.op_count += int(reduce_ops[1:].sum())
        eligible = np.flatnonzero(live[1:].any(axis=1))
        supports = []
        if t_max:
            search = _SupportSearch(f, res[0].tolist(), res[1 + eligible].tolist(), t_max)
            stats = search.stats
            for t in range(1, t_max + 1):
                supports = search.supports(t)
                if supports:
                    break
        if not supports:
            raise UndecodableError(
                "no error support of size <= %d is consistent with the syndrome" % t_max)
        if len(supports) > 1:
            raise AmbiguousPatternError(
                "distinct minimal supports: %s"
                % "; ".join(str(tuple(candidates[eligible[i]] for i in sup))
                            for sup in supports))
        chosen = tuple(candidates[eligible[i]] for i in supports[0])

    located = set(phi1_set) | set(chosen)
    pts = tuple(p for p in code.psi.points if p in located)
    loc_ps = PointSet(f, code.ndim, pts)
    if not pts:
        return LocateResult(_trivial_locator(f, code.ndim, code.order), loc_ps, stats)
    gb, _ = vanishing_gb(loc_ps, code.order)
    return LocateResult(gb, loc_ps, stats)


# -- the two decoding algorithms --------------------------------------------

def _validate_received(r, code):
    # the values are checked by the received word's transform
    if r.domain() != set(code.psi.points):
        raise UndecodableError("received word is not indexed by the code's point set")


def _locator_seed(synd_values, gb_loc, located, code):
    """Seed spectrum and matching recurrence basis for the error-spectrum
    extension.  Inside the radius the locator's delta set sits inside the
    check set and seeds the extension directly; beyond it (erasure-only
    decoding with |Phi1| up to |B|) the check-set-seeded family takes
    over, per the erasure-only decodable condition."""
    delta = gb_loc.delta.members
    if delta <= code.b_members:
        return Spectrum(code.field, code.ndim, {d: synd_values[d] for d in delta}), gb_loc
    try:
        gb_b = check_set_basis(located, code.b_list, code.order)
    except IdealError as exc:
        raise UndecodableError(
            "locator delta escapes the check set and the check-set system "
            "is unsolvable: %s" % (exc,))
    return Spectrum(code.field, code.ndim, {b: synd_values[b] for b in code.b_list}), gb_b


def _decode_head(r, phi1, code, t_max, kind, indices):
    """The steps shared by both decoders: the transform of r on
    ``indices`` and the locator, plus the recurrence basis and seed for
    the error-spectrum extension, whose cost falls into the caller's
    ``extension`` step.

    Returns (meter, report, transform, located point set, (seed, basis)
    or None when nothing is located).
    """
    _validate_received(r, code)
    meter = _Meter(code.field)
    rt = dft_partial(r, indices, "received word")
    # a bad value is reported before a bad erasure set; locate rejects an
    # erasure outside the code
    if len(phi1) == len(code.psi) and set(phi1.points) == set(code.psi.points):
        raise UndecodableError("every position erased, no information positions")
    meter.lap("transform")
    loc = locate(rt.restrict(code.b_list), phi1, code, t_max)
    gb_loc, located = loc
    meter.lap("locator")
    report = StepCounts(meter.steps, {
        "kind": kind,
        "code": code.name or repr(code),
        "q": code.field.q,
        "N": code.ndim,
        "n": code.n,
        "z": len(gb_loc),
        "located": len(located),
        "fast_idft_bound": 3 * code.ndim * code.field.q ** (code.ndim + 1),
        "locator": loc.stats,
    }, meter.ms)
    ext = _locator_seed(rt.values, gb_loc, located, code) if len(located) else None
    return meter, report, rt, located, ext


def decode_info(r, phi1, code, t_max=None):
    """Recover the information spectrum on D\\B from a received word
    (non-systematic decoding).  Erased positions of r must hold zero.
    Returns an InfoSpectrum, whose ``report`` holds the call's counts."""
    f = code.field
    dsorted = code.delta.sorted(code.order)
    meter, report, rtilde, _, ext = _decode_head(r, phi1, code, t_max,
                                                 "decode_info", dsorted)
    k = extend(*ext, dsorted).values if ext else {d: ZERO for d in dsorted}
    meter.lap("extension")
    out = {d: f.sub(rtilde.values[d], k[d]) for d in dsorted}
    meter.lap("subtract")
    for b in code.b_list:
        if out[b] != ZERO:
            raise UndecodableError("recovered spectrum has support at check index %s" % (b,))
    return InfoSpectrum(f, code.ndim,
                        {d: out[d] for d in dsorted if d not in code.b_members}, report)


def decode_word(r, phi1, code, t_max=None):
    """Split a received word into codeword + error (erasure-and-error
    decoding with explicit error values)."""
    f = code.field
    meter, report, _, located, ext = _decode_head(r, phi1, code, t_max,
                                                  "decode_word", code.b_list)
    evalues = {p: ZERO for p in code.psi.points}
    if ext:
        full = extend(*ext, index_space(f, code.ndim))
    meter.lap("extension")
    if ext:
        evalues.update(restrict_idft(full, located)[0].values)
    meter.lap("idft")
    e = Word(f, code.ndim, evalues)
    c = Word(f, code.ndim, {p: f.sub(r.values[p], e.values[p]) for p in code.psi.points})
    meter.lap("subtract")
    if not is_dual_codeword(c, code):
        raise UndecodableError("decoded word fails the check set")
    meter.lap("check")
    return DecodeResult(codeword=c, error=e, located=located, report=report)


# -- systematic encoding -----------------------------------------------------

def check_systematic_support(phi, code):
    """True iff the |B| x |Phi| evaluation matrix is invertible."""
    if len(phi) != len(code.b_list):
        raise SystematicSupportError("|Phi| = %d but |B| = %d" % (len(phi), len(code.b_list)))
    f = code.field
    vecs = power_matrix(f, index_array(code.b_list, code.ndim),
                        index_array(phi.points, code.ndim))
    independent, inserted = rows_independent(f, vecs)
    f.op_count += inserted * (2 * code.ndim - 1) * len(phi)
    return independent


def systematic_basis(phi, code):
    """The check-set-seeded recurrence family G_Phi used by systematic
    encoding (precomputable per redundant-position set)."""
    try:
        return check_set_basis(phi, code.b_list, code.order)
    except IdealError as exc:
        raise SystematicSupportError("Phi not generic: %s" % (exc,))


def systematic_encode(info, phi, code):
    """Fill the redundant positions Phi so the word is a dual codeword
    agreeing with the information symbols on Psi \\ Phi."""
    f = code.field
    if len(phi) != len(code.b_list):
        raise SystematicSupportError("|Phi| = %d but |B| = %d" % (len(phi), len(code.b_list)))
    phi_set = set(phi.points)
    inside = set(code.psi.points)
    if not phi_set <= inside:
        raise SystematicSupportError("Phi is not a subset of the code's point set")
    expected = inside - phi_set
    if info.domain() != expected:
        raise SystematicSupportError("information word must be indexed by Psi \\ Phi")
    seed = dft_partial(info, code.b_list, "information word")
    gb_phi = systematic_basis(phi, code)
    w, _ = restrict_idft(extend(seed, gb_phi, index_space(f, code.ndim)), phi)
    out = dict(info.values)
    for p in phi.points:
        out[p] = f.neg(w.values[p])
    word = Word(f, code.ndim, out)
    if not is_dual_codeword(word, code):
        raise SystematicSupportError("systematic output fails the check set")
    return word
