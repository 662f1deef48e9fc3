"""Erasure-and-error decoding and DFT systematic encoding for dual affine
variety codes, plus per-step field-operation accounting.

The locator step replaces shift-register synthesis at desk scale: the
smallest error support consistent with the check-set syndrome is found
by exhaustive search over candidate supports (minimal size first, then
lexicographically by the code's point order), after projecting the known
erasure columns out of the linear system.  Sizes above one are searched
meet-in-the-middle over (point, coefficient) half-combinations, which
returns exactly the same supports as plain enumeration.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .gf import ZERO
from .transform import Spectrum, Word, dft_partial, index_space, point_power
from .maps import PointSet, restrict_idft
from .ideal import (vanishing_gb, check_set_basis, extend, ReducedGroebnerBasis,
                    DeltaSet, Polynomial, IdealError, Eliminator)
from .codes import is_dual_codeword


class UndecodableError(Exception):
    pass


class AmbiguousPatternError(UndecodableError):
    """More than one minimal support is consistent with the syndrome
    (impossible while |Phi1| + 2|Phi2| < d_fr)."""


class SystematicSupportError(Exception):
    pass


@dataclass
class DecodeResult:
    codeword: Word
    error: Word
    located: PointSet
    info: Spectrum = None


@dataclass
class StepCounts:
    steps: dict
    meta: dict

    @property
    def total(self):
        return sum(self.steps.values())

    def lines(self):
        out = ["%-6s %10d" % (k, v) for k, v in self.steps.items()]
        out.append("%-6s %10d" % ("total", self.total))
        return out


_LAST_REPORT = None


def op_counter_report():
    """Per-step field-operation counts of the most recent decode call."""
    if _LAST_REPORT is None:
        raise UndecodableError("no decode has been instrumented yet")
    return _LAST_REPORT


class _Meter:
    def __init__(self, field):
        self.field = field
        self.steps = {}
        self.mark = field.op_count

    def lap(self, label):
        now = self.field.op_count
        self.steps[label] = self.steps.get(label, 0) + (now - self.mark)
        self.mark = now


def default_t_max(code, phi1_size):
    return max(0, (code.d_fr - 1 - phi1_size) // 2)


def _trivial_locator(field, ndim, order):
    origin = (0,) * ndim
    one = Polynomial(field, ndim, {origin: 0})
    return ReducedGroebnerBasis(field, ndim, order, [one], [origin], DeltaSet(frozenset()))


def _column(field, b_list, point):
    return [point_power(field, point, b) for b in b_list]


def _np_tables(field):
    """Dense GF tables in shifted coding (0 = zero element, k+1 = alpha^k),
    cached on the field; table building is excluded from op counting."""
    cached = getattr(field, "_np_gf_tables", None)
    if cached is not None:
        return cached
    q = field.q
    if q > 4096:
        return None
    snapshot = field.op_count
    dtype = np.uint8 if q <= 255 else np.uint16
    codes = [ZERO] + list(range(q - 1))
    add = np.zeros((q, q), dtype=dtype)
    mul = np.zeros((q, q), dtype=dtype)
    neg = np.zeros(q, dtype=dtype)
    for a in codes:
        neg[a + 1] = field.neg(a) + 1
        for b in codes:
            add[a + 1][b + 1] = field.add(a, b) + 1
            mul[a + 1][b + 1] = field.mul(a, b) + 1
    field.op_count = snapshot
    tables = (add, mul, neg, dtype)
    field._np_gf_tables = tables
    return tables


def _find_supports_np(field, target, columns, t):
    """All index supports of size t admitting an all-nonzero combination
    equal to target, via meet-in-the-middle halves."""
    add, mul, neg, dtype = _np_tables(field)
    q = field.q
    ncand = len(columns)
    veclen = len(target)
    U = np.array([[x + 1 for x in col] for col in columns], dtype=dtype)
    tgt = np.array([x + 1 for x in target], dtype=dtype)
    rowbytes = veclen * dtype().itemsize

    def blocks(k):
        """(value matrix, combo list) per nonzero coefficient tuple."""
        if k == 0:
            yield np.zeros((1, veclen), dtype=dtype), [()]
            return
        combos = list(itertools.combinations(range(ncand), k))
        if not combos:
            return
        C = np.array(combos, dtype=np.intp)
        cols = [U[C[:, j]] for j in range(k)]
        for coeffs in itertools.product(range(1, q), repeat=k):
            acc = mul[coeffs[0]][cols[0]]
            for j in range(1, k):
                acc = add[acc, mul[coeffs[j]][cols[j]]]
            field.op_count += len(combos) * veclen * (2 * k - 1)
            yield acc, combos

    ka = t // 2
    kb = t - ka
    lookup = {}
    for acc, combos in blocks(ka):
        blob = acc.tobytes()
        for i, combo in enumerate(combos):
            lookup.setdefault(blob[i * rowbytes:(i + 1) * rowbytes], []).append(combo)
    found = set()
    get = lookup.get
    for acc, combos in blocks(kb):
        want = add[tgt, neg[acc]]
        field.op_count += acc.size * 2
        blob = want.tobytes()
        for i, combo in enumerate(combos):
            hit = get(blob[i * rowbytes:(i + 1) * rowbytes])
            if hit:
                for combo_a in hit:
                    if combo_a and combo and combo_a[-1] >= combo[0]:
                        continue
                    found.add(tuple(combo_a) + tuple(combo))
    return sorted(found)


def _find_supports_python(field, target, columns, t):
    """Pure fallback for fields too large for dense tables."""
    def half_entries(k):
        if k == 0:
            yield tuple([ZERO] * len(target)), ()
            return
        for combo in itertools.combinations(range(len(columns)), k):
            for coeffs in itertools.product(field.nonzero(), repeat=k):
                acc = [ZERO] * len(target)
                for idx, c in zip(combo, coeffs):
                    col = columns[idx]
                    acc = [field.add(a, field.mul(c, x)) for a, x in zip(acc, col)]
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


def locate(synd, phi1, code, t_max=None):
    """Smallest error support consistent with the B-indexed syndrome.

    Returns (reduced basis of the vanishing ideal of Phi1 union Phi2,
    located point set in the code's point order).  Raises
    UndecodableError when no support of size <= t_max is consistent and
    AmbiguousPatternError when several minimal ones are.
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
    elim = Eliminator(f)
    for p in phi1.points:
        elim.insert(_column(f, b_list, p), p)
    target, _ = elim.reduce(s)

    chosen = ()
    if any(x != ZERO for x in target):
        candidates = [p for p in code.psi.points if p not in phi1_set]
        reduced_cols = []
        eligible = []
        for i, p in enumerate(candidates):
            rc, _ = elim.reduce(_column(f, b_list, p))
            if any(x != ZERO for x in rc):
                eligible.append(i)
                reduced_cols.append(rc)
        finder = _find_supports_np if _np_tables(f) is not None else _find_supports_python
        supports = []
        for t in range(1, t_max + 1):
            supports = finder(f, target, reduced_cols, t)
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
        return _trivial_locator(f, code.ndim, code.order), loc_ps
    gb, _ = vanishing_gb(loc_ps, code.order)
    return gb, loc_ps


# -- the two decoding algorithms --------------------------------------------

def _validate_received(r, code):
    if r.domain() != set(code.psi.points):
        raise UndecodableError("received word is not indexed by the code's point set")


def _validate_phi1(phi1, code):
    inside = set(code.psi.points)
    for p in phi1.points:
        if p not in inside:
            raise UndecodableError("erasure location %s is not a code point" % (p,))
    if len(phi1) == len(code.psi):
        raise UndecodableError("every position erased, no information positions")


def _erasure_syndrome(field, b_list, phi1):
    out = {}
    for b in b_list:
        acc = ZERO
        for p in phi1.points:
            acc = field.add(acc, point_power(field, p, b))
        out[b] = acc
    return out


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
    """Steps 1-4 shared by both decoders: erasure syndrome (1), basis of
    Phi1 (2), transform of r on ``indices`` (3) and the locator (4), plus
    the recurrence basis and seed for the error-spectrum extension, whose
    cost falls into the caller's step 5a.

    Returns (meter, report, transform, located point set, (seed, basis) or
    None when nothing is located).
    """
    f = code.field
    _validate_received(r, code)
    _validate_phi1(phi1, code)
    meter = _Meter(f)
    erasure_synd = _erasure_syndrome(f, code.b_list, phi1)
    meter.lap("1")
    if len(phi1):
        gb_phi1, _ = vanishing_gb(phi1, code.order)
    else:
        gb_phi1 = _trivial_locator(f, code.ndim, code.order)
    meter.lap("2")
    rt = dft_partial(r, indices)
    meter.lap("3")
    gb_loc, located = locate(rt.restrict(code.b_list), phi1, code, t_max)
    meter.lap("4")
    report = StepCounts(meter.steps, _report_meta(code, gb_loc, located,
                                                  erasure_synd, kind, gb_phi1))
    ext = _locator_seed(rt.values, gb_loc, located, code) if len(located) else None
    return meter, report, rt, located, ext


def decode_info(r, phi1, code, t_max=None):
    """Recover the information spectrum on D\\B from a received word
    (non-systematic decoding).  Erased positions of r must hold zero."""
    global _LAST_REPORT
    f = code.field
    dsorted = code.delta.sorted(code.order)
    meter, report, rtilde, _, ext = _decode_head(r, phi1, code, t_max,
                                                 "decode_info", dsorted)
    k = extend(*ext, dsorted).values if ext else {d: ZERO for d in dsorted}
    meter.lap("5a")
    meter.lap("5b")
    out = {}
    for d in dsorted:
        out[d] = f.sub(rtilde.values[d], k[d])
    meter.lap("6")
    for b in code.b_list:
        if out[b] != ZERO:
            raise UndecodableError("recovered spectrum has support at check index %s" % (b,))
    info = Spectrum(f, code.ndim, {d: out[d] for d in dsorted if d not in code.b_members})
    _LAST_REPORT = report
    return info


def decode_word(r, phi1, code, t_max=None):
    """Split a received word into codeword + error (erasure-and-error
    decoding with explicit error values)."""
    global _LAST_REPORT
    f = code.field
    meter, report, _, located, ext = _decode_head(r, phi1, code, t_max,
                                                  "decode_word", code.b_list)
    evalues = {p: ZERO for p in code.psi.points}
    if ext:
        full = extend(*ext, index_space(f, code.ndim))
    meter.lap("5a")
    if ext:
        evalues.update(restrict_idft(full, located)[0].values)
    meter.lap("5b")
    e = Word(f, code.ndim, evalues)
    c = Word(f, code.ndim, {p: f.sub(r.values[p], e.values[p]) for p in code.psi.points})
    meter.lap("6")
    if not is_dual_codeword(c, code):
        raise UndecodableError("decoded word fails the check set")
    meter.lap("check")
    _LAST_REPORT = report
    return DecodeResult(codeword=c, error=e, located=located)


def _report_meta(code, gb_loc, located, erasure_synd, kind, gb_phi1):
    return {
        "kind": kind,
        "code": code.name or repr(code),
        "q": code.field.q,
        "N": code.ndim,
        "n": code.n,
        "z": len(gb_loc),
        "z_phi1": len(gb_phi1),
        "located": len(located),
        "fast_idft_bound": 3 * code.ndim * code.field.q ** (code.ndim + 1),
        "erasure_syndrome": erasure_synd,
    }


# -- systematic encoding -----------------------------------------------------

def check_systematic_support(phi, code):
    """True iff the |B| x |Phi| evaluation matrix is invertible."""
    if len(phi) != len(code.b_list):
        raise SystematicSupportError("|Phi| = %d but |B| = %d" % (len(phi), len(code.b_list)))
    f = code.field
    elim = Eliminator(f)
    return all(elim.insert([point_power(f, p, b) for p in phi.points], b) is None
               for b in code.b_list)


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

    gb_phi = systematic_basis(phi, code)
    seed = dft_partial(info, code.b_list)
    w, _ = restrict_idft(extend(seed, gb_phi, index_space(f, code.ndim)), phi)
    out = dict(info.values)
    for p in phi.points:
        out[p] = f.neg(w.values[p])
    word = Word(f, code.ndim, out)
    if not is_dual_codeword(word, code):
        raise SystematicSupportError("systematic output fails the check set")
    return word
