"""Affine variety codes C(V_B, Psi) and their duals: construction,
non-systematic encoding, syndromes, membership.

Only check sets of the shape U = V_B for B a subset of the delta set are
supported; the dual code is the image of V_{D\\B} under the canonical
isomorphism.  The transforms of a word on B and on D, membership
included, are one product with exponent rows the code precomputes
(``CodeSpec.transform_at``), and the check columns of a set of points
are kept with their reduction compiled, one object per set
(``PointSetEntry``), whose tail rows are minus the set's systematic map.
On a fixed code the canonical map is one n x k matrix G, compiled once
per code definition (field, order, points, B) by one elimination, read
off its tail rows the same way and kept at module level, so
``encode_nonsystematic`` is one product with G, checked by the word's
syndrome on B.  A code whose estimated build, ``generator_work(n, k)`` =
n^2 (n + k), exceeds GENERATOR_BUDGET encodes by the lemma
(``maps.canonical_iso``) instead.  Code parameters come from a JSON
config (see ``code_from_config``) or one of the bundled presets.
"""

import json
import math
import numbers
import threading
from collections import OrderedDict
from functools import cached_property, lru_cache

import numpy as np

from .gf import ZERO, Field, FieldError
from .mindex import MonomialOrder
from .transform import (BLOCK, Spectrum, Word, check_field, check_values, dft_partial,
                        omega_space, power_matrix, _element_array)
from .maps import PointSet, VanishingError, canonical_iso, evaluate
from .ideal import Eliminator, SumForms, index_array, vanishing_gb


class CodeConfigError(ValueError):
    pass


# point sets whose precomputations a code keeps at once (CodeSpec.point_set)
POINT_SET_CACHE_SIZE = 64
# the most build work, generator_work(n, k), for which encode_nonsystematic
# compiles its code's generator: the n = 512 GF(64) Hermitian code, at
# 2.6e8, builds in about 0.3 s on a 2-vCPU x86 VM; the n = 4096 GF(256)
# one, at 1.4e11, would take minutes there and encodes by the lemma
GENERATOR_BUDGET = 10 ** 9
# generators kept at once, one per code definition (see _generator)
GENERATOR_CACHE_SIZE = 8


class PointSetEntry:
    """What a code precomputes for one set Phi of its points, all of it
    built when the code's store first meets the set (CodeSpec.point_set):
    ``rows``, Phi as increasing point rows; ``points``, Phi in the code's
    point order; and ``projection``, the erasure projection of
    decoder.locate, which projects a syndrome off the check columns of
    Phi: the reduction by the columns, compiled along their insertion into
    an Eliminator (ideal.CompiledReduction), so that a syndrome, or a
    batch, is reduced by one product at the sequential count.  Its pivot
    count is the rank of the columns (decoder.check_systematic_support).
    At rank |Phi| its tail rows (``CompiledReduction.tails``) are minus
    the lemma's map on Phi, which takes the syndrome on B of a word on Phi
    to the word; systematic encoding evaluates by them.  The build adds
    the insertion's field operations to ``op_count`` (not the compile's),
    as the uncached call does."""

    def __init__(self, code, rows):
        self.rows = rows
        self.points = PointSet(code.field, code.ndim, tuple(code.psi.points[r] for r in rows))
        elim = Eliminator(code.field, len(code.b_list))
        _, ops, self.projection = elim.insert_compiled(code.columns[list(rows)],
                                                       self.points.points)
        code.field.op_count += ops


class CodeSpec:
    """A dual affine variety code C_perp(V_B, Psi) with its precomputed
    Groebner basis, delta set, and the supplied distance bound d_fr.

    ``b_set`` is a list of check indices or a B spec ("wdeg<=K",
    "prodplus<K"), resolved against the delta set of psi.  ``b_list`` is
    B and ``d_sorted`` the delta set D, each in increasing order;
    ``d_check`` marks the entries of ``d_sorted`` in B and ``d_info``
    holds the others, D \\ B.  The exponent rows of the transform on B
    (``columns``, one row per point) and on D (``d_rows``, built on first
    use) are precomputed, so the decoders, systematic encoding and
    ``is_dual_codeword`` transform their exponent arrays by one product
    (``transform_at``).
    What they precompute per set of the code's points is kept in a
    bounded store (``point_set``)."""

    def __init__(self, field, ndim, order, psi, b_set, d_fr, name=None):
        self.field = field
        self.ndim = ndim
        self.order = order
        self.psi = psi
        if ndim < 1:
            raise CodeConfigError("N = %d, need N >= 1" % ndim)
        if not len(psi):
            raise CodeConfigError("the code has no points")
        if order.weights is not None and len(order.weights) != ndim:
            raise CodeConfigError("%d order weights for N = %d"
                                  % (len(order.weights), ndim))
        self.gb, self.delta = vanishing_gb(psi, order)
        b_norm = []
        seen = set()
        for b in _parse_b(order, self.delta, b_set):
            if b not in self.delta:
                raise CodeConfigError("check index %s is outside the delta set" % (b,))
            if b in seen:
                raise CodeConfigError("repeated check index %s" % (b,))
            seen.add(b)
            b_norm.append(b)
        if not b_norm:
            raise CodeConfigError("the check set B is empty")
        self.b_list = order.sort(b_norm)
        self.d_sorted = tuple(self.delta.sorted(order))
        self.b_members = frozenset(self.b_list)
        self.d_check = np.array([d in self.b_members for d in self.d_sorted])
        self.d_info = tuple(d for d in self.d_sorted if d not in self.b_members)
        self.n = len(psi)
        self.k = self.n - len(self.b_list)
        if not 1 <= _integer("d_fr", d_fr) <= self.n:
            raise CodeConfigError("d_fr = %d outside 1..%d" % (d_fr, self.n))
        self.d_fr = d_fr
        self.name = name
        # the evaluation column (point^b for b in B) of each code point, as
        # one exponent row; precomputed like the basis, so not op-counted
        self.columns = power_matrix(field, index_array(self.b_list, ndim),
                                    index_array(psi.points, ndim)).T
        self.point_row = {p: i for i, p in enumerate(psi.points)}
        self._point_sets = OrderedDict()  # the store: row tuple -> PointSetEntry
        self._point_sets_lock = threading.Lock()

    def point_set(self, points):
        """The store entry (PointSetEntry) of a set of the code's points,
        given in any order, and whether this call built it; KeyError at a
        point outside the code.  The store is keyed by the points in the
        code's order and keeps the POINT_SET_CACHE_SIZE entries used last:
        erasure sets and systematic redundant sets, the sets callers name.
        An entry is built under the store's lock, so threads meeting a new
        set at once build it once, and a build that raises keeps nothing."""
        key = tuple(sorted(self.point_row[p] for p in points))
        with self._point_sets_lock:
            entry = self._point_sets.get(key)
            if entry is not None:
                self._point_sets.move_to_end(key)
                return entry, False
            entry = self._point_sets[key] = PointSetEntry(self, key)
            if len(self._point_sets) > POINT_SET_CACHE_SIZE:
                self._point_sets.popitem(last=False)
            return entry, True

    @cached_property
    def d_rows(self):
        """E_D, the read-only n x n exponent matrix of p^d: rows the indices
        d of ``d_sorted``, columns the code's points.  Built on first use,
        by ``transform_at`` onto D or by the locator (decoder._Staircase),
        which reads its erasure rows and its candidates' values off it;
        not op-counted, as ``columns`` is not."""
        e = power_matrix(self.field, index_array(self.d_sorted, self.ndim),
                         index_array(self.psi.points, self.ndim))
        e.flags.writeable = False
        return e

    def transform_at(self, at, x, onto):
        """The transform on B or D (``onto``) of the word with exponents x at
        the point rows ``at``, as an exponent array in ``b_list`` or
        ``d_sorted`` order: the exponent rows of the indices (``columns.T``
        for B, ``d_rows`` for D) at those points times x, counting
        dft_partial's |indices| |points| (2N + 1).  The code's one
        transform path: its callers hold the points as rows and the values
        as exponents, checked; it checks neither."""
        f = self.field
        rows = self.columns.T if onto == "B" else self.d_rows
        f.op_count += len(rows) * len(x) * (2 * self.ndim + 1)
        out = np.empty(len(rows), dtype=np.intp)
        step = max(1, BLOCK // max(1, len(x)))
        for lo in range(0, len(rows), step):
            out[lo:lo + step] = f.np_dot(rows[lo:lo + step].take(at, axis=1), x)
        return out

    @cached_property
    def sum_forms(self):
        """The normal forms of the delta-set products (ideal.SumForms), by
        division on the code's basis."""
        return SumForms(self.gb)

    @cached_property
    def feng_rao(self):
        """The Feng-Rao bound of the dual code, computed on first use: the
        least number of well-behaving pairs (ideal.SumForms.block) at an
        index of the delta set outside B; n + 1 when B is all of it."""
        _, lead, _, good = self.sum_forms.block(self.n)
        outside = np.bincount(lead[good], minlength=self.n)[~self.d_check]
        return int(outside.min()) if outside.size else self.n + 1

    def info_support(self):
        """D \\ B in increasing monomial order."""
        return list(self.d_info)

    def zero_padded(self, h):
        """Spectrum on the full delta set with missing entries zero."""
        vals = dict(h.values)
        for d in self.delta.members:
            vals.setdefault(d, ZERO)
        return Spectrum(self.field, self.ndim, vals)

    def __repr__(self):
        return "CodeSpec(n=%d, k=%d, |B|=%d, d_fr=%d%s)" % (
            self.n, self.k, len(self.b_list), self.d_fr,
            ", %s" % self.name if self.name else "")


def generator_work(n, k):
    """The estimated build work of an n x k generator, known before any
    work: the elimination reduces n + k vectors of length n by up to n
    kept rows each."""
    return n * n * (n + k)


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _generator(field, order, points, b_list, delta):
    """The canonical map V_{D\\B} -> V_Psi of the code defined by the
    field, order, points and check indices (``delta`` is their delta
    set), compiled: the information indices D\\B in increasing order and
    the read-only n x k exponent matrix G whose column j is the word of
    the j-th unit spectrum on them.  The n point columns of E_D,
    E_D[d, p] = p^d, are inserted into one Eliminator with their
    reduction compiled (Eliminator.insert_compiled); the tail of minus
    the unit vector at d, reduced by them, is column d: column d of the
    compiled tails (CompiledReduction.tails) times -1, as minus Phi's
    tails are its map (PointSetEntry).  The build adds its field
    operations (the insertions and the k unit reductions) to op_count
    once; every code of the definition shares G."""
    ds = delta.sorted(order)
    at = [i for i, d in enumerate(ds) if d not in b_list]
    ndim = len(points[0])
    elim = Eliminator(field, len(ds))
    _, ops, proj = elim.insert_compiled(
        power_matrix(field, index_array(ds, ndim), index_array(points, ndim)).T,
        range(len(points)))
    field.op_count += ops + int(proj.unit_ops[at].sum())
    g = np.ascontiguousarray(field.np_neg(proj.tails[:, at]))
    g.flags.writeable = False
    return tuple(ds[i] for i in at), g


def encode_nonsystematic(h, code):
    """Codeword of the dual code from an information spectrum on D\\B: the
    canonical isomorphism of the zero-padded spectrum.

    A code whose generator_work(n, k) is at most GENERATOR_BUDGET encodes
    by one product with its compiled n x k generator G (``_generator``,
    built on the definition's first encode and kept at module level), at
    n (2k - 1) field operations, and checks the word: its syndrome on B,
    |B| (2n - 1) more, must be zero, else VanishingError and no word.
    The build counts once, in the call that makes it.  A larger code
    encodes by ``maps.canonical_iso``, the lemma, which checks its own
    word.  CodeConfigError or FieldError before any work for a spectrum
    over another field, with a value that is no element code, or with
    support off D\\B."""
    f = code.field
    check_field(h, Spectrum, code, "information spectrum", "code", CodeConfigError)
    check_values(h, "information spectrum")
    for b in code.b_list:
        if h.values.get(b, ZERO) != ZERO:
            raise CodeConfigError("information spectrum has support at check index %s" % (b,))
    for d in h.values:
        if tuple(d) not in code.delta:
            raise CodeConfigError("information index %s outside the delta set" % (d,))
    n, k = code.n, code.k
    if generator_work(n, k) > GENERATOR_BUDGET:
        return canonical_iso(code.zero_padded(h), code.gb, code.psi)
    info, g = _generator(f, code.order, code.psi.points, tuple(code.b_list), code.delta)
    x = f.np_exponents(np.array([h.values.get(d, ZERO) for d in info], dtype=np.intp))
    c = f.np_dot(g, x)
    s = f.np_dot(code.columns.T, c)
    f.op_count += n * max(2 * k - 1, 0) + len(code.b_list) * (2 * n - 1)
    bad = s != f.np_arith().zero
    if bad.any():
        raise VanishingError("encoded word has a nonzero syndrome at check index %s"
                             % (code.b_list[int(bad.argmax())],))
    return Word(f, code.ndim, dict(zip(code.psi.points, f.np_codes(c))))


def primal_encode(h, code):
    """Generator-side codeword ev(h) of C(V_B, Psi) for h supported on B."""
    check_field(h, Spectrum, code, "primal information spectrum", "code", CodeConfigError)
    for d in h.values:
        if h.values[d] != ZERO and tuple(d) not in code.b_members:
            raise CodeConfigError("primal information index %s outside B" % (d,))
    return evaluate(h, code.psi)


def syndrome(r, b_set):
    """Restricted proper transform of a received word on the check set."""
    return dft_partial(r, [tuple(b) for b in b_set])


def is_dual_codeword(c, code):
    """Whether the word c, zero where it has no value, is a codeword of
    the dual code: every point of c is a code point and its syndrome on
    B (``CodeSpec.transform_at``) is zero.  CodeConfigError for a word
    over another field and FieldError, naming the position, at a value
    that is no element code, both before any work; a word with a point off
    the code is no codeword, and no syndrome is counted for it."""
    check_field(c, Word, code, "word", "code", CodeConfigError)
    x = _element_array(c, list(c.values.values()), "dft input")
    try:
        at = [code.point_row[p] for p in c.values]
    except KeyError:
        return False
    return not (code.transform_at(at, x, "B") != code.field.np_arith().zero).any()


# -- configuration ----------------------------------------------------------

def _integer(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise CodeConfigError("%s = %r is not an integer" % (name, value))
    return value


def _hermitian_points(field, ndim):
    if ndim != 2:
        raise CodeConfigError("hermitian point generator needs N = 2")
    q0 = math.isqrt(field.q)
    if q0 * q0 != field.q:
        raise CodeConfigError("hermitian points need a square field size")
    pts = []
    coords = [ZERO] + list(range(field.q - 1))
    f = field
    for w1 in coords:
        for w2 in coords:
            left = f.pow(w1, q0 + 1)
            right = f.add(f.pow(w2, q0), w2)
            if left == right:
                pts.append((w1, w2))
    return tuple(pts)


def _parse_points(field, ndim, spec):
    if spec == "hermitian":
        return PointSet(field, ndim, _hermitian_points(field, ndim))
    if spec == "full-grid":
        return PointSet(field, ndim, tuple(omega_space(field, ndim)))
    if isinstance(spec, str):
        raise CodeConfigError("unknown point generator %r" % (spec,))
    pts = tuple(tuple(field.check_element(x) for x in p) for p in spec)
    return PointSet(field, ndim, pts)


def _parse_b(order, delta, spec):
    if not isinstance(spec, str):
        try:
            return [tuple(b) for b in spec]
        except TypeError:
            raise CodeConfigError("B must be a list of index tuples or a spec string")
    text = spec.replace(" ", "")
    prefix = next((k for k in ("wdeg<=", "prodplus<") if text.startswith(k)), None)
    if prefix is None:
        raise CodeConfigError("unknown B spec %r" % (spec,))
    try:
        bound = int(text[len(prefix):])
    except ValueError:
        raise CodeConfigError("bad bound in B spec %r" % (spec,))
    if prefix == "prodplus<":
        return [d for d in sorted(delta.members) if math.prod(x + 1 for x in d) < bound]
    if order.weights is None:
        raise CodeConfigError("wdeg B-spec needs a weighted order")
    return [d for d in sorted(delta.members)
            if sum(w * x for w, x in zip(order.weights, d)) <= bound]


def code_from_config(cfg, name=None):
    """Build a CodeSpec from a parsed config mapping.

    Keys: field {p, m, primitive_poly}, N, order {kind, weights?},
    points (list of index tuples, "hermitian", or "full-grid"),
    B (list of index tuples, "wdeg<=K", or "prodplus<K"), d_fr.
    """
    try:
        fld = cfg["field"]
        field = Field(fld["p"], fld["m"], tuple(fld["primitive_poly"]))
        ndim = _integer("N", cfg["N"])
        ospec = cfg["order"]
        order = MonomialOrder(ospec["kind"], tuple(ospec.get("weights") or ()) or None)
        psi = _parse_points(field, ndim, cfg["points"])
        b_spec = cfg["B"]
        d_fr = cfg["d_fr"]
    except (KeyError, TypeError, ValueError, FieldError) as exc:
        if isinstance(exc, CodeConfigError):
            raise
        raise CodeConfigError("bad code config: %s" % (exc,))
    return CodeSpec(field, ndim, order, psi, b_spec, d_fr, name=name)


def load_code(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
        raise CodeConfigError("config %s is not valid JSON: %s" % (path, exc))
    return code_from_config(cfg, name=str(path))


# -- bundled presets --------------------------------------------------------

PRESET_CONFIGS = {
    # length-4 dual evaluation code on {0, alpha, alpha^3, alpha^6} in GF(8)
    "rs-like": {
        "field": {"p": 2, "m": 3, "primitive_poly": [1, 1, 0, 1]},
        "N": 1,
        "order": {"kind": "lex"},
        "points": [[-1], [1], [3], [6]],
        "B": [[0], [1]],
        "d_fr": 3,
    },
    # dual Hermitian code on the 27 rational points of x^4 = y^3 + y over GF(9)
    "hermitian": {
        "field": {"p": 3, "m": 2, "primitive_poly": [2, 1, 1]},
        "N": 2,
        "order": {"kind": "weighted_grlex", "weights": [3, 4]},
        "points": "hermitian",
        "B": "wdeg<=11",
        "d_fr": 7,
    },
    # extended hyperbolic cascaded RS code on the full grid GF(9)^2
    "hcrs": {
        "field": {"p": 3, "m": 2, "primitive_poly": [2, 1, 1]},
        "N": 2,
        "order": {"kind": "grlex"},
        "points": "full-grid",
        "B": "prodplus<9",
        "d_fr": 9,
    },
}


def preset(name):
    if name not in PRESET_CONFIGS:
        raise CodeConfigError("unknown preset %r (have %s)"
                              % (name, ", ".join(sorted(PRESET_CONFIGS))))
    return code_from_config(PRESET_CONFIGS[name], name=name)
