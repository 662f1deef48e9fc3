"""Evaluation map, proper transform, and the canonical isomorphism
V_D -> V_Psi realized as restrict(idft(extend(.))).

The extension reaches the inverse transform as one flat exponent array
over A (ideal._extension_array), run by the plan the basis keeps.  The
canonical map computes the full Omega-word with the fast transform and
verifies that it vanishes off Psi before restricting, turning the
vanishing guarantee into a runtime self-test; it returns the word on
Psi alone.  The library's paths read the map compiled instead:
decoding takes its values off the erasure projection of a point set's
store entry (decoder.locate), systematic encoding off its tail rows
(codes.PointSetEntry) and non-systematic encoding off the code's n x k
generator (codes.encode_nonsystematic), each checking its word by its
syndrome.  ``canonical_iso`` is their oracle, and the evaluator of
encode_nonsystematic on a code whose generator would take more than
codes.GENERATOR_BUDGET to build.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import ZERO
from .mindex import format_index, parse_index
from .transform import Spectrum, Word, dft_partial, idft_flat, point_power, _flat_keys
from .ideal import DeltaSet, rows_independent, index_array, _extension_array


class MapError(ValueError):
    pass


class VanishingError(MapError):
    """The prolonged word is nonzero outside the point set, or an encoded
    word has a nonzero syndrome: the map's self-test failed."""


@dataclass(frozen=True)
class PointSet:
    """Ordered distinct points of GF(q)^N (coordinates in exponent codes)."""

    field: object
    ndim: int
    points: tuple

    def __post_init__(self):
        seen = set()
        for p in self.points:
            if len(p) != self.ndim:
                raise MapError("point %s has wrong arity" % (p,))
            for x in p:
                self.field.check_element(x)
            if p in seen:
                raise MapError("repeated point %s" % (p,))
            seen.add(p)

    @cached_property
    def array(self):
        """The points as an integer array of element codes, one row each."""
        return index_array(self.points, self.ndim)

    def __len__(self):
        return len(self.points)

    @cached_property
    def _members(self):
        return frozenset(self.points)

    def __contains__(self, p):
        return tuple(p) in self._members

    def __iter__(self):
        return iter(self.points)

    def subset(self, pts):
        keep = set(tuple(p) for p in pts)
        return PointSet(self.field, self.ndim, tuple(p for p in self.points if p in keep))

    @classmethod
    def parse(cls, field, ndim, lines):
        pts = []
        for ln in lines:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            p = tuple(field.check_element(x) for x in parse_index(ln, ndim))
            pts.append(p)
        return cls(field, ndim, tuple(pts))


def evaluate(h, psi):
    """ev: c_psi = sum_d h_d psi^d for every point of psi."""
    f = h.field
    out = {}
    for p in psi.points:
        acc = ZERO
        for d, hd in h.values.items():
            acc = f.add(acc, f.mul(hd, point_power(f, p, d)))
        out[p] = acc
    return Word(f, h.ndim, out)


def proper_transform(c, delta):
    """P: h_d = sum_psi c_psi psi^d over the delta set of the word's points."""
    members = delta.members if isinstance(delta, DeltaSet) else frozenset(delta)
    if len(members) != len(c.values):
        raise MapError("delta set size %d != word size %d" % (len(members), len(c.values)))
    return dft_partial(c, members)


def _omega_idft(x, psi):
    """The fast IDFT of the flat extension x over all of Omega, and the
    flat positions of psi's points in it.  Raises VanishingError, naming
    the first position in flat order, if the Omega-word is nonzero off
    psi."""
    f, ndim = psi.field, psi.ndim
    w = idft_flat(f, x, ndim)
    at = (psi.array + 1) @ f.q ** np.arange(ndim)
    off = w != f.np_arith().zero
    off[at] = False
    if off.any():
        j = int(off.argmax())
        raise VanishingError("nonzero value %s at %s outside the point set"
                             % (f.format(f.np_codes(w[j])[0]),
                                format_index(_flat_keys(f.q, ndim, -1)[0][j])))
    return w, at


def canonical_iso(h, gb, psi):
    """Canonical isomorphism: extend h over A, inverse-transform, restrict to psi.

    Raises VanishingError if the Omega-word is nonzero off psi, which
    signals inconsistent basis / point-set inputs, and MapError, before
    any work, if psi lies over another field or dimension than the basis.
    The Omega-word itself is idft_fast(extend(h, gb)).
    """
    f = gb.field
    if (psi.field, psi.ndim) != (f, gb.ndim):
        raise MapError("point set over %r, N = %d, but basis over %r, N = %d"
                       % (psi.field, psi.ndim, f, gb.ndim))
    w, at = _omega_idft(_extension_array(h, gb), psi)
    return Word(f, gb.ndim, dict(zip(psi.points, f.np_codes(w[at]))))


def transpose_check(delta, psi):
    """Verify that the matrix of evaluate is the transpose of the matrix of
    proper_transform on the given delta set / point set, and that the
    monomial-by-point matrix is invertible.  Returns False on failure."""
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
    rows = f.np_exponents(np.array(ev_rows, dtype=np.intp).reshape(n, n))
    return rows_independent(f, rows)[0]
