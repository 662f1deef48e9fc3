"""Evaluation map, proper transform, and the canonical isomorphism
V_D -> V_Psi realized as restrict(idft(extend(.))).

The extension reaches the inverse transform as one flat exponent array
over A (ideal._extension_array), run by the plan the basis keeps.  The
canonical map computes the full Omega-word with the fast transform
(transform.idft_flat) and verifies that it vanishes off Psi before
restricting, turning the vanishing guarantee into a runtime self-test;
it returns the word on Psi alone.  The library's paths read the map
compiled instead: decoding takes its values off the erasure projection
of a point set's store entry (decoder.locate), systematic encoding off
its tail rows (codes.PointSetEntry) and non-systematic encoding off the
code's n x k generator (codes.encode_nonsystematic), each checking its
word by its syndrome.  ``canonical_iso`` is their oracle, and the
evaluator of encode_nonsystematic on a code whose generator would take
more than codes.GENERATOR_BUDGET to build.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import ZERO
from .mindex import format_index, parse_index
from .transform import Word, dft_partial, idft_flat, point_power, _flat_keys
from .ideal import DeltaSet, index_array, _extension_array


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


def canonical_iso(h, gb, psi):
    """Canonical isomorphism: extend h over A, inverse-transform, restrict to psi.

    The Omega-word is the fast IDFT (transform.idft_flat) of the flat
    extension over all of A, that is idft_fast(extend(h, gb)).  Raises
    MapError, before any work, if psi lies over another field or
    dimension than the basis, and VanishingError, naming the first
    position in flat order, if the Omega-word is nonzero off psi, which
    signals inconsistent basis / point-set inputs.
    """
    f, ndim = gb.field, gb.ndim
    if (psi.field, psi.ndim) != (f, ndim):
        raise MapError("point set over %r, N = %d, but basis over %r, N = %d"
                       % (psi.field, psi.ndim, f, ndim))
    w = idft_flat(f, _extension_array(h, gb), ndim)
    at = (psi.array + 1) @ f.q ** np.arange(ndim)
    off = w != f.np_arith().zero
    off[at] = False
    if off.any():
        j = int(off.argmax())
        raise VanishingError("nonzero value %s at %s outside the point set"
                             % (f.format(f.np_codes(w[j])[0]),
                                format_index(_flat_keys(f.q, ndim, -1)[0][j])))
    return Word(f, ndim, dict(zip(psi.points, f.np_codes(w[at]))))
