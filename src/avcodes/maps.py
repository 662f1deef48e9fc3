"""Evaluation map, proper transform, and the canonical isomorphism
V_D -> V_Psi realized as restrict(idft(extend(.))).

The canonical map always computes the full Omega-word and verifies that
it vanishes off Psi before restricting, turning the vanishing guarantee
into a runtime self-test.  The same inverse-transform-and-restrict step
(``restrict_idft``) finishes decoding and systematic encoding, on the
located and the redundant point sets.
"""

from dataclasses import dataclass

import numpy as np

from .gf import ZERO
from .mindex import format_index, parse_index
from .transform import Spectrum, Word, dft_partial, idft_fast, point_power, index_space
from .ideal import extend, DeltaSet, rows_independent


class MapError(ValueError):
    pass


class VanishingError(MapError):
    """The prolonged word is nonzero outside the point set."""


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

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return tuple(p) in set(self.points)

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


def restrict_idft(full, psi):
    """Inverse-transform a spectrum over all of A and restrict the
    Omega-word to psi; returns (restricted word, Omega-word).

    Raises VanishingError if the Omega-word is nonzero off psi.
    """
    f = full.field
    w = idft_fast(full)
    inside = set(psi.points)
    for pt, v in w.values.items():
        if v != ZERO and pt not in inside:
            raise VanishingError("nonzero value %s at %s outside the point set"
                                 % (f.format(v), format_index(pt)))
    return Word(f, full.ndim, {p: w.values[p] for p in psi.points}), w


def canonical_iso(h, gb, psi, return_omega=False):
    """Canonical isomorphism: extend h over A, inverse-transform, restrict to psi.

    Raises VanishingError if the Omega-word is nonzero off psi, which
    signals inconsistent basis / point-set inputs.
    """
    restricted, w = restrict_idft(extend(h, gb, index_space(gb.field, gb.ndim)), psi)
    if return_omega:
        return restricted, w
    return restricted


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
