"""Affine variety codes C(V_B, Psi) and their duals: construction,
non-systematic encoding, syndromes, membership.

Only check sets of the shape U = V_B for B a subset of the delta set are
supported; the dual code is the image of V_{D\\B} under the canonical
isomorphism.  Code parameters come from a JSON config (see
``code_from_config``) or one of the bundled presets.
"""

import json
import math

from .gf import ZERO, Field, FieldError
from .mindex import MonomialOrder
from .transform import Spectrum, check_values, dft_partial, omega_space, power_matrix
from .maps import PointSet, canonical_iso, evaluate
from .ideal import index_array, vanishing_gb


class CodeConfigError(ValueError):
    pass


class CodeSpec:
    """A dual affine variety code C_perp(V_B, Psi) with its precomputed
    Groebner basis, delta set, and the supplied distance bound d_fr.

    ``b_set`` is a list of check indices or a B spec ("wdeg<=K",
    "prodplus<K"), resolved against the delta set of psi."""

    def __init__(self, field, ndim, order, psi, b_set, d_fr, name=None):
        self.field = field
        self.ndim = ndim
        self.order = order
        self.psi = psi
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
        self.b_list = order.sort(b_norm)
        self.b_members = frozenset(self.b_list)
        self.n = len(psi)
        self.k = self.n - len(self.b_list)
        if not 1 <= d_fr <= self.n:
            raise CodeConfigError("d_fr = %d outside 1..%d" % (d_fr, self.n))
        self.d_fr = d_fr
        self.name = name
        # the evaluation column (point^b for b in B) of each code point, as
        # one exponent row; precomputed like the basis, so not op-counted
        self.columns = power_matrix(field, index_array(self.b_list, ndim),
                                    index_array(psi.points, ndim)).T
        self.point_row = {p: i for i, p in enumerate(psi.points)}

    def info_support(self):
        """D \\ B in increasing monomial order."""
        return [d for d in self.delta.sorted(self.order) if d not in self.b_members]

    def zero_padded(self, h):
        """Spectrum on the full delta set with missing entries zero."""
        vals = {d: h.values.get(d, ZERO) for d in self.delta.members}
        return Spectrum(self.field, self.ndim, vals)

    def __repr__(self):
        return "CodeSpec(n=%d, k=%d, |B|=%d, d_fr=%d%s)" % (
            self.n, self.k, len(self.b_list), self.d_fr,
            ", %s" % self.name if self.name else "")


def encode_nonsystematic(h, code):
    """Codeword of the dual code from an information spectrum on D\\B."""
    for b in code.b_list:
        if h.values.get(b, ZERO) != ZERO:
            raise CodeConfigError("information spectrum has support at check index %s" % (b,))
    for d in h.values:
        if tuple(d) not in code.delta:
            raise CodeConfigError("information index %s outside the delta set" % (d,))
    check_values(h, "information spectrum")
    full = code.zero_padded(h)
    return canonical_iso(full, code.gb, code.psi)


def primal_encode(h, code):
    """Generator-side codeword ev(h) of C(V_B, Psi) for h supported on B."""
    for d in h.values:
        if h.values[d] != ZERO and tuple(d) not in code.b_members:
            raise CodeConfigError("primal information index %s outside B" % (d,))
    return evaluate(h, code.psi)


def syndrome(r, b_set):
    """Restricted proper transform of a received word on the check set."""
    return dft_partial(r, [tuple(b) for b in b_set])


def is_dual_codeword(c, code):
    s = syndrome(c, code.b_list)
    return all(v == ZERO for v in s.values.values())


# -- configuration ----------------------------------------------------------

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
        ndim = int(cfg["N"])
        ospec = cfg["order"]
        order = MonomialOrder(ospec["kind"], tuple(ospec.get("weights") or ()) or None)
        psi = _parse_points(field, ndim, cfg["points"])
        b_spec = cfg["B"]
        d_fr = int(cfg["d_fr"])
    except (KeyError, TypeError, ValueError, FieldError) as exc:
        if isinstance(exc, CodeConfigError):
            raise
        raise CodeConfigError("bad code config: %s" % (exc,))
    return CodeSpec(field, ndim, order, psi, b_spec, d_fr, name=name)


def load_code(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError:
        raise
    except json.JSONDecodeError as exc:
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
