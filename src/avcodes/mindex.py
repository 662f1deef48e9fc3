"""Multi-indices in A = {0..q-1}^N: semigroup addition and monomial orders.

Convention fixed here for every N (only N = 2 is pinned by the worked
examples): in lex comparisons, and in the grlex / weighted-grlex
tie-breaks, later positions are more significant, so for N = 2 the
second component is compared first.
"""

import numbers


class IndexError_(ValueError):
    pass


def _check_pair(a, b):
    if len(a) != len(b):
        raise IndexError_("mismatched index lengths %d and %d" % (len(a), len(b)))


def semigroup_add(a, b, q):
    """Componentwise addition in A with exponents of nonzero sums kept in 1..q-1.

    A component wraps modulo q-1 but never back to 0: x^q and x are the
    same function on GF(q), x^0 is not.
    """
    _check_pair(a, b)
    out = []
    for x, y in zip(a, b):
        s = x + y
        if s == 0:
            out.append(0)
        else:
            s %= q - 1
            out.append(s if s else q - 1)
    return tuple(out)


def dominated_sub(a, b):
    """Componentwise a - b; requires a >= b."""
    _check_pair(a, b)
    if not dominates(a, b):
        raise IndexError_("subtraction %s - %s is not componentwise nonnegative" % (a, b))
    return tuple(x - y for x, y in zip(a, b))


def dominates(a, b):
    """True iff a >= b componentwise."""
    _check_pair(a, b)
    return all(x >= y for x, y in zip(a, b))


class MonomialOrder:
    """One of lex, grlex, weighted_grlex (the latter carries positive weights)."""

    KINDS = ("lex", "grlex", "weighted_grlex")

    def __init__(self, kind, weights=None):
        if kind not in self.KINDS:
            raise IndexError_("unknown monomial order %r" % (kind,))
        if kind == "weighted_grlex":
            for i, w in enumerate(weights or ()):
                if isinstance(w, bool) or not isinstance(w, numbers.Integral):
                    raise IndexError_("weights[%d] = %r is not an integer" % (i, w))
            if not weights or any(w < 1 for w in weights):
                raise IndexError_("weighted_grlex needs weights >= 1")
            weights = tuple(weights)
        else:
            weights = None
        self.kind = kind
        self.weights = weights

    def key(self, a):
        """Sort key; comparing keys realizes the order."""
        if self.kind == "lex":
            return tuple(reversed(a))
        if self.kind == "grlex":
            return (sum(a),) + tuple(reversed(a))
        if self.weights is not None and len(self.weights) != len(a):
            raise IndexError_("weight vector length %d does not match index %s"
                              % (len(self.weights), a))
        wdeg = sum(w * x for w, x in zip(self.weights, a))
        return (wdeg,) + tuple(reversed(a))

    def sort(self, indices):
        return sorted(indices, key=self.key)

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and self.kind == other.kind and self.weights == other.weights)

    def __hash__(self):
        return hash((self.kind, self.weights))

    def __repr__(self):
        if self.weights is not None:
            return "MonomialOrder(%r, weights=%r)" % (self.kind, self.weights)
        return "MonomialOrder(%r)" % (self.kind,)


def index_box(q, ndim, top=None):
    """All indices of {0..top}^N in serialization order, first component fastest.

    ``top`` defaults to q-1, i.e. the box is A itself.
    """
    if top is None:
        top = q - 1
    out = [()]
    for _ in range(ndim):
        out = [(v,) + rest for rest in out for v in range(top + 1)]
    return out


def format_index(a):
    return "(" + ",".join(str(x) for x in a) + ")"


def parse_index(text, ndim=None):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        parts = tuple(int(x) for x in body.split(",")) if body.strip() else ()
    except ValueError:  # int("") included: an empty component
        raise IndexError_("bad multi-index %r" % (text,))
    if ndim is not None and len(parts) != ndim:
        raise IndexError_("multi-index %r has %d components, expected %d"
                          % (text, len(parts), ndim))
    return parts
