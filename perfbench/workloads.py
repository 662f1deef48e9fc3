"""The benchmark's three workloads, written against the public avcodes API.

Each workload is a seeded closed loop with one client: ``draw`` takes every
random choice of op ``i`` from the op stream as plain integers, then
``execute`` runs the library calls, times the encode and decode calls, and
verifies the result outside those timed spans.  Library functions are
looked up on their module at call time so that a ``Tracer`` can wrap them.
"""

import random
import time

from avcodes import codes, decoder
from avcodes.gf import ZERO
from avcodes.transform import Spectrum, Word

clock = time.perf_counter

HERM16_CONFIG = {
    "field": {"p": 2, "m": 4, "primitive_poly": [1, 1, 0, 0, 1]},
    "N": 2,
    "order": {"kind": "weighted_grlex", "weights": [4, 5]},
    "points": "hermitian",
    "B": "wdeg<=20",
    "d_fr": 10,
}

PHI_SEARCH_LIMIT = 100


def is_dual(word, code):
    """Zero syndrome on the check set B, computed here from the field's
    arithmetic alone so that the check neither trusts nor enters the
    library's transform layer."""
    f = code.field
    for b in code.b_list:
        acc = ZERO
        for point, value in word.values.items():
            term = value
            for w, e in zip(point, b):
                term = f.mul(term, f.pow(w, e))
            acc = f.add(acc, term)
        if acc != ZERO:
            return False
    return True


def error_matches(error, received, codeword, points):
    f = codeword.field
    return all(error.values.get(p, ZERO) == f.sub(received.values[p], codeword.values[p])
               for p in points)


class State:
    """What a workload's set-up builds and its ops share."""

    def __init__(self, code, **extra):
        self.code = code
        self.points = list(code.psi.points)
        self.__dict__.update(extra)


class CorruptDecode:
    """Encode a random information spectrum with ``encode_nonsystematic``,
    apply the next (erasures, errors) pattern of the cycle, decode with
    ``decode_info`` or ``decode_word`` in turn, and verify."""

    def __init__(self, name, preset, patterns, trace_rate):
        self.name = name
        self.preset = preset
        self.patterns = patterns
        self.trace_rate = trace_rate

    def setup(self, seed):
        code = codes.preset(self.preset)
        return State(code, patterns=self.patterns(code), info_support=code.info_support())

    def cycle(self, state):
        """Ops after which every pattern has met both decoders."""
        return 2 * len(state.patterns)

    def draw(self, state, rng, i):
        q = state.code.field.q
        info = tuple(rng.randrange(-1, q - 1) for _ in state.info_support)
        period = len(state.patterns)
        n_erased, n_errors = state.patterns[i % period]
        where = rng.sample(range(len(state.points)), n_erased + n_errors)
        values = tuple(rng.randrange(0, q - 1) for _ in range(n_errors))
        # Decoders alternate op by op; with an even cycle the parity also
        # flips every cycle, so that each pattern meets both decoders.
        flip = (i // period) % 2 if period % 2 == 0 else 0
        use_info = (i + flip) % 2 == 0
        return info, tuple(where[:n_erased]), tuple(zip(where[n_erased:], values)), use_info

    def execute(self, state, inputs):
        info, erased, errors, use_info = inputs
        code = state.code
        f = code.field
        points = state.points
        h = Spectrum(f, code.ndim, dict(zip(state.info_support, info)))
        t0 = clock()
        cw = codes.encode_nonsystematic(h, code)
        encode_s = clock() - t0

        r = cw.copy()
        for j in erased:
            r.values[points[j]] = ZERO
        for j, e in errors:
            r.values[points[j]] = f.add(r.values[points[j]], e)
        phi1 = code.psi.subset([points[j] for j in erased])

        if use_info:
            t0 = clock()
            got = decoder.decode_info(r, phi1, code)
            decode_s = clock() - t0
            ok = got.values == h.values
        else:
            t0 = clock()
            res = decoder.decode_word(r, phi1, code)
            decode_s = clock() - t0
            ok = (res.codeword.values == cw.values
                  and error_matches(res.error, r, cw, points))
        return encode_s, decode_s, ok and is_dual(cw, code)


class SystematicErasure:
    """Systematic-encode a random information word on Psi \\ Phi for one
    seeded redundant set Phi, erase exactly Phi, erasure-decode it with
    ``decode_word`` and verify that both give the same word."""

    name = "herm16-systematic"
    trace_rate = 22.0

    def setup(self, seed):
        code = codes.code_from_config(HERM16_CONFIG, name=self.name)
        rng = random.Random("%d:phi" % seed)
        for _ in range(PHI_SEARCH_LIMIT):
            phi = code.psi.subset(rng.sample(code.psi.points, len(code.b_list)))
            if not decoder.check_systematic_support(phi, code):
                continue
            try:
                decoder.systematic_basis(phi, code)
            except decoder.SystematicSupportError:
                continue
            break
        else:
            raise RuntimeError("no systematic Phi in %d draws" % PHI_SEARCH_LIMIT)
        phi_set = set(phi.points)
        rest = [p for p in code.psi.points if p not in phi_set]
        return State(code, phi=phi, rest=rest)

    def cycle(self, state):
        return 1

    def draw(self, state, rng, i):
        q = state.code.field.q
        return tuple(rng.randrange(-1, q - 1) for _ in state.rest)

    def execute(self, state, inputs):
        code = state.code
        info = Word(code.field, code.ndim, dict(zip(state.rest, inputs)))
        t0 = clock()
        word = decoder.systematic_encode(info, state.phi, code)
        encode_s = clock() - t0

        r = word.copy()
        for p in state.phi.points:
            r.values[p] = ZERO
        t0 = clock()
        res = decoder.decode_word(r, state.phi, code)
        decode_s = clock() - t0
        ok = (all(word.values[p] == v for p, v in info.values.items())
              and res.codeword.values == word.values
              and error_matches(res.error, r, word, state.points)
              and is_dual(word, code))
        return encode_s, decode_s, ok


def _radius_cycle(code):
    """Every (erasures, errors) pair inside the radius, most errors first."""
    return [(e, t) for t in range((code.d_fr - 1) // 2, -1, -1)
            for e in range(code.d_fr - 2 * t - 1, -1, -1)]


def _full_radius_errors(code):
    return [(0, (code.d_fr - 1) // 2)]


# Why each workload is in the benchmark: see README.md.  trace_rate is the
# nominal ops per second that sizes the traced run.
WORKLOADS = {
    w.name: w for w in (
        CorruptDecode("hermitian-mix", "hermitian", _radius_cycle, trace_rate=190.0),
        CorruptDecode("hcrs-full-radius", "hcrs", _full_radius_errors, trace_rate=1.7),
        SystematicErasure(),
    )
}
