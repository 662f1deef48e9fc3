"""The voting locator against the staircase it replaced, and what its
per-eta schedule saves: Python-level calls per locate and memory."""

import random
import sys
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as reference
from test_codes import HERM16, HERM64
from avcodes.codes import code_from_config, preset, syndrome
from avcodes.decoder import decode_word, locate
from avcodes.gf import ZERO
from avcodes.maps import PointSet
from avcodes.transform import Word


@lru_cache(maxsize=None)
def _code(name):
    configs = {"herm16": HERM16, "herm64": HERM64}
    return code_from_config(configs[name], name) if name in configs else preset(name)


def _error_word(code, n_erase, n_err, rnd):
    """An error word with ``n_err`` nonzero errors and ``n_erase`` erased
    positions holding any value, and the erasure set."""
    f = code.field
    chosen = rnd.sample(code.psi.points, min(code.n, n_erase + n_err))
    erased = set(chosen[:n_erase])
    e = Word(f, code.ndim, dict.fromkeys(code.psi.points, ZERO))
    for p in chosen:
        e.values[p] = rnd.randrange(-1, f.q - 1) if p in erased else rnd.randrange(0, f.q - 1)
    return e, PointSet(f, code.ndim, tuple(p for p in code.psi.points if p in erased))


def _outcome(fn, synd, phi1, code, t_max):
    """What a locate returns or raises, with the field operations it counts."""
    f = code.field
    before = f.op_count
    try:
        res = fn(synd, phi1, code, t_max)
    except Exception as exc:  # the type and the text are compared
        return f.op_count - before, type(exc), str(exc)
    values = None if res.values is None else res.values.tolist()
    return (f.op_count - before, res.located.points, res.rows, values, res.stats, res.built)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["rs-like", "hermitian", "hcrs", "herm16"]), st.integers(0, 3),
       st.integers(0, 2), st.sampled_from(["default", "zero", "d_fr"]),
       st.randoms(use_true_random=False))
def test_locate_matches_the_reference_staircase(name, n_erase, beyond, t_max, rnd):
    # erasures and errors inside the radius and up to two errors beyond
    # it, under the default t_max, zero and d_fr: the compiled staircase
    # locates, values, reports, counts and raises exactly as the n x 2n one
    code = _code(name)
    radius = max(0, (code.d_fr - 1 - n_erase) // 2)
    e, phi1 = _error_word(code, n_erase, radius + beyond, rnd)
    synd = syndrome(e, code.b_list)
    code.point_set(phi1.points)  # both read the projection from the store
    t_max = {"default": None, "zero": 0, "d_fr": code.d_fr}[t_max]
    assert _outcome(locate, synd, phi1, code, t_max) == _outcome(reference.locate, synd, phi1,
                                                                 code, t_max)


def _profiled_calls(fn):
    """The Python and C function calls one run of fn makes, as
    sys.setprofile reports them ("call" and "c_call" events)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _warm_locate(name, n_err, seed):
    code = _code(name)
    e, phi1 = _error_word(code, 0, n_err, random.Random(seed))
    synd = syndrome(e, code.b_list)
    for _ in range(2):  # the store entry, E_D and the schedules built
        res = locate(synd, phi1, code)
    assert res.stats["t"] == n_err
    return lambda: locate(synd, phi1, code)


# the profiled calls of these locates on the n x 2n staircase, which
# rebuilt the block's masks on every step and ran a fresh Eliminator for
# the span test (numpy 2.4, Python 3.11)
STAIRCASE_CALLS = {("hcrs", 4): 893, ("hermitian", 3): 534}


@pytest.mark.parametrize("name,n_err", sorted(STAIRCASE_CALLS))
def test_locate_makes_half_the_calls(name, n_err):
    # a locate makes a fixed few array calls per step, pivot and vote: at
    # most half the calls of the staircase it replaced on the same input
    fn = _warm_locate(name, n_err, 3)
    assert _profiled_calls(fn) <= STAIRCASE_CALLS[name, n_err] // 2


def test_herm64_decode_peak_memory():
    # a warm one-error decode at n = 512 holds a block-sized staircase, not
    # the n x 2n array (4 MiB) of the staircase it replaced
    code = _code("herm64")
    e, phi1 = _error_word(code, 0, 1, random.Random(5))  # the zero codeword plus e
    for _ in range(2):
        res = decode_word(e, phi1, code)
    assert res.report.meta["locator"]["t"] == 1
    tracemalloc.start()
    try:
        decode_word(e, phi1, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak
