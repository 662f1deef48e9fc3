"""Per-layer spans recorded from outside the library.

The library imports its layers by name (``from .transform import
idft_fast``), so a wrapper is only seen by every caller if the public name
is rebound in every ``avcodes`` module that holds it.  ``Tracer`` does that
on ``__enter__`` and puts the originals back on ``__exit__``.  It reads only
public names and the field's public ``op_count`` counter.

A span's self time is its duration minus the time of the spans it called;
its self field operations are counted the same way from ``op_count``
snapshots of the workload's field.
"""

import functools
import sys
import time

# (module, public function): the layer boundaries of src/avcodes that the
# workloads cross.  gf is measured through op_count, mindex is only called
# inside extend, cli and golden are never on a timed path.
SPANS = (
    ("codes", "encode_nonsystematic"),
    ("maps", "canonical_iso"),
    ("decoder", "decode_info"),
    ("decoder", "decode_word"),
    ("decoder", "systematic_encode"),
    ("decoder", "locate"),
    ("ideal", "vanishing_gb"),
    ("ideal", "check_set_basis"),
    ("ideal", "extend"),
    ("transform", "idft_fast"),
    ("transform", "dft_partial"),
    ("codes", "is_dual_codeword"),
)


def span_name(module, func):
    return "%s.%s" % (module, func)


class SpanStats:
    __slots__ = ("calls", "self_s", "self_ops")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.self_ops = 0


class Tracer:
    """Wraps every public function in ``SPANS`` while the context is open.

    ``stats`` maps span name to ``SpanStats``; ``missing`` lists the spans
    whose public function does not exist, which are reported, not traced.
    """

    def __init__(self, field):
        self.field = field
        self.stats = {span_name(m, f): SpanStats() for m, f in SPANS}
        self.missing = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "avcodes" or name.startswith("avcodes.")]
        for module, func in SPANS:
            name = span_name(module, func)
            owner = sys.modules.get("avcodes." + module)
            original = getattr(owner, func, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patches.append((holder, attr, original))
        return self

    def __exit__(self, *exc):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)
        return False

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        field = self.field
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0]  # time and field ops of the spans this one calls
            stack.append(frame)
            ops0 = field.op_count
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                dops = field.op_count - ops0
                stack.pop()
                stat.calls += 1
                stat.self_s += dt - frame[0]
                stat.self_ops += dops - frame[1]
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += dops

        return wrapper

    def library_ops(self):
        """Field operations done inside any span (so none of the harness's)."""
        return sum(s.self_ops for s in self.stats.values())
