#!/usr/bin/env python3
"""avcodes benchmark: seeded closed-loop encode/decode workloads.

    python3 perfbench/run.py --workload hermitian-mix --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from the repository root; the library is imported from ./src.  Before
anything is timed the bundled golden vectors must all re-derive.  With
``--trace 0`` the closed loop runs for ``--seconds`` and the end-to-end
metrics are printed; with ``--trace 1`` a fixed number of ops, derived from
``--seconds``, runs once with every layer wrapped and once more without, on
the same inputs, and the per-layer metrics are printed.  Every line but the
last is for people; the last is one JSON object.  The exit code is 0 only
when every op was verified correct.

Times are reported at reference machine speed: a fixed probe loop runs
between ops, and each op's times are scaled by PROBE_REF_S over the mean of
the probes on either side of it.  The raw figures are printed as well.
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

# Set before numpy is imported by the library: one process, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("hermitian-mix", "hcrs-full-radius", "herm16-systematic")
SETUP_REPEATS = 5
TAIL_PERCENTILES = (50, 90, 99, 99.9)
TAIL_MIN_BEYOND = 10

# The probe: a table walk in pure Python that allocates nothing the garbage
# collector tracks, so neither the library's code nor its heap can change
# its time; only the machine's speed can.  PROBE_REF_S is its time between
# ops on the baseline machine (Intel Xeon, 2 vCPUs, Python 3.11.7) in its
# fast state.
PROBE_STEPS = 15000
PROBE_TABLE = [[(a * 7 + b * 3) % 64 for b in range(64)] for a in range(64)]
PROBE_REF_S = 0.0005

clock = time.perf_counter


def probe():
    table = PROBE_TABLE
    acc = 0
    t0 = clock()
    for i in range(PROBE_STEPS):
        acc = table[acc][i & 63]
    return clock() - t0


class Record:
    """Outcome of a sequence of ops: counts, input digest, and times.  The
    ``*_ms`` lists and ``ref_s`` are at reference speed; ``wall_s`` is raw."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.digest = hashlib.sha256()
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.scales = []
        self.encode_ms = []
        self.decode_ms = []

    def add(self, wall, scale, timings):
        self.wall_s += wall
        self.ref_s += wall * scale
        self.scales.append(scale)
        if timings is not None:
            self.encode_ms.append(timings[0] * scale * 1e3)
            self.decode_ms.append(timings[1] * scale * 1e3)


def run_op(wl, state, rng, i, rec):
    """Draw and run op ``i``; its (encode, decode) seconds, or None if it failed."""
    inputs = wl.draw(state, rng, i)
    rec.digest.update(repr(inputs).encode())
    rec.attempted += 1
    try:
        encode_s, decode_s, ok = wl.execute(state, inputs)
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        ok = False
        detail = "op %d raised %s: %s" % (i, type(exc).__name__, exc)
    else:
        detail = "op %d returned a wrong result" % i
    if ok:
        return encode_s, decode_s
    rec.failed += 1
    if rec.first_failure is None:
        rec.first_failure = detail
    return None


def closed_loop(wl, state, seed, seconds=None, n_ops=None):
    """Run ops back to back, a probe between each two, until ``seconds``
    pass or ``n_ops`` are done."""
    rec = Record()
    rng = random.Random("%d:ops" % seed)
    before = probe()
    start = clock()
    i = 0
    while (i < n_ops) if n_ops is not None else (clock() - start < seconds):
        t0 = clock()
        timings = run_op(wl, state, rng, i, rec)
        wall = clock() - t0
        after = probe()
        rec.add(wall, 2 * PROBE_REF_S / (before + after), timings)
        before = after
        i += 1
    return rec


def set_up(wl, seed):
    """Build the workload SETUP_REPEATS times, each with one warm-up op that
    fills the library's lazy caches; returns the last state, the median
    set-up time at reference speed and the warm-up record."""
    times = []
    warm = Record()
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = clock()
        state = wl.setup(seed)
        run_op(wl, state, random.Random("%d:warm" % seed), 0, warm)
        wall = clock() - t0
        times.append(wall * 2 * PROBE_REF_S / (before + probe()))
    return state, statistics.median(times), warm


def tail(samples):
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_PERCENTILES with at least TAIL_MIN_BEYOND samples beyond it; the
    median when no percentile has that many."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if best is None or n - rank >= TAIL_MIN_BEYOND:
            best = (p, xs[rank - 1], n - rank)
    return best


def metric(value, unit):
    return {"value": value, "unit": unit}


def speed_note(rec):
    speed = statistics.median(rec.scales)
    return ("machine ran at %.3f of reference speed (median over ops); raw words_per_s %.6g"
            % (speed, (rec.attempted - rec.failed) / rec.wall_s))


def untraced(wl, state, args):
    rec = closed_loop(wl, state, args.seed, seconds=args.seconds)
    if not rec.decode_ms:
        return rec, {}, []
    p, tail_ms, beyond = tail(rec.decode_ms)
    metrics = {
        "words_per_s": metric((rec.attempted - rec.failed) / rec.ref_s, "1/s"),
        "decode_p50_ms": metric(statistics.median(rec.decode_ms), "ms"),
        "decode_tail_ms": metric(tail_ms, "ms"),
        "encode_p50_ms": metric(statistics.median(rec.encode_ms), "ms"),
    }
    notes = [speed_note(rec),
             "decode_tail_ms is p%s: %d of %d decodes beyond it" % (p, beyond, len(rec.decode_ms)),
             "encode_p50_ms times %s" % ("systematic_encode" if wl.name == "herm16-systematic"
                                         else "encode_nonsystematic")]
    return rec, metrics, notes


def trace_ops(wl, state, seconds):
    """Traced op count: about half of ``seconds`` at the workload's nominal
    rate, a whole number of pattern cycles, and fixed for a given seconds
    so that counts repeat exactly."""
    cycle = wl.cycle(state)
    return cycle * max(1, round(seconds * wl.trace_rate / 2.0 / cycle))


def traced(wl, state, args):
    from tracer import Tracer

    code = state.code
    k = trace_ops(wl, state, args.seconds)
    tracer = Tracer(code.field)
    with tracer:
        rec_t = closed_loop(wl, state, args.seed, n_ops=k)
    rec_u = closed_loop(wl, state, args.seed, n_ops=k)
    if rec_t.digest.digest() != rec_u.digest.digest():
        raise RuntimeError("traced and untraced phases drew different inputs")

    speed = statistics.median(rec_t.scales)
    metrics = {}
    for name, s in tracer.stats.items():
        metrics[name + ".calls"] = metric(s.calls, "count")
        metrics[name + ".self_ms"] = metric(s.self_s * speed * 1e3 / k, "ms")
        metrics[name + ".share"] = metric(s.self_s / rec_t.wall_s, "ratio")
        metrics[name + ".field_ops"] = metric(s.self_ops / k, "count")
    lib_ops = tracer.library_ops()
    metrics["gf.field_ops"] = metric(lib_ops / k, "count")
    metrics["gf.mops_per_s"] = metric(lib_ops / rec_u.ref_s / 1e6, "Mop/s")
    idft = tracer.stats["transform.idft_fast"]
    bound = 3 * code.ndim * code.field.q ** (code.ndim + 1)
    metrics["transform.idft_fast.ops_over_bound"] = metric(
        idft.self_ops / idft.calls / bound if idft.calls else 0.0, "ratio")
    metrics["trace.overhead"] = metric(rec_u.ref_s / rec_t.ref_s, "ratio")

    notes = ["traced %d ops in %.3f s, then the same inputs untraced in %.3f s (raw)"
             % (k, rec_t.wall_s, rec_u.wall_s), speed_note(rec_t)]
    if tracer.missing:
        notes.append("missing layers (reported as 0): " + ", ".join(tracer.missing))
    top = "decoder.systematic_encode" if wl.name == "herm16-systematic" \
        else "codes.encode_nonsystematic"
    for name in (top, "decoder.locate"):
        if name not in tracer.missing:
            calls = tracer.stats[name].calls
            notes.append("smoke %s.calls = %d, ops = %d: %s"
                         % (name, calls, k, "ok" if calls == k else "MISMATCH"))
    rec_t.attempted += rec_u.attempted
    rec_t.failed += rec_u.failed
    rec_t.first_failure = rec_t.first_failure or rec_u.first_failure
    return rec_t, metrics, notes


def import_library():
    sys.path.insert(0, SRC)
    try:
        import avcodes
    except ImportError as exc:
        raise SystemExit("error: cannot import avcodes from %s: %s" % (SRC, exc))
    if not os.path.abspath(avcodes.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: avcodes was imported from %s, not %s" % (avcodes.__file__, SRC))


def golden_gate():
    from avcodes import golden

    bad = [(name, detail) for name, ok, detail in golden.run_examples() if not ok]
    if bad:
        for name, detail in bad:
            print("golden vector failed: %s %s" % (name, detail))
        raise SystemExit(1)


def run_one(args):
    import_library()
    golden_gate()
    import workloads
    wl = workloads.WORKLOADS[args.workload]

    state, setup_s, warm = set_up(wl, args.seed)
    rec, metrics, notes = (traced if args.trace else untraced)(wl, state, args)
    attempted = rec.attempted + warm.attempted
    failed = rec.failed + warm.failed
    if not args.trace:
        metrics["setup_s"] = metric(setup_s, "s")
        metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")

    code = state.code
    print("workload %s  seed %d  trace %d  (%s: q=%d, N=%d, n=%d, k=%d, |B|=%d, d_fr=%d)"
          % (wl.name, args.seed, args.trace, code.name, code.field.q, code.ndim, code.n,
             code.k, len(code.b_list), code.d_fr))
    print("inputs sha256 %s" % rec.digest.hexdigest())
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-44s %14.6g ratio  (%d of %d ops)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    for note in notes:
        print("  " + note)
    failure = warm.first_failure or rec.first_failure
    if failure:
        print("  first failure: " + failure)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def command(workload, seed, seconds, trace):
    """argv that runs one workload in a process of its own."""
    return [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is per workload."""
    return max(subprocess.run(command(name, args.seed, args.seconds, args.trace)).returncode
               for name in WORKLOAD_NAMES)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
