"""Command-line front end.

Exit codes: 0 success, 2 undecodable (or failed check), 3 configuration
error, 4 I/O error.
"""

import argparse
import sys
import time

from .gf import Field, FieldError, ZERO
from .mindex import MonomialOrder, IndexError_, format_index
from .transform import (Spectrum, Word, dft, idft, dft_fast, idft_fast,
                        index_space, omega_space, spectrum_lines, word_lines,
                        parse_assoc_lines, grid_lines, DomainError)
from .ideal import vanishing_gb, check_set_basis, extend, IdealError
from .maps import PointSet, MapError, VanishingError
from .codes import (CodeConfigError, load_code, preset, PRESET_CONFIGS,
                    encode_nonsystematic, is_dual_codeword)
from .decoder import (decode_info, decode_word, systematic_encode,
                      UndecodableError, SystematicSupportError)
from .golden import run_examples, HERM_SYS_PHI, HCRS_SYS_PHI

EXIT_OK = 0
EXIT_UNDECODABLE = 2
EXIT_CONFIG = 3
EXIT_IO = 4


class CliError(Exception):
    """A malformed command line (exit 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _read_points(path, field, ndim):
    return PointSet.parse(field, ndim, _read_text(path).splitlines())


def _emit(args, lines):
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_list(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text) from None


def _nonnegative(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %r" % text)
    return int(text)


def _positive(text):
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return int(text)


def _context(args):
    """(field, ndim, order, code) of the code named by --preset or --config;
    without one, the field, N and order of the explicit field flags, and
    code None."""
    if args.preset:
        code = preset(args.preset)
    elif args.config:
        code = load_code(args.config)
    elif "ndim" not in args:
        raise CliError("need --config FILE or --preset NAME")
    else:
        if None in (args.p, args.m, args.poly):
            raise CliError("need --p, --m and --poly (or --config/--preset)")
        field = Field(args.p, args.m, args.poly)
        if args.ndim is None:
            raise CliError("need --ndim with explicit field flags")
        return field, args.ndim, MonomialOrder(args.order, args.weights), None
    return code.field, code.ndim, code.order, code


def _parse_flat_word(field, ndim, text, points):
    toks = text.split()
    if len(toks) != len(points):
        raise DomainError("expected %d symbols, got %d" % (len(points), len(toks)))
    erased = []
    values = {}
    for p, tok in zip(points, toks):
        if tok == "?":
            erased.append(p)
            values[p] = ZERO
        else:
            values[p] = field.parse(tok)
    return Word(field, ndim, values), erased


def _parse_word_input(field, ndim, text, points):
    if "->" in text:
        w = parse_assoc_lines(field, ndim, text.splitlines(), "word")
        return w, []
    return _parse_flat_word(field, ndim, text, points)


def _parse_spectrum_input(field, ndim, text):
    if "->" in text:
        return parse_assoc_lines(field, ndim, text.splitlines(), "spectrum")
    toks = text.split()
    space = index_space(field, ndim)
    if len(toks) != len(space):
        raise DomainError("expected %d symbols over A, got %d" % (len(space), len(toks)))
    return Spectrum(field, ndim, {a: field.parse(t) for a, t in zip(space, toks)})


def _flat_word_line(word, points):
    return " ".join(word.field.format(word.values[p]) for p in points)


# -- subcommand bodies -------------------------------------------------------

def cmd_field_table(args):
    field = Field(args.p, args.m, args.poly)
    lines = ["# GF(%d), p=%d, m=%d, poly=%s" % (field.q, field.p, field.m,
                                                ",".join(map(str, field.primitive_poly)))]
    lines.append("-1 -> " + ":".join(map(str, field.poly_coeffs(ZERO))))
    for k in range(field.q - 1):
        lines.append("%d -> %s" % (k, ":".join(map(str, field.poly_coeffs(k)))))
    _emit(args, lines)
    return EXIT_OK


def cmd_dft(args, inverse):
    field, ndim, _, _ = _context(args)
    text = _read_text(args.input)
    if inverse:
        spec = _parse_spectrum_input(field, ndim, text)
        out = idft(spec) if args.direct else idft_fast(spec)
        lines = grid_lines(out, "word") if args.grid else word_lines(out)
    else:
        word, erased = _parse_word_input(field, ndim, text, omega_space(field, ndim))
        if erased:
            raise CliError("erasure marks are not meaningful for a transform")
        out = dft(word) if args.direct else dft_fast(word)
        lines = grid_lines(out, "spectrum") if args.grid else spectrum_lines(out)
    _emit(args, lines)
    return EXIT_OK


def cmd_gb(args):
    field, ndim, order, _ = _context(args)
    gb, delta = vanishing_gb(_read_points(args.points, field, ndim), order)
    lines = ["g%d = %s" % (w, g.text(order)) for w, g in enumerate(gb.elements)]
    lines.append("delta = " + " ".join(format_index(d) for d in delta.sorted(order)))
    _emit(args, lines)
    return EXIT_OK


def cmd_extend(args):
    field, ndim, order, _ = _context(args)
    gb, delta = vanishing_gb(_read_points(args.points, field, ndim), order)
    seed = _parse_spectrum_input(field, ndim, _read_text(args.input))
    if seed.domain() != set(delta.members):
        raise CliError("seed spectrum must be indexed exactly by the delta set "
                       "(%s)" % " ".join(format_index(d) for d in delta.sorted(order)))
    out = extend(seed, gb, index_space(field, ndim))
    _emit(args, spectrum_lines(out))
    return EXIT_OK


def cmd_encode(args):
    code = _context(args)[3]
    seed = _parse_spectrum_input(code.field, code.ndim, _read_text(args.input))
    word = encode_nonsystematic(seed, code)
    _emit(args, [_flat_word_line(word, code.psi.points)])
    return EXIT_OK


def cmd_encode_sys(args):
    code = _context(args)[3]
    phi = _read_points(args.phi, code.field, code.ndim)
    info_points = [p for p in code.psi.points if p not in phi.points]
    text = _read_text(args.input)
    word, erased = _parse_word_input(code.field, code.ndim, text, info_points)
    if erased:
        raise CliError("information word cannot contain erasures")
    out = systematic_encode(word, phi, code)
    _emit(args, [_flat_word_line(out, code.psi.points)])
    return EXIT_OK


def _received(args):
    """The code, the received word and its erasure set: every '?'-marked
    and --erasures point, in the code's point order with any foreign point
    after them for the decoder to reject.  Erased code positions read
    zero."""
    code = _context(args)[3]
    word, erased = _parse_word_input(code.field, code.ndim,
                                     _read_text(args.input), code.psi.points)
    if args.erasures:
        erased += _read_points(args.erasures, code.field, code.ndim).points
    inside = code.psi.subset(erased)
    for p in inside.points:
        word.values[p] = ZERO
    foreign = sorted(set(erased) - set(inside.points))
    return code, word, PointSet(code.field, code.ndim, inside.points + tuple(foreign))


def cmd_decode(args):
    code, word, phi1 = _received(args)
    info = decode_info(word, phi1, code, t_max=args.t_max)
    _emit(args, spectrum_lines(info))
    return EXIT_OK


def cmd_decode_word(args):
    code, word, phi1 = _received(args)
    res = decode_word(word, phi1, code, t_max=args.t_max)
    lines = ["codeword " + _flat_word_line(res.codeword, code.psi.points),
             "error    " + _flat_word_line(res.error, code.psi.points),
             "located  " + " ".join(format_index(p) for p in res.located.points)]
    _emit(args, lines)
    return EXIT_OK


def cmd_check(args):
    code = _context(args)[3]
    word, erased = _parse_word_input(code.field, code.ndim,
                                     _read_text(args.input), code.psi.points)
    if erased:
        raise CliError("cannot check a word with erasures")
    if is_dual_codeword(word, code):
        _emit(args, ["codeword"])
        return EXIT_OK
    _emit(args, ["not a codeword"])
    return EXIT_UNDECODABLE


def cmd_examples(args):
    results = run_examples()
    lines = ["PASS %s" % name if ok else "FAIL %s  (%s)" % (name, detail)
             for name, ok, detail in results]
    bad = sum(not ok for _, ok, _ in results)
    lines.append("%d golden vectors, %d failures" % (len(lines), bad))
    _emit(args, lines)
    return EXIT_UNDECODABLE if bad else EXIT_OK


# the golden systematic redundant sets, per preset
SYS_PHI = {"hermitian": HERM_SYS_PHI, "hcrs": HCRS_SYS_PHI}


def _layer(field, call):
    """Field operations and wall time in milliseconds of one call."""
    before, clock = field.op_count, time.perf_counter()
    call()
    return {"ops": field.op_count - before, "ms": (time.perf_counter() - clock) * 1e3}


def cmd_bench(args):
    """Decode one seeded word per preset and report the field operations
    (and, with --json, the wall time) of each step, plus the fast and
    direct IDFT counts on hermitian, and per preset d_fr, the Feng-Rao
    bound and the locator's votes.  The JSON form adds per preset the
    ``layers`` block: the ops and ms of vanishing_gb on the decoded
    word's located set and, where the preset has a golden systematic
    set, of check_set_basis on it (its first call on the preset's check
    set, so it includes building the cached leads) and of a warm
    systematic_encode on it (a second call, after the first has built
    the set's map), whose information word is drawn from its own
    generator, so that the text output does not move."""
    import json
    import random

    rng = random.Random(args.seed)
    lines = []
    doc = {"seed": args.seed, "presets": {}}
    for name in sorted(PRESET_CONFIGS):
        code = preset(name)
        f = code.field
        seed = Spectrum(f, code.ndim,
                        {d: rng.randrange(-1, f.q - 1) for d in code.info_support()})
        r = encode_nonsystematic(seed, code)
        pts = list(code.psi.points)
        erase = rng.sample(pts, min(2, code.d_fr - 1))
        for p in erase:
            r.values[p] = ZERO
        rest = [p for p in pts if p not in erase]
        n_err = max(0, (code.d_fr - 1 - len(erase)) // 2)
        for p in rng.sample(rest, min(1, n_err)):
            r.values[p] = f.add(r.values[p], rng.randrange(0, f.q - 1))
        res = decode_word(r, code.psi.subset(erase), code)
        rep = res.report
        layers = {"vanishing_gb": _layer(f, lambda: vanishing_gb(res.located, code.order))}
        if name in SYS_PHI:
            phi = PointSet(f, code.ndim, SYS_PHI[name])
            layers["check_set_basis"] = _layer(
                f, lambda: check_set_basis(phi, code.b_list, code.order))
            own = random.Random("%d:%s" % (args.seed, name))
            info = Word(f, code.ndim, {p: own.randrange(-1, f.q - 1)
                                       for p in pts if p not in phi})
            systematic_encode(info, phi, code)
            layers["systematic_encode"] = _layer(f, lambda: systematic_encode(info, phi, code))
        lines.append("%s (n=%d, k=%d, q=%d, N=%d, d_fr=%d, feng_rao=%d): %d votes"
                     % (name, code.n, code.k, f.q, code.ndim, code.d_fr, code.feng_rao,
                        rep.meta["locator"]["votes"]))
        for row in rep.lines():
            lines.append("  step " + row)
        doc["presets"][name] = {"steps": rep.steps, "ms": rep.ms, "meta": rep.meta,
                                "layers": layers}
    f = preset("hermitian").field
    h = Spectrum(f, 2, {a: rng.randrange(-1, f.q - 1) for a in index_space(f, 2)})
    fast_ops = _layer(f, lambda: idft_fast(h))["ops"]
    direct_ops = _layer(f, lambda: idft(h))["ops"]
    lines.append("idft q=9 N=2: fast %d ops, direct %d ops" % (fast_ops, direct_ops))
    doc["idft"] = {"q": f.q, "N": 2, "fast_ops": fast_ops, "direct_ops": direct_ops}
    if args.json:
        lines = [json.dumps(doc, indent=2)]
    _emit(args, lines)
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------

def build_parser():
    root = _Parser(prog="avcodes",
                   description="finite-field transforms and affine variety codes")
    sub = root.add_subparsers(dest="command", required=True)
    output = _Parser(add_help=False)
    output.add_argument("--output")
    code = _Parser(add_help=False)
    code.add_argument("--config", help="code config JSON")
    code.add_argument("--preset", choices=sorted(PRESET_CONFIGS),
                      help="bundled code preset")
    flags = _Parser(add_help=False)
    flags.add_argument("--p", type=int, help="field characteristic")
    flags.add_argument("--m", type=int, help="extension degree")
    flags.add_argument("--poly", type=_int_list,
                       help="primitive polynomial coefficients, ascending, comma-separated")
    flags.add_argument("--ndim", type=_positive, help="number of variables N")
    flags.add_argument("--order", default="lex", choices=("lex", "grlex", "weighted_grlex"))
    flags.add_argument("--weights", type=_int_list,
                       help="weights for weighted_grlex, comma-separated")

    def add(name, fn, text, *parents):
        p = sub.add_parser(name, help=text, parents=[*parents, output])
        p.set_defaults(fn=fn)
        return p

    p = add("field-table", cmd_field_table, "print the log/antilog table")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--poly", type=_int_list, required=True)

    for name, inverse in (("dft", False), ("idft", True)):
        p = add(name, lambda a, inv=inverse: cmd_dft(a, inv),
                "generalized %s" % name.upper(), code, flags)
        p.add_argument("--direct", action="store_true",
                       help="defining formulas instead of the fast path")
        p.add_argument("--grid", action="store_true", help="dense grid output")
        p.add_argument("input", help="input file or - for stdin")

    p = add("gb", cmd_gb, "vanishing-ideal basis of a point set", code, flags)
    p.add_argument("points", help="point list file")

    p = add("extend", cmd_extend, "prolong a delta-set spectrum over A", code, flags)
    p.add_argument("--points", required=True, help="point list file")
    p.add_argument("input", help="seed spectrum file")

    p = add("encode", cmd_encode, "non-systematic encoding", code)
    p.add_argument("input", help="information spectrum file (support in D\\B)")

    p = add("encode-sys", cmd_encode_sys, "systematic (DFT) encoding", code)
    p.add_argument("--phi", required=True, help="redundant position file")
    p.add_argument("input", help="information word file (over Psi \\ Phi)")

    for name, fn, text in (("decode", cmd_decode, "recover the information spectrum"),
                           ("decode-word", cmd_decode_word,
                            "split received word into codeword + error")):
        p = add(name, fn, text, code)
        p.add_argument("--erasures", help="erasure point file")
        p.add_argument("--t-max", type=_nonnegative, default=None)
        p.add_argument("input", help="received word file ('?' marks an erasure)")

    p = add("check", cmd_check, "test dual-code membership", code)
    p.add_argument("input")

    add("examples", cmd_examples, "run the bundled golden vectors")

    p = add("bench", cmd_bench, "field-operation counts on the presets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="one JSON document with per-step counts, times and meta")
    return root


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (UndecodableError, VanishingError) as exc:
        print("undecodable: %s" % exc, file=sys.stderr)
        return EXIT_UNDECODABLE
    except (CliError, CodeConfigError, FieldError, MapError, IndexError_, IdealError,
            DomainError, SystematicSupportError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
