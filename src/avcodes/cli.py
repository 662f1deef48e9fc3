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
from .decoder import decode_info, decode_word, systematic_encode, UndecodableError
from .golden import run_examples, HERM_SYS_PHI, HCRS_SYS_PHI

EXIT_OK = 0
EXIT_UNDECODABLE = 2
EXIT_CONFIG = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, msg, code):
        super().__init__(msg)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message, EXIT_CONFIG)


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(args, lines):
    text = "\n".join(lines) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_poly(text):
    return tuple(int(x) for x in text.split(","))


def _nonnegative(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %r" % text)
    return int(text)


def _field_from_args(args):
    if args.p is None or args.m is None or args.poly is None:
        raise CliError("need --p, --m and --poly (or --config/--preset)", EXIT_CONFIG)
    return Field(args.p, args.m, _parse_poly(args.poly))


def _order_from_args(args):
    weights = _parse_poly(args.weights) if args.weights else None
    return MonomialOrder(args.order, weights)


def _code_from_args(args):
    if getattr(args, "preset", None):
        return preset(args.preset)
    if getattr(args, "config", None):
        return load_code(args.config)
    return None


def _context(args):
    """(field, ndim, order) from a code reference or explicit flags."""
    code = _code_from_args(args)
    if code is not None:
        return code.field, code.ndim, code.order, code
    field = _field_from_args(args)
    if args.ndim is None:
        raise CliError("need --ndim with explicit field flags", EXIT_CONFIG)
    return field, args.ndim, _order_from_args(args), None


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
    field = _field_from_args(args)
    lines = ["# GF(%d), p=%d, m=%d, poly=%s" % (field.q, field.p, field.m,
                                                ",".join(map(str, field.spec.primitive_poly)))]
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
            raise CliError("erasure marks are not meaningful for a transform", EXIT_CONFIG)
        out = dft(word) if args.direct else dft_fast(word)
        lines = grid_lines(out, "spectrum") if args.grid else spectrum_lines(out)
    _emit(args, lines)
    return EXIT_OK


def cmd_gb(args):
    field, ndim, order, _ = _context(args)
    pts = PointSet.parse(field, ndim, _read_text(args.points).splitlines())
    gb, delta = vanishing_gb(pts, order)
    lines = ["g%d = %s" % (w, g.text(order)) for w, g in enumerate(gb.elements)]
    lines.append("delta = " + " ".join(format_index(d) for d in delta.sorted(order)))
    _emit(args, lines)
    return EXIT_OK


def cmd_extend(args):
    field, ndim, order, _ = _context(args)
    pts = PointSet.parse(field, ndim, _read_text(args.points).splitlines())
    gb, delta = vanishing_gb(pts, order)
    seed = _parse_spectrum_input(field, ndim, _read_text(args.input))
    if seed.domain() != set(delta.members):
        raise CliError("seed spectrum must be indexed exactly by the delta set "
                       "(%s)" % " ".join(format_index(d) for d in delta.sorted(order)),
                       EXIT_CONFIG)
    out = extend(seed, gb, index_space(field, ndim))
    _emit(args, spectrum_lines(out))
    return EXIT_OK


def cmd_encode(args):
    code = _require_code(args)
    seed = _parse_spectrum_input(code.field, code.ndim, _read_text(args.input))
    word = encode_nonsystematic(seed, code)
    _emit(args, [_flat_word_line(word, code.psi.points)])
    return EXIT_OK


def cmd_encode_sys(args):
    code = _require_code(args)
    phi = PointSet.parse(code.field, code.ndim, _read_text(args.phi).splitlines())
    info_points = [p for p in code.psi.points if p not in set(phi.points)]
    text = _read_text(args.input)
    word, erased = _parse_word_input(code.field, code.ndim, text, info_points)
    if erased:
        raise CliError("information word cannot contain erasures", EXIT_CONFIG)
    out = systematic_encode(word, phi, code)
    _emit(args, [_flat_word_line(out, code.psi.points)])
    return EXIT_OK


def _received(args, code):
    word, erased = _parse_word_input(code.field, code.ndim,
                                     _read_text(args.input), code.psi.points)
    pts = list(erased)
    if args.erasures:
        extra = PointSet.parse(code.field, code.ndim,
                               _read_text(args.erasures).splitlines())
        for p in extra.points:
            if p not in set(pts):
                pts.append(p)
        for p in extra.points:
            word.values[p] = ZERO
    phi1 = PointSet(code.field, code.ndim,
                    tuple(p for p in code.psi.points if p in set(pts)))
    return word, phi1


def cmd_decode(args):
    code = _require_code(args)
    word, phi1 = _received(args, code)
    info = decode_info(word, phi1, code, t_max=args.t_max)
    _emit(args, spectrum_lines(info))
    return EXIT_OK


def cmd_decode_word(args):
    code = _require_code(args)
    word, phi1 = _received(args, code)
    res = decode_word(word, phi1, code, t_max=args.t_max)
    lines = ["codeword " + _flat_word_line(res.codeword, code.psi.points),
             "error    " + _flat_word_line(res.error, code.psi.points),
             "located  " + " ".join(format_index(p) for p in res.located.points)]
    _emit(args, lines)
    return EXIT_OK


def cmd_check(args):
    code = _require_code(args)
    word, erased = _parse_word_input(code.field, code.ndim,
                                     _read_text(args.input), code.psi.points)
    if erased:
        raise CliError("cannot check a word with erasures", EXIT_CONFIG)
    if is_dual_codeword(word, code):
        _emit(args, ["codeword"])
        return EXIT_OK
    _emit(args, ["not a codeword"])
    return EXIT_UNDECODABLE


def cmd_examples(args):
    bad = 0
    lines = []
    for name, ok, detail in run_examples():
        if ok:
            lines.append("PASS %s" % name)
        else:
            bad += 1
            lines.append("FAIL %s  (%s)" % (name, detail))
    lines.append("%d golden vectors, %d failures" % (len(lines), bad))
    _emit(args, lines)
    return EXIT_OK if bad == 0 else 1


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
    direct IDFT counts on hermitian.  The JSON form adds per preset the
    ``layers`` block: the ops and ms of vanishing_gb on the decoded
    word's located set and of check_set_basis on the preset's golden
    systematic set, where it has one (its first call on the preset's
    check set, so it includes building the cached leads)."""
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
        cw = encode_nonsystematic(seed, code)
        r = cw.copy()
        pts = list(code.psi.points)
        erase = rng.sample(pts, min(2, code.d_fr - 1))
        for p in erase:
            r.values[p] = ZERO
        phi1 = PointSet(f, code.ndim, tuple(p for p in code.psi.points if p in set(erase)))
        rest = [p for p in pts if p not in set(erase)]
        n_err = max(0, (code.d_fr - 1 - len(erase)) // 2)
        for p in rng.sample(rest, min(1, n_err)):
            r.values[p] = f.add(r.values[p], rng.randrange(0, f.q - 1))
        res = decode_word(r, phi1, code)
        rep = res.report
        layers = {"vanishing_gb": _layer(f, lambda: vanishing_gb(res.located, code.order))}
        if name in SYS_PHI:
            phi = PointSet(f, code.ndim, SYS_PHI[name])
            layers["check_set_basis"] = _layer(
                f, lambda: check_set_basis(phi, code.b_list, code.order))
        lines.append("%s (n=%d, k=%d, q=%d, N=%d, d_fr=%d)"
                     % (name, code.n, code.k, f.q, code.ndim, code.d_fr))
        for row in rep.lines():
            lines.append("  step " + row)
        lines.append("  fast-idft bound 3*N*q^(N+1) = %d" % rep.meta["fast_idft_bound"])
        doc["presets"][name] = {"steps": rep.steps, "ms": rep.ms, "meta": rep.meta,
                                "layers": layers}
    herm = preset("hermitian")
    f = herm.field
    h = Spectrum(f, 2, {a: rng.randrange(-1, f.q - 1) for a in index_space(f, 2)})
    before = f.op_count
    idft_fast(h)
    fast_ops = f.op_count - before
    before = f.op_count
    idft(h)
    direct_ops = f.op_count - before
    lines.append("idft q=9 N=2: fast %d ops, direct %d ops" % (fast_ops, direct_ops))
    doc["idft"] = {"q": f.q, "N": 2, "fast_ops": fast_ops, "direct_ops": direct_ops}
    if args.json:
        lines = [json.dumps(doc, indent=2)]
    _emit(args, lines)
    return EXIT_OK


def _require_code(args):
    code = _code_from_args(args)
    if code is None:
        raise CliError("need --config FILE or --preset NAME", EXIT_CONFIG)
    return code


# -- argument wiring ---------------------------------------------------------

def _add_code_args(p, need_field_flags=True):
    p.add_argument("--config", help="code config JSON")
    p.add_argument("--preset", choices=sorted(PRESET_CONFIGS),
                   help="bundled code preset")
    if need_field_flags:
        p.add_argument("--p", type=int, help="field characteristic")
        p.add_argument("--m", type=int, help="extension degree")
        p.add_argument("--poly", help="primitive polynomial coefficients, ascending, comma-separated")
        p.add_argument("--ndim", type=int, help="number of variables N")
        p.add_argument("--order", default="lex",
                       choices=("lex", "grlex", "weighted_grlex"))
        p.add_argument("--weights", help="weights for weighted_grlex, comma-separated")


def build_parser():
    root = _Parser(prog="avcodes",
                   description="finite-field transforms and affine variety codes")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-table", help="print the log/antilog table")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_field_table)

    for name, inverse in (("dft", False), ("idft", True)):
        p = sub.add_parser(name, help="generalized %s" % name.upper())
        _add_code_args(p)
        p.add_argument("--direct", action="store_true",
                       help="defining formulas instead of the fast path")
        p.add_argument("--grid", action="store_true", help="dense grid output")
        p.add_argument("--output")
        p.add_argument("input", help="input file or - for stdin")
        p.set_defaults(fn=lambda a, inv=inverse: cmd_dft(a, inv))

    p = sub.add_parser("gb", help="vanishing-ideal basis of a point set")
    _add_code_args(p)
    p.add_argument("--output")
    p.add_argument("points", help="point list file")
    p.set_defaults(fn=cmd_gb)

    p = sub.add_parser("extend", help="prolong a delta-set spectrum over A")
    _add_code_args(p)
    p.add_argument("--points", required=True, help="point list file")
    p.add_argument("--output")
    p.add_argument("input", help="seed spectrum file")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("encode", help="non-systematic encoding")
    _add_code_args(p, need_field_flags=False)
    p.add_argument("--output")
    p.add_argument("input", help="information spectrum file (support in D\\B)")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("encode-sys", help="systematic (DFT) encoding")
    _add_code_args(p, need_field_flags=False)
    p.add_argument("--phi", required=True, help="redundant position file")
    p.add_argument("--output")
    p.add_argument("input", help="information word file (over Psi \\ Phi)")
    p.set_defaults(fn=cmd_encode_sys)

    p = sub.add_parser("decode", help="recover the information spectrum")
    _add_code_args(p, need_field_flags=False)
    p.add_argument("--erasures", help="erasure point file")
    p.add_argument("--t-max", type=_nonnegative, default=None)
    p.add_argument("--output")
    p.add_argument("input", help="received word file ('?' marks an erasure)")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("decode-word", help="split received word into codeword + error")
    _add_code_args(p, need_field_flags=False)
    p.add_argument("--erasures")
    p.add_argument("--t-max", type=_nonnegative, default=None)
    p.add_argument("--output")
    p.add_argument("input")
    p.set_defaults(fn=cmd_decode_word)

    p = sub.add_parser("check", help="test dual-code membership")
    _add_code_args(p, need_field_flags=False)
    p.add_argument("--output")
    p.add_argument("input")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("examples", help="run the bundled golden vectors")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_examples)

    p = sub.add_parser("bench", help="field-operation counts on the presets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="one JSON document with per-step counts, times and meta")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_bench)

    return root


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except UndecodableError as exc:
        print("undecodable: %s" % exc, file=sys.stderr)
        return EXIT_UNDECODABLE
    except VanishingError as exc:
        print("undecodable: %s" % exc, file=sys.stderr)
        return EXIT_UNDECODABLE
    except (CodeConfigError, FieldError, MapError, IndexError_, IdealError,
            DomainError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
