import json
import pathlib
import time

from avcodes.cli import main, EXIT_OK, EXIT_UNDECODABLE, EXIT_CONFIG, EXIT_IO
from avcodes.codes import preset, PRESET_CONFIGS, encode_nonsystematic
from avcodes.transform import Spectrum, spectrum_lines, word_lines
from avcodes.golden import RS_OMEGA_WORD, RS_SEED, RS_EXTENSION
from test_codes import off_curve_codeword


F8_FLAGS = ["--p", "2", "--m", "3", "--poly", "1,1,0,1", "--ndim", "1"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_table(capsys):
    code, out, _ = run(capsys, "field-table", "--p", "2", "--m", "3", "--poly", "1,1,0,1")
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[1] == "-1 -> 0:0:0"
    assert "3 -> 1:1:0" in lines  # alpha^3 = 1 + alpha


def test_dft_idft_roundtrip(tmp_path, capsys):
    word_file = tmp_path / "w.txt"
    word_file.write_text(" ".join(str(v) for v in RS_OMEGA_WORD) + "\n")
    code, out, _ = run(capsys, "dft", *F8_FLAGS, str(word_file))
    assert code == EXIT_OK
    want = dict(RS_SEED)
    want.update(RS_EXTENSION)
    assert out.splitlines() == ["(%d) -> %d" % (a, want[(a,)]) for a in range(8)]
    spec_file = tmp_path / "s.txt"
    spec_file.write_text(out)
    code, out2, _ = run(capsys, "idft", *F8_FLAGS, str(spec_file))
    assert code == EXIT_OK
    got = [ln.split("->")[1].strip() for ln in out2.splitlines()]
    assert got == [str(v) for v in RS_OMEGA_WORD]
    # direct path gives identical bytes
    code, out3, _ = run(capsys, "idft", "--direct", *F8_FLAGS, str(spec_file))
    assert out3 == out2
    # so does the spectrum as a flat symbol list over A
    spec_file.write_text(" ".join(str(want[(a,)]) for a in range(8)) + "\n")
    assert run(capsys, "idft", *F8_FLAGS, str(spec_file)) == (EXIT_OK, out2, "")


def test_dft_grid_output(tmp_path, capsys):
    word_file = tmp_path / "w.txt"
    word_file.write_text(" ".join(str(v) for v in RS_OMEGA_WORD) + "\n")
    code, out, _ = run(capsys, "dft", *F8_FLAGS, "--grid", str(word_file))
    assert code == EXIT_OK
    assert len(out.splitlines()) == 1  # one row for N = 1


def test_malformed_integer_lists_exit_3(tmp_path, capsys):
    # each used to end in a ValueError traceback with exit 1
    pts = tmp_path / "pts.txt"
    pts.write_text("(-1)\n(1)\n")
    for bad in ("1,a", "1,,1", "1,b"):
        field = ["--p", "2", "--m", "3", "--ndim", "1"]
        for argv, flag in ((["field-table", "--p", "2", "--m", "3", "--poly", bad], "--poly"),
                           (["gb", *field, "--poly", bad, str(pts)], "--poly"),
                           (["gb", *F8_FLAGS, "--order", "weighted_grlex", "--weights", bad,
                             str(pts)], "--weights")):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (EXIT_CONFIG, "")
            assert err == "config error: argument %s: expected comma-separated integers, got %r\n" % (
                flag, bad)


def test_empty_index_component_exits_3(tmp_path, capsys):
    # "(,1)" used to be read as the point (1), and "(1,) -> 2" as the
    # entry at (1)
    pts = tmp_path / "pts.txt"
    pts.write_text("(-1)\n(,1)\n(3)\n")
    assert run(capsys, "gb", *F8_FLAGS, str(pts)) == (
        EXIT_CONFIG, "", "config error: bad multi-index '(,1)'\n")
    spec = tmp_path / "spec.txt"
    spec.write_text("".join("(%d%s) -> 0\n" % (a, "," if a == 1 else "") for a in range(8)))
    assert run(capsys, "idft", *F8_FLAGS, str(spec)) == (
        EXIT_CONFIG, "", "config error: bad multi-index '(1,) '\n")


def test_gb_and_extend(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("(-1)\n(1)\n(3)\n(6)\n")
    code, out, _ = run(capsys, "gb", *F8_FLAGS, str(pts))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "g0 = 3*x1 + 3*x1^2 + 2*x1^3 + 0*x1^4"
    assert out.splitlines()[1] == "delta = (0) (1) (2) (3)"
    seed = tmp_path / "seed.txt"
    seed.write_text("".join("(%d) -> %d\n" % (a, RS_SEED[(a,)]) for a in range(4)))
    code, out, _ = run(capsys, "extend", *F8_FLAGS, "--points", str(pts), str(seed))
    assert code == EXIT_OK
    want = dict(RS_SEED)
    want.update(RS_EXTENSION)
    assert out.splitlines() == ["(%d) -> %d" % (a, want[(a,)]) for a in range(8)]


def test_encode_decode_cycle(tmp_path, capsys, rng):
    code_obj = preset("hermitian")
    h = Spectrum(code_obj.field, 2,
                 {d: rng.randrange(-1, 8) for d in code_obj.info_support()})
    info = tmp_path / "info.txt"
    info.write_text("\n".join(spectrum_lines(h)) + "\n")
    rc, out, _ = run(capsys, "encode", "--preset", "hermitian", str(info))
    assert rc == EXIT_OK
    toks = out.split()
    assert len(toks) == 27
    # mark two erasures and inject one error
    toks[5] = "?"
    toks[9] = "?"
    toks[13] = str((int(toks[13]) + 1) % 8) if toks[13] != "-1" else "0"
    recv = tmp_path / "recv.txt"
    recv.write_text(" ".join(toks) + "\n")
    rc, out2, _ = run(capsys, "decode", "--preset", "hermitian", str(recv))
    assert rc == EXIT_OK
    assert sorted(out2.splitlines()) == sorted(spectrum_lines(h))
    rc, out3, _ = run(capsys, "decode-word", "--preset", "hermitian", str(recv))
    assert rc == EXIT_OK
    lines = out3.splitlines()
    assert lines[0].startswith("codeword ") and lines[1].startswith("error ")
    assert lines[2].startswith("located ")
    # determinism, byte for byte
    rc, out4, _ = run(capsys, "decode-word", "--preset", "hermitian", str(recv))
    assert out4 == out3


def test_encode_sys_cli(tmp_path, capsys, rng):
    from avcodes.golden import HERM_SYS_PHI

    code_obj = preset("hermitian")
    phi_file = tmp_path / "phi.txt"
    phi_file.write_text("\n".join("(%d,%d)" % p for p in HERM_SYS_PHI) + "\n")
    info_pts = [p for p in code_obj.psi.points if p not in set(HERM_SYS_PHI)]
    info_file = tmp_path / "info.txt"
    vals = [rng.randrange(-1, 8) for _ in info_pts]
    info_file.write_text(" ".join(str(v) for v in vals) + "\n")
    rc, out, _ = run(capsys, "encode-sys", "--preset", "hermitian",
                     "--phi", str(phi_file), str(info_file))
    assert rc == EXIT_OK
    toks = out.split()
    assert len(toks) == 27
    by_point = dict(zip(code_obj.psi.points, toks))
    assert [by_point[p] for p in info_pts] == [str(v) for v in vals]
    cw = tmp_path / "cw.txt"
    cw.write_text(out)
    rc, _, _ = run(capsys, "check", "--preset", "hermitian", str(cw))
    assert rc == EXIT_OK


def test_check_non_codeword(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(" ".join(["0"] * 26 + ["1"]) + "\n")
    rc, out, _ = run(capsys, "check", "--preset", "hermitian", str(bad))
    assert rc == EXIT_UNDECODABLE
    assert out.strip() == "not a codeword"


def test_check_word_off_the_code(tmp_path, capsys):
    # a word with points off the Hermitian curve is no codeword of it,
    # though its syndrome over all of its points is zero
    grid = tmp_path / "grid.txt"
    grid.write_text("\n".join(word_lines(off_curve_codeword())) + "\n")
    rc, out, _ = run(capsys, "check", "--preset", "hermitian", str(grid))
    assert rc == EXIT_UNDECODABLE
    assert out.strip() == "not a codeword"


def test_undecodable_exit(tmp_path, capsys, rng):
    code_obj = preset("rs-like")
    h = Spectrum(code_obj.field, 1, {(2,): 1, (3,): 2})
    cw = encode_nonsystematic(h, code_obj)
    toks = [str(cw.values[p]) for p in code_obj.psi.points]
    toks[0] = str((int(toks[0]) + 1) % 7)
    recv = tmp_path / "recv.txt"
    recv.write_text(" ".join(toks) + "\n")
    rc, _, err = run(capsys, "decode", "--preset", "rs-like", "--t-max", "0", str(recv))
    assert rc == EXIT_UNDECODABLE
    assert "undecodable" in err


def test_negative_t_max_is_a_config_error(capsys):
    for cmd in ("decode", "decode-word"):
        rc, _, err = run(capsys, cmd, "--preset", "rs-like", "--t-max", "-1", "-")
        assert rc == EXIT_CONFIG
        assert "--t-max" in err and "nonnegative" in err


def test_config_error_exits(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc, _, err = run(capsys, "decode", "--config", str(bad), str(bad))
    assert rc == EXIT_CONFIG
    rc, _, err = run(capsys, "decode", str(bad))
    assert rc == EXIT_CONFIG
    rc, _, err = run(capsys, "nonsense-command")
    assert rc == EXIT_CONFIG


def test_oversized_fields_exit_3_at_once(tmp_path, capsys):
    # each used to hang (trial division of p) or end in a traceback
    # (formatting p ** m, or json.load on a 5,000-digit p)
    from test_codes import _hcrs_config_text

    configs = []
    for k, p in enumerate((str(2 ** 61 - 1), "1" + "0" * 4999)):
        configs.append(tmp_path / ("big%d.json" % k))
        configs[-1].write_text(_hcrs_config_text(p))
    for argv in (["field-table", "--p", "3", "--m", "2000000", "--poly", "1,1"],
                 ["field-table", "--p", str(2 ** 61 - 1), "--m", "1", "--poly", "1,1"],
                 *(["encode", "--config", str(c), str(c)] for c in configs)):
        start = time.perf_counter()
        rc, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: ") and len(err.splitlines()) == 1


def test_io_error_exit(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(PRESET_CONFIGS["rs-like"]))
    rc, _, err = run(capsys, "decode", "--config", str(cfg), str(tmp_path / "missing.txt"))
    assert rc == EXIT_IO


def test_examples_failure_exit(capsys, monkeypatch):
    from avcodes import cli

    monkeypatch.setattr(cli, "run_examples",
                        lambda: [("a", True, ""), ("b", False, "bad value")])
    rc, out, _ = run(capsys, "examples")
    assert rc == EXIT_UNDECODABLE
    assert out.splitlines() == ["PASS a", "FAIL b  (bad value)",
                                "2 golden vectors, 1 failures"]


def test_malformed_input_exits_without_traceback(tmp_path, capsys):
    from avcodes.golden import HERM_SYS_PHI
    from avcodes.transform import omega_space

    code_obj = preset("hermitian")
    foreign = next(p for p in omega_space(code_obj.field, 2) if p not in code_obj.psi.points)
    non_generic = [(-1, 2), (1, 3), (2, 4), (3, 0), (3, 1), (4, 4), (4, 5), (7, 0), (7, 3)]

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def points(name, pts):
        return write(name, "".join("(%d,%d)\n" % p for p in pts))

    def config(name, **change):
        return write(name, json.dumps(dict(PRESET_CONFIGS["hermitian"], **change)))

    info19 = write("info19.txt", " ".join(["0"] * 19) + "\n")
    info18 = write("info18.txt", " ".join(["0"] * 18) + "\n")
    zeros = write("zeros.txt", " ".join(["0"] * 27) + "\n")
    erased = write("erased.txt", " ".join(["?"] + ["0"] * 26) + "\n")
    sys_cmd = ["encode-sys", "--preset", "hermitian", "--phi"]
    f8_pts = write("f8_pts.txt", "(-1)\n(1)\n(3)\n(6)\n")
    gf4_n3 = ["--p", "2", "--m", "2", "--poly", "1,1,1", "--ndim", "3"]
    cases = [
        # |Phi| = 8, |B| = 9
        (sys_cmd + [points("phi8.txt", HERM_SYS_PHI[:8]), info19], EXIT_CONFIG, "|B| = 9"),
        (sys_cmd + [points("phi_out.txt", HERM_SYS_PHI[:8] + (foreign,)), info19],
         EXIT_CONFIG, "not a subset"),
        (sys_cmd + [points("phi_ng.txt", non_generic), info18], EXIT_CONFIG, "not generic"),
        (["decode-word", "--preset", "hermitian", "--erasures",
          points("er.txt", [code_obj.psi.points[0], foreign]), zeros],
         EXIT_UNDECODABLE, "is not a code point"),
        # a one-symbol word over the one point of GF(8)^0
        (["dft", *F8_FLAGS[:-1], "0", write("one.txt", "0\n")], EXIT_CONFIG, "--ndim"),
        (["decode", "--config", config("empty_b.json", B=[]), zeros],
         EXIT_CONFIG, "B is empty"),
        (["encode", "--config",
          config("n0.json", N=0, points="full-grid", order={"kind": "lex"}), zeros],
         EXIT_CONFIG, "N >= 1"),
        (["check", "--preset", "hermitian", info19], EXIT_CONFIG, "expected 27 symbols, got 19"),
        (["idft", *F8_FLAGS, write("s7.txt", "0 " * 7)], EXIT_CONFIG,
         "expected 8 symbols over A, got 7"),
        (["dft", *F8_FLAGS, write("w_erased.txt", "? " + "0 " * 7)], EXIT_CONFIG,
         "erasure marks are not meaningful for a transform"),
        (sys_cmd + [points("phi9.txt", HERM_SYS_PHI), write("info_erased.txt", "? " + "0 " * 17)],
         EXIT_CONFIG, "information word cannot contain erasures"),
        (["check", "--preset", "hermitian", erased], EXIT_CONFIG,
         "cannot check a word with erasures"),
        (["extend", *F8_FLAGS, "--points", f8_pts, write("seed3.txt", "(0) -> 1\n(1) -> 2\n")],
         EXIT_CONFIG, "seed spectrum must be indexed exactly by the delta set ((0) (1) (2) (3))"),
        (["dft", *F8_FLAGS[:-2], zeros], EXIT_CONFIG, "need --ndim with explicit field flags"),
        (["dft", "--p", "2", "--m", "3", "--ndim", "1", zeros], EXIT_CONFIG,
         "need --p, --m and --poly (or --config/--preset)"),
        (["idft", *gf4_n3, "--grid", write("s64.txt", "0 " * 64)], EXIT_CONFIG,
         "grid form is only defined for N <= 2"),
    ]
    for argv, want, fragment in cases:
        rc, _, err = run(capsys, *argv)
        assert (rc, len(err.splitlines())) == (want, 1), argv
        assert fragment in err, err


def test_examples_subcommand(capsys):
    rc, out, _ = run(capsys, "examples")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert all(ln.startswith("PASS") for ln in lines[:-1])
    assert lines[-1].endswith("0 failures")


def test_bench_subcommand(capsys):
    rc, out, _ = run(capsys, "bench", "--seed", "5")
    assert rc == EXIT_OK
    assert "fast-idft bound" not in out
    assert "idft q=9 N=2" in out
    # reproducible byte for byte
    rc, out2, _ = run(capsys, "bench", "--seed", "5")
    assert out2 == out


def test_bench_seed0_is_pinned(capsys):
    # every op count of `avcodes bench --seed 0` on freshly built presets,
    # byte for byte; a change that moves a count on purpose regenerates
    # tests/data/bench_seed0.txt and says so
    rc, out, _ = run(capsys, "bench", "--seed", "0")
    assert rc == EXIT_OK
    assert out == (pathlib.Path(__file__).parent / "data" / "bench_seed0.txt").read_text()


def test_bench_json(tmp_path, capsys):
    rc, text, _ = run(capsys, "bench", "--seed", "5")
    rc2, out, _ = run(capsys, "bench", "--seed", "5", "--json")
    assert rc == rc2 == EXIT_OK
    doc = json.loads(out)
    assert sorted(doc["presets"]) == sorted(PRESET_CONFIGS)
    # the JSON steps are the counts the text mode prints
    lines = iter(text.splitlines())
    for name in sorted(PRESET_CONFIGS):
        rec = doc["presets"][name]
        assert next(lines).startswith(name + " ")
        for label, ops in rec["steps"].items():
            assert next(lines).split() == ["step", label, str(ops)]
        next(lines)  # total
        assert list(rec["ms"]) == list(rec["steps"])
        assert rec["meta"]["code"] == name and "votes" in rec["meta"]["locator"]
        # each preset is decoded once on a fresh code: every point set is built
        assert rec["meta"]["point_sets_reused"] is False
        # the error values come with the locator: no extension or IDFT step
        assert list(rec["steps"]) == ["transform", "locator", "subtract", "check"]
        assert not {"extension", "idft", "fast_idft_bound"} & set(rec["meta"])
    assert next(lines) == "idft q=9 N=2: fast %d ops, direct %d ops" % (
        doc["idft"]["fast_ops"], doc["idft"]["direct_ops"])
    path = tmp_path / "bench.json"
    rc, out, _ = run(capsys, "bench", "--seed", "5", "--json", "--output", str(path))
    assert rc == EXIT_OK and out == ""
    again = json.loads(path.read_text())
    assert again["presets"].keys() == doc["presets"].keys()
    # the layers: keys per preset, and op counts that repeat; a warm
    # systematic encode counts the information word's syndrome, the
    # product with Phi's map, the check and the negation
    for name, rec in doc["presets"].items():
        layers = rec["layers"]
        sys_phi = {"check_set_basis", "systematic_encode"} if name in ("hermitian", "hcrs") \
            else set()
        assert set(layers) == {"vanishing_gb"} | sys_phi
        if sys_phi:
            code = preset(name)
            n_b = len(code.b_list)
            assert layers["systematic_encode"]["ops"] == (
                n_b * code.n * (2 * code.ndim + 1) + n_b * (2 * n_b - 1) + n_b)
        for layer, row in layers.items():
            assert set(row) == {"ops", "ms"} and row["ops"] > 0 and row["ms"] >= 0
            assert again["presets"][name]["layers"][layer]["ops"] == row["ops"]


def test_config_file_pipeline(tmp_path, capsys, rng):
    cfg = tmp_path / "code.json"
    cfg.write_text(json.dumps(PRESET_CONFIGS["hermitian"]))
    code_obj = preset("hermitian")
    h = Spectrum(code_obj.field, 2,
                 {d: rng.randrange(-1, 8) for d in code_obj.info_support()})
    info = tmp_path / "info.txt"
    info.write_text("\n".join(spectrum_lines(h)) + "\n")
    rc, out1, _ = run(capsys, "encode", "--config", str(cfg), str(info))
    rc2, out2, _ = run(capsys, "encode", "--preset", "hermitian", str(info))
    assert rc == rc2 == EXIT_OK
    assert out1 == out2
