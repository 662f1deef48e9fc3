import json

from avcodes.cli import main, EXIT_OK, EXIT_UNDECODABLE, EXIT_CONFIG, EXIT_IO
from avcodes.codes import preset, PRESET_CONFIGS, encode_nonsystematic
from avcodes.transform import Spectrum, spectrum_lines
from avcodes.golden import RS_OMEGA_WORD, RS_SEED, RS_EXTENSION


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


def test_dft_grid_output(tmp_path, capsys):
    word_file = tmp_path / "w.txt"
    word_file.write_text(" ".join(str(v) for v in RS_OMEGA_WORD) + "\n")
    code, out, _ = run(capsys, "dft", *F8_FLAGS, "--grid", str(word_file))
    assert code == EXIT_OK
    assert len(out.splitlines()) == 1  # one row for N = 1


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


def test_io_error_exit(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(PRESET_CONFIGS["rs-like"]))
    rc, _, err = run(capsys, "decode", "--config", str(cfg), str(tmp_path / "missing.txt"))
    assert rc == EXIT_IO


def test_examples_subcommand(capsys):
    rc, out, _ = run(capsys, "examples")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert all(ln.startswith("PASS") for ln in lines[:-1])
    assert lines[-1].endswith("0 failures")


def test_bench_subcommand(capsys):
    rc, out, _ = run(capsys, "bench", "--seed", "5")
    assert rc == EXIT_OK
    assert "fast-idft bound" in out
    assert "idft q=9 N=2" in out
    # reproducible byte for byte
    rc, out2, _ = run(capsys, "bench", "--seed", "5")
    assert out2 == out


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
        next(lines)  # fast-idft bound
        assert list(rec["ms"]) == list(rec["steps"])
        assert rec["meta"]["code"] == name and "candidates" in rec["meta"]["locator"]
    assert next(lines) == "idft q=9 N=2: fast %d ops, direct %d ops" % (
        doc["idft"]["fast_ops"], doc["idft"]["direct_ops"])
    path = tmp_path / "bench.json"
    rc, out, _ = run(capsys, "bench", "--seed", "5", "--json", "--output", str(path))
    assert rc == EXIT_OK and out == ""
    again = json.loads(path.read_text())
    assert again["presets"].keys() == doc["presets"].keys()
    # the basis layers: keys per preset, and op counts that repeat
    for name, rec in doc["presets"].items():
        layers = rec["layers"]
        sys_phi = {"check_set_basis"} if name in ("hermitian", "hcrs") else set()
        assert set(layers) == {"vanishing_gb"} | sys_phi
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
