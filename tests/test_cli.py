import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import weaksdp
from weaksdp import NativeBundle, large_instance, read_native, read_sdpa, write_native
from weaksdp.cli import main
from weaksdp.exact import DIGIT_LIMIT, ORDER_LIMIT


@pytest.fixture()
def me_bundle(tmp_path):
    path = tmp_path / "me.wsdp"
    assert main(["paper-instance", "--name", "me", "--out", str(path)]) == 0
    return path


def test_generate_writes_verified_bundle(tmp_path, capsys):
    out = tmp_path / "gen.wsdp"
    code = main(["generate", "--n", "4", "--m", "3", "--k", "1", "--l", "1",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "verification: PASS" in captured
    bundle = read_native(out)
    assert bundle.certificate is not None


def test_generate_messy_records_provenance(tmp_path):
    out = tmp_path / "messy.wsdp"
    assert main(["generate", "--n", "4", "--m", "3", "--k", "1", "--l", "1",
                 "--seed", "7", "--messy", "--out", str(out)]) == 0
    bundle = read_native(out)
    assert bundle.certificate.row_ops != bundle.certificate.row_ops.identity(3)
    assert bundle.instance != bundle.certificate.clean


def test_generate_rejects_k_zero(tmp_path, capsys):
    code = main(["generate", "--n", "4", "--m", "3", "--k", "0", "--l", "1",
                 "--out", str(tmp_path / "x.wsdp")])
    assert code == 2


def test_verify_subcommand(me_bundle):
    assert main(["verify", str(me_bundle)]) == 0


def test_verify_json_output(me_bundle, capsys):
    assert main(["verify", str(me_bundle), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


def test_sieve_not_detected_on_disguised_system(tmp_path, capsys):
    raw, _, _ = large_instance()
    path = tmp_path / "large-raw.wsdp"
    write_native(NativeBundle(instance=raw), path)
    code = main(["sieve", str(path)])
    assert code == 1
    assert "NotDetected" in capsys.readouterr().out


def test_sieve_detects_clean_system(me_bundle, capsys):
    # the bundle stores the raw system; for the minimal example raw is not
    # echelon (b = (0, 2)), so sieve it through the clean export instead
    bundle = read_native(me_bundle)
    clean_path = me_bundle.parent / "clean.wsdp"
    write_native(NativeBundle(instance=bundle.certificate.clean), clean_path)
    assert main(["sieve", str(clean_path)]) == 0
    assert "k = 1" in capsys.readouterr().out


def test_witness_with_exact_tolerance(me_bundle, capsys):
    assert main(["witness", str(me_bundle), "--eps", "1/1000"]) == 0
    out = capsys.readouterr().out
    assert "psd point" in out
    assert "<= eps^2 = 1/1000000" in out


def test_witness_too_long_to_print_is_usage_error(me_bundle, capsys):
    # eps^2 has a denominator of 4,401 digits: nothing is printed, not even the header
    capsys.readouterr()
    assert main(["witness", str(me_bundle), "--eps", "1/1" + "0" * 2200]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert f"more than DIGIT_LIMIT = {DIGIT_LIMIT} digits" in captured.err


def test_export_formats(me_bundle, tmp_path):
    dat = tmp_path / "me.dat-s"
    cbf = tmp_path / "me.cbf"
    assert main(["export", str(me_bundle), "--format", "dat-s", "--out", str(dat)]) == 0
    assert main(["export", str(me_bundle), "--format", "cbf", "--out", str(cbf)]) == 0
    assert dat.read_text().splitlines()[-1] == "2 1 1 2 1"
    assert "PSDVAR" in cbf.read_text()


@pytest.mark.parametrize("label", ["\n1 1 1 1 7", "\r", "\u00e9", "\\"])
def test_export_keeps_the_label_on_one_ascii_line(me_bundle, tmp_path, label):
    bundle = read_native(me_bundle)
    write_native(replace(bundle, label=label), me_bundle)
    for fmt in ("dat-s", "cbf"):
        out = tmp_path / f"me.{fmt}"
        assert main(["export", str(me_bundle), "--format", fmt, "--out", str(out)]) == 0
        assert sum("label: " in line for line in out.read_bytes().decode("ascii").splitlines()) == 1
    assert read_sdpa(tmp_path / "me.dat-s") == bundle.instance


def test_render_writes_images(me_bundle, tmp_path):
    outdir = tmp_path / "imgs"
    assert main(["render", str(me_bundle), "--outdir", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "A_01.svg", "A_02.svg", "X_01.svg", "X_02.svg"
    ]


def test_library_subcommand(tmp_path):
    root = tmp_path / "lib"
    assert main(["library", "--root", str(root), "--profile", "smoke"]) == 0
    assert (root / "manifest.json").exists()


def test_paper_instances_all_names(tmp_path):
    for name in ("me", "large", "3x3", "motzkin"):
        assert main(["paper-instance", "--name", name,
                     "--out", str(tmp_path / f"{name}.wsdp")]) == 0


def test_three_by_three_alpha_flag(tmp_path):
    from fractions import Fraction

    out = tmp_path / "a.wsdp"
    assert main(["paper-instance", "--name", "3x3", "--alpha=-2/3",
                 "--out", str(out)]) == 0
    bundle = read_native(out)
    assert bundle.certificate.clean.A[1].at(1, 3) == Fraction(-2, 3)


def test_missing_file_is_io_error(capsys):
    assert main(["verify", "/nonexistent/path.wsdp"]) == 3


def test_parse_error_is_io_error(tmp_path):
    bad = tmp_path / "bad.wsdp"
    bad.write_text("not json")
    assert main(["verify", str(bad)]) == 3


def test_zero_denominator_is_parse_error(me_bundle, capsys):
    doc = json.loads(me_bundle.read_text())
    doc["instance"]["b"][0] = "1/0"
    me_bundle.write_text(json.dumps(doc))
    assert main(["verify", str(me_bundle)]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_non_integer_k_is_parse_error(me_bundle, capsys):
    doc = json.loads(me_bundle.read_text())
    doc["certificate"]["k"] = 1.0
    me_bundle.write_text(json.dumps(doc))
    assert main(["verify", "--json", str(me_bundle)]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_string_in_place_of_a_list_is_parse_error(me_bundle, capsys):
    # "02" iterates like ["0", "2"], the stored right-hand side
    doc = json.loads(me_bundle.read_text())
    doc["instance"]["b"] = "02"
    me_bundle.write_text(json.dumps(doc))
    assert main(["verify", "--json", str(me_bundle)]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_json_number_is_parse_error(me_bundle, capsys, literal):
    # json reads each of them as a float, but none is JSON (RFC 8259)
    doc = json.loads(me_bundle.read_text())
    doc["generation"] = {"seed": "@@"}
    me_bundle.write_text(json.dumps(doc).replace('"@@"', literal))
    assert main(["verify", str(me_bundle)]) == 3
    err = capsys.readouterr().err
    assert "parse error" in err and "Traceback" not in err


def test_repeated_block_index_is_parse_error(me_bundle, capsys):
    doc = json.loads(me_bundle.read_text())
    doc["certificate"]["p_blocks"] = [[1, 1], []]
    me_bundle.write_text(json.dumps(doc))
    assert main(["verify", "--json", str(me_bundle)]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "sieve"])
def test_non_ascii_bundle_is_parse_error(me_bundle, capsys, command):
    doc = json.loads(me_bundle.read_text())
    doc["label"] = "m\u00e9"
    me_bundle.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert main([command, str(me_bundle)]) == 3
    assert "non-ASCII byte on line 1" in capsys.readouterr().err


def test_non_ascii_sdpa_file_is_parse_error(me_bundle, tmp_path, capsys):
    # the CLI reads bundles only, so an SDPA file given to it fails as one
    dat = tmp_path / "me.dat-s"
    assert main(["export", str(me_bundle), "--format", "dat-s", "--out", str(dat)]) == 0
    dat.write_text("* caf\u00e9\n" + dat.read_text(), encoding="utf-8")
    assert main(["verify", str(dat)]) == 3
    assert "non-ASCII byte on line 1" in capsys.readouterr().err


def test_deeply_nested_json_is_parse_error(tmp_path, capsys):
    depth = 100_000
    path = tmp_path / "deep.wsdp"
    path.write_text('{"schema": "wsdp/1", "instance": ' + "[" * depth + "]" * depth + "}")
    assert main(["verify", str(path)]) == 3
    assert "nested too deeply" in capsys.readouterr().err


def test_witness_requires_certificate(tmp_path):
    raw, _, _ = large_instance()
    path = tmp_path / "nocert.wsdp"
    write_native(NativeBundle(instance=raw), path)
    assert main(["witness", str(path)]) == 1


def test_usage_error_exit_code():
    assert main(["generate", "--n", "not-a-number"]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("args, message", [
    (["witness", "ME", "--eps", "0"], "argument --eps: must be > 0"),
    (["witness", "ME", "--eps=-1/2"], "argument --eps: must be > 0"),
    (["paper-instance", "--name", "3x3", "--alpha", "0"], "argument --alpha: must be nonzero"),
])
def test_out_of_range_rational_flag_is_usage_error(me_bundle, capsys, args, message):
    # a value in the rational grammar but outside the flag's range is a usage error too
    assert main([str(me_bundle) if arg == "ME" else arg for arg in args]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1_0", "+5", " 6", "6 ", "\u0665", "5\n", "0x5", "5.0"])
@pytest.mark.parametrize("flag", ["--n", "--m", "--k", "--l", "--seed", "--entry-range"])
def test_integer_flags_take_only_ascii_digits(tmp_path, flag, text):
    # every integer flag is -?[0-9]+; int() alone would take these
    flags = {"--n": "6", "--m": "5", "--k": "1", "--l": "1", "--seed": "7", "--entry-range": "4"}
    flags[flag] = text
    out = tmp_path / "x.wsdp"
    assert main(["generate", "--out", str(out)] + [v for item in flags.items() for v in item]) == 2
    assert not out.exists()


def test_negative_seed_is_in_the_grammar(tmp_path):
    out = tmp_path / "x.wsdp"
    assert main(["generate", "--n", "4", "--m", "3", "--k", "1", "--l", "1", "--seed=-7",
                 "--out", str(out)]) == 0


def test_order_over_the_limit_is_parse_error(me_bundle, capsys):
    doc = json.loads(me_bundle.read_text())
    doc["instance"].update(n=ORDER_LIMIT + 1, b=[], matrices=[])
    me_bundle.write_text(json.dumps(doc))
    assert main(["verify", "--json", str(me_bundle)]) == 3
    assert f"over the limit of {ORDER_LIMIT}" in capsys.readouterr().err


def test_negative_order_is_parse_error(me_bundle, capsys):
    doc = json.loads(me_bundle.read_text())
    doc["instance"].update(n=-3, b=[], matrices=[])
    me_bundle.write_text(json.dumps(doc))
    assert main(["verify", "--json", str(me_bundle)]) == 3
    assert "n must be a positive order, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("x_sequence", [[], []], "X_1 has order 0, expected the clean order 2"),
    ("row_ops", [["1"]], "row_ops must be 2 x 2, got 1 x 1"),
    ("transform", [["1"]], "transform must be 2 x 2, got 1 x 1"),
])
def test_certificate_of_the_wrong_shape_is_parse_error(me_bundle, capsys, field, value, message):
    doc = json.loads(me_bundle.read_text())
    doc["certificate"][field] = value
    me_bundle.write_text(json.dumps(doc))
    assert main(["verify", "--json", str(me_bundle)]) == 3
    assert message in capsys.readouterr().err


def test_clean_instance_of_another_shape_is_parse_error(me_bundle, capsys):
    doc = json.loads(me_bundle.read_text())
    clean = doc["certificate"]["clean"]
    clean.update(b=clean["b"][:1], matrices=clean["matrices"][:1])
    me_bundle.write_text(json.dumps(doc))
    assert main(["verify", "--json", str(me_bundle)]) == 3
    assert "clean instance has m = 1 and n = 2, expected the raw m = 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "sieve"])
def test_over_long_json_integer_is_parse_error(me_bundle, capsys, command):
    # json.dumps cannot spell a 5000-digit int under the default limit, so splice the text
    text = me_bundle.read_text()
    assert text.count('"n": 2') == 2
    me_bundle.write_text(text.replace('"n": 2', '"n": ' + "1" * 5000, 1))
    assert main([command, str(me_bundle)]) == 3
    assert "more than 4300 digits" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "sieve"])
def test_digit_limit_does_not_follow_the_environment(me_bundle, command):
    # with CPython's own limit switched off, the package's limit still holds
    doc = json.loads(me_bundle.read_text())
    doc["instance"]["b"][0] = "1" * 5000
    me_bundle.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0",
               PYTHONPATH=str(Path(weaksdp.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "weaksdp", command, str(me_bundle)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 3, run.stderr
    assert "more than 4300 digits" in run.stderr


@pytest.mark.parametrize("where", ["value", "literal"])
def test_a_lower_interpreter_digit_limit_applies(me_bundle, where):
    # under PYTHONINTMAXSTRDIGITS=640, 1000 digits are within DIGIT_LIMIT but not
    # within the interpreter's limit: a parse error, not a traceback
    text = me_bundle.read_text()
    if where == "value":
        doc = json.loads(text)
        doc["instance"]["b"][0] = "1" * 1000
        text = json.dumps(doc)
    else:
        text = text.replace('"n": 2', '"n": ' + "1" * 1000, 1)
    me_bundle.write_text(text)
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640",
               PYTHONPATH=str(Path(weaksdp.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "weaksdp", "verify", str(me_bundle)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 3, run.stderr
    assert run.stderr.startswith("parse error: ") and "Traceback" not in run.stderr
    assert "640 digits" in run.stderr
