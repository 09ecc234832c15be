import json

import pytest

from weaksdp import NativeBundle, large_instance, read_native, write_native
from weaksdp.cli import main


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


def test_export_formats(me_bundle, tmp_path):
    dat = tmp_path / "me.dat-s"
    cbf = tmp_path / "me.cbf"
    assert main(["export", str(me_bundle), "--format", "dat-s", "--out", str(dat)]) == 0
    assert main(["export", str(me_bundle), "--format", "cbf", "--out", str(cbf)]) == 0
    assert dat.read_text().splitlines()[-1] == "2 1 1 2 1"
    assert "PSDVAR" in cbf.read_text()


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


def test_witness_requires_certificate(tmp_path):
    raw, _, _ = large_instance()
    path = tmp_path / "nocert.wsdp"
    write_native(NativeBundle(instance=raw), path)
    assert main(["witness", str(path)]) == 1


def test_usage_error_exit_code():
    assert main(["generate", "--n", "not-a-number"]) == 2
    assert main(["no-such-command"]) == 2
