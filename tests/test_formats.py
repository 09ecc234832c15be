import json
from fractions import Fraction
from pathlib import Path

import pytest

from weaksdp import (
    GenConfig,
    NativeBundle,
    SdpInstance,
    Structure,
    SymMatrix,
    cell_region,
    generate,
    me_instance,
    read_native,
    read_sdpa,
    render_blocks,
    write_cbf,
    write_native,
    write_sdpa,
)
from weaksdp.formats import NativeFormatError, SdpaFormatError, _decimal_exact, _decimal_rounded


def parse_cbf(path):
    """Independent minimal CBF reader used as the emission oracle."""
    lines = [l for l in Path(path).read_text().splitlines()]
    sections: dict[str, list[str]] = {}
    current = None
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped[0].isalpha() and stripped.upper() == stripped and not stripped[0].isdigit():
            current = stripped.split()[0]
            sections.setdefault(current, [])
            if len(stripped.split()) > 1 and current in ("L=",):
                sections[current].append(stripped)
            continue
        sections[current].append(stripped)
    fcoord = []
    for entry in sections.get("FCOORD", [])[1:]:
        ci, var, i, j, v = entry.split()
        fcoord.append((int(ci), int(i), int(j), Fraction(v)))
    bcoord = []
    for entry in sections.get("BCOORD", [])[1:]:
        ci, v = entry.split()
        bcoord.append((int(ci), Fraction(v)))
    header = sections["CON"]
    return {
        "psdvar_order": int(sections["PSDVAR"][1]),
        "con": header,
        "fcoord": sorted(fcoord),
        "bcoord": sorted(bcoord),
    }


class TestValueFormatting:
    def test_exact_decimals(self):
        assert _decimal_exact(Fraction(3)) == "3"
        assert _decimal_exact(Fraction(-7, 2)) == "-3.5"
        assert _decimal_exact(Fraction(1, 40)) == "0.025"
        assert _decimal_exact(Fraction(1, 3)) is None

    def test_rounded_decimals(self):
        assert _decimal_rounded(Fraction(1, 3)) == "0.33333333333333333"
        assert _decimal_rounded(Fraction(-200, 3)) == "-66.666666666666667"
        assert Fraction(_decimal_rounded(Fraction(2, 3))) == Fraction(
            "0.66666666666666667"
        )


class TestSdpa:
    def test_minimal_example_layout(self, tmp_path):
        raw, _ = me_instance()
        path = tmp_path / "me.dat-s"
        write_sdpa(raw, path)
        data = [l for l in path.read_text().splitlines() if not l.startswith("*")]
        assert data[0] == "2"
        assert data[1] == "1"
        assert data[2] == "2"
        assert data[3] == "0 2"
        assert data[4:] == ["1 1 1 1 1", "2 1 1 2 1"]

    def test_roundtrip_identity_on_integers(self, tmp_path):
        instance = generate(GenConfig(n=5, m=4, k=1, l=2, seed=2, messy=True))
        path = tmp_path / "t.dat-s"
        write_sdpa(instance.raw, path)
        assert read_sdpa(path) == instance.raw

    def test_roundtrip_identity_on_printed_integer_system(self, tmp_path):
        from weaksdp import large_instance

        raw, _, _ = large_instance()
        path = tmp_path / "large.dat-s"
        write_sdpa(raw, path)
        assert read_sdpa(path) == raw

    def test_empty_constraint_instance_roundtrips(self, tmp_path):
        inst = SdpInstance(2, (), ())
        path = tmp_path / "empty.dat-s"
        write_sdpa(inst, path)
        assert read_sdpa(path) == inst

    def test_all_zero_matrix_roundtrips(self, tmp_path):
        inst = SdpInstance(2, (SymMatrix.zeros(2),), (0,))
        path = tmp_path / "zero.dat-s"
        write_sdpa(inst, path)
        assert read_sdpa(path) == inst

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.dat-s"
        path.write_text("2\n1\n2\n0 2\n1 1 1 1\n")
        with pytest.raises(SdpaFormatError) as err:
            read_sdpa(path)
        assert err.value.line == 5

    @pytest.mark.parametrize("size", ["-3", "0"])
    def test_non_positive_block_size_rejected(self, tmp_path, size):
        # SDPA writes a diagonal (LP) block with a negative size; it must not
        # be read as a dense PSD block of order |size|
        path = tmp_path / "lp.dat-s"
        path.write_text(f"* an LP block\n1\n1\n{size}\n1\n1 1 1 1 1\n")
        with pytest.raises(SdpaFormatError) as err:
            read_sdpa(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("value", ["1/0", "1/3", "1e3", "1E-2", "+1", ".5", "1.", "inf",
                                       "nan", "1_0", "0x10",
                                       pytest.param("1" * 5000, id="5000-digits")])
    @pytest.mark.parametrize("where", ["rhs", "entry"])
    def test_value_outside_decimal_grammar_rejected(self, tmp_path, value, where):
        rhs, entry = (value, "1") if where == "rhs" else ("1", value)
        path = tmp_path / "bad.dat-s"
        path.write_text(f"1\n1\n2\n{rhs}\n1 1 1 1 {entry}\n")
        with pytest.raises(SdpaFormatError) as err:
            read_sdpa(path)
        assert err.value.line == (4 if where == "rhs" else 5)

    def test_decimal_values_read_exactly(self, tmp_path):
        path = tmp_path / "dec.dat-s"
        path.write_text("1\n1\n2\n-0.125\n1 1 1 2 2.50\n")
        inst = read_sdpa(path)
        assert inst.b == (Fraction(-1, 8),)
        assert inst.A[0].at(2, 1) == Fraction(5, 2)

    def test_entry_listed_on_both_sides_of_the_diagonal(self, tmp_path):
        # both (i, j) and (j, i) set the symmetric pair; the later line wins
        path = tmp_path / "both.dat-s"
        path.write_text("1\n1\n2\n1\n1 1 1 2 3\n1 1 2 1 5\n1 1 2 2 0.5\n1 1 2 2 -1\n")
        assert read_sdpa(path) == SdpInstance(2, (SymMatrix.from_rows([[0, 5], [5, -1]]),), (1,))
        path.write_text("1\n1\n2\n1\n1 1 2 1 7\n1 1 1 2 7\n1 1 1 1 2\n1 1 1 1 0\n")
        assert read_sdpa(path) == SdpInstance(2, (SymMatrix.from_rows([[0, 7], [7, 0]]),), (1,))

    def test_lossy_flag_for_nonterminating_values(self, tmp_path):
        inst = SdpInstance(1, (SymMatrix.diag([Fraction(1, 3)]),), (0,))
        path = tmp_path / "lossy.dat-s"
        write_sdpa(inst, path)
        assert "* lossy" in path.read_text()


class TestCbf:
    def test_minimal_example_sections(self, tmp_path):
        raw, _ = me_instance()
        path = tmp_path / "me.cbf"
        write_cbf(raw, path)
        doc = parse_cbf(path)
        assert doc["psdvar_order"] == 2
        assert doc["con"][0].split() == ["2", "1"]
        assert doc["fcoord"] == [(0, 0, 0, 1), (1, 1, 0, 1)]
        assert doc["bcoord"] == [(1, -2)]

    def test_reparse_reproduces_coefficient_multiset(self, tmp_path):
        instance = generate(GenConfig(n=6, m=5, k=2, l=2, seed=5, messy=True))
        raw = instance.raw
        path = tmp_path / "x.cbf"
        write_cbf(raw, path)
        doc = parse_cbf(path)
        expected = sorted(
            (ci, i - 1, j - 1, raw.A[ci].at(i, j))
            for ci in range(raw.m)
            for i in range(1, raw.n + 1)
            for j in range(1, i + 1)
            if raw.A[ci].at(i, j) != 0
        )
        assert doc["fcoord"] == expected
        assert doc["bcoord"] == sorted(
            (ci, -v) for ci, v in enumerate(raw.b) if v != 0
        )

    def test_zero_rhs_omits_bcoord(self, tmp_path):
        inst = SdpInstance(2, (SymMatrix.identity(2),), (0,))
        path = tmp_path / "z.cbf"
        write_cbf(inst, path)
        assert "BCOORD" not in path.read_text()


class TestNative:
    def test_certificate_bundle_roundtrips(self, tmp_path):
        raw, cert = me_instance()
        bundle = NativeBundle(instance=raw, certificate=cert,
                              generation={"seed": 1, "config": {"n": 2}}, label="me")
        path = tmp_path / "me.wsdp"
        write_native(bundle, path)
        assert read_native(path) == bundle
        write_native(read_native(path), tmp_path / "again.wsdp")
        assert (tmp_path / "again.wsdp").read_bytes() == path.read_bytes()

    def test_bundle_without_certificate_roundtrips(self, tmp_path):
        raw, _ = me_instance()
        bundle = NativeBundle(instance=raw)
        path = tmp_path / "plain.wsdp"
        write_native(bundle, path)
        assert read_native(path) == bundle

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.wsdp"
        path.write_text('{"schema": "wsdp/99"}')
        with pytest.raises(NativeFormatError):
            read_native(path)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.wsdp"
        path.write_text('{"schema": "wsdp/1",')
        with pytest.raises(NativeFormatError) as err:
            read_native(path)
        assert "line" in str(err.value)

    @pytest.mark.parametrize("text", ["1/0", "1e100000", "2.0", " 2_0 "])
    @pytest.mark.parametrize("where", ["instance", "x_sequence"])
    def test_number_outside_rational_grammar_rejected(self, tmp_path, text, where):
        raw, cert = me_instance()
        path = tmp_path / "me.wsdp"
        write_native(NativeBundle(instance=raw, certificate=cert), path)
        doc = json.loads(path.read_text())
        if where == "instance":
            doc["instance"]["b"][0] = text
        else:
            doc["certificate"]["x_sequence"][0][0][0] = text
        path.write_text(json.dumps(doc))
        with pytest.raises(NativeFormatError):
            read_native(path)

    def test_bool_is_rejected_beside_equal_numbers(self, tmp_path):
        # JSON true and 1 hash alike: a value parsed once must not be reused for a bool
        raw, cert = me_instance()
        path = tmp_path / "me.wsdp"
        write_native(NativeBundle(instance=raw, certificate=cert), path)
        doc = json.loads(path.read_text())
        doc["instance"]["matrices"][0] = [[1, "1"], ["1", True]]
        path.write_text(json.dumps(doc))
        with pytest.raises(NativeFormatError):
            read_native(path)

    def test_mirrored_spellings_of_one_value_read_alike(self, tmp_path):
        raw, cert = me_instance()
        path = tmp_path / "me.wsdp"
        write_native(NativeBundle(instance=raw, certificate=cert), path)
        doc = json.loads(path.read_text())
        doc["instance"]["matrices"][0] = [["2/4", "1/2"], ["1/2", "-3/6"]]
        doc["instance"]["matrices"][1][1][0] = "-4/2"
        doc["instance"]["matrices"][1][0][1] = "-2"
        path.write_text(json.dumps(doc))
        read = read_native(path).instance
        assert read.A[0] == SymMatrix.from_rows([[Fraction(1, 2)] * 2, [Fraction(1, 2), Fraction(-1, 2)]])
        assert read.A[1].at(1, 2) == read.A[1].at(2, 1) == -2

    def test_asymmetric_pair_rejected(self, tmp_path):
        raw, cert = me_instance()
        path = tmp_path / "me.wsdp"
        write_native(NativeBundle(instance=raw, certificate=cert), path)
        doc = json.loads(path.read_text())
        doc["certificate"]["x_sequence"][0] = [["1", "1/2"], ["1/3", "0"]]
        path.write_text(json.dumps(doc))
        with pytest.raises(NativeFormatError, match=r"not symmetric at \(1,2\)"):
            read_native(path)

    @pytest.mark.parametrize("part, field, value", [
        ("certificate", "k", 1.0), ("certificate", "k", "1"), ("certificate", "k", True),
        ("certificate", "l", True), ("certificate", "p_blocks", [[True], []]),
        ("instance", "n", 2.0),
    ])
    def test_non_integer_counts_and_indices_rejected(self, tmp_path, part, field, value):
        # each value equals the stored one (k = l = 1, P_1 = {1}, n = 2) under ==
        raw, cert = me_instance()
        path = tmp_path / "me.wsdp"
        write_native(NativeBundle(instance=raw, certificate=cert), path)
        doc = json.loads(path.read_text())
        doc[part][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(NativeFormatError):
            read_native(path)

    def test_mismatched_certificate_rejected(self):
        raw, cert = me_instance()
        other = SdpInstance(2, raw.A, (1, 1))
        with pytest.raises(ValueError):
            NativeBundle(instance=other, certificate=cert)


class TestRenderBlocks:
    def test_minimal_example_renders_two_images(self, tmp_path):
        _, cert = me_instance()
        written = render_blocks(cert.clean.A, cert.p_structure, tmp_path, stem="A")
        assert [p.name for p in written] == ["A_01.svg", "A_02.svg"]
        first = written[0].read_text()
        assert first.count("<rect") == 4
        assert "#c23b22" in first  # the {1} block cell

    def test_all_zero_matrix_renders_white_grid(self, tmp_path):
        structure = Structure(2, (frozenset(),))
        written = render_blocks([SymMatrix.zeros(2)], structure, tmp_path)
        body = written[0].read_text()
        assert body.count('fill="#ffffff"') == 4

    def test_cell_colors_match_validator_classification(self, tmp_path):
        _, cert = me_instance()
        written = render_blocks(cert.xseq, cert.q_structure, tmp_path, stem="X")
        colors = {"pivot": "#c23b22", "arbitrary": "#3566a5", "zero": "#ffffff"}
        for idx, path in enumerate(written, start=1):
            rects = [l for l in path.read_text().splitlines() if l.startswith("<rect")]
            pos = 0
            for i in range(1, 3):
                for j in range(1, 3):
                    region = cell_region(cert.q_structure, idx, i, j)
                    assert colors[region] in rects[pos]
                    pos += 1

    def test_deterministic_output(self, tmp_path):
        _, cert = me_instance()
        a = render_blocks(cert.clean.A, cert.p_structure, tmp_path / "a", stem="A")
        b = render_blocks(cert.clean.A, cert.p_structure, tmp_path / "b", stem="A")
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
