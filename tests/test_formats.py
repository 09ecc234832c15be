import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import weaksdp
from oracles import (
    cbf_text_by_entries, matrix_of_rows_by_loop, read_sdpa_by_lines, sdpa_text_by_entries,
    sym_of_rows_by_loop,
)
from weaksdp import (
    GenConfig,
    Matrix,
    NativeBundle,
    SdpInstance,
    Structure,
    SymMatrix,
    WeakCertificate,
    cell_region,
    generate,
    me_instance,
    read_native,
    read_sdpa,
    rational,
    render_blocks,
    write_cbf,
    write_native,
    write_sdpa,
)
from weaksdp import exact, formats
from weaksdp.exact import CELL_LIMIT, DIGIT_LIMIT, ORDER_LIMIT
from weaksdp.formats import (
    NativeFormatError, SdpaFormatError, _format_value, bundle_to_json,
)


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
        assert _format_value(3, 1) == ("3", False)
        assert _format_value(-7, 2) == ("-3.5", False)
        assert _format_value(1, 40) == ("0.025", False)
        assert _format_value(6, -4) == ("-1.5", False)  # reduced first, sign from the value
        assert _format_value(1, 3)[1] is True

    def test_rounded_decimals(self):
        assert _format_value(1, 3) == ("0.33333333333333333", True)
        assert _format_value(-200, 3) == ("-66.666666666666667", True)
        assert Fraction(_format_value(2, 3)[0]) == Fraction("0.66666666666666667")

    def test_no_digit_run_past_the_read_limit(self):
        # an exact decimal of more than DIGIT_LIMIT decimals is rounded instead
        assert _format_value(1, 2**(DIGIT_LIMIT + 1))[1] is True
        text, rounded = _format_value(1, 2**DIGIT_LIMIT)
        assert not rounded and text.endswith("5") and len(text) == 2 + DIGIT_LIMIT
        # rounding stops at DIGIT_LIMIT decimals, where a denominator within
        # the limit still leaves a digit
        assert _format_value(1, 3 * 10**(DIGIT_LIMIT - 1)) == ("0." + "0" * (DIGIT_LIMIT - 1) + "3", True)

    @pytest.mark.parametrize("num, den", [
        (-1, 3 * 10**DIGIT_LIMIT),  # a denominator of DIGIT_LIMIT + 1 digits
        (10**DIGIT_LIMIT, 1),
        (10**DIGIT_LIMIT + 1, 2),
    ], ids=["denominator", "integer", "numerator"])
    def test_reduced_integers_past_the_limit_are_refused(self, num, den):
        with pytest.raises(ValueError, match=f"more than DIGIT_LIMIT = {DIGIT_LIMIT} digits"):
            _format_value(num, den)

    def test_the_limit_applies_to_the_reduced_value(self):
        # 2 (10^DIGIT_LIMIT - 1) / 2 has a numerator of DIGIT_LIMIT + 1 digits
        # as given, and DIGIT_LIMIT nines once reduced
        assert _format_value(-2 * (10**DIGIT_LIMIT - 1), 2) == ("-" + "9" * DIGIT_LIMIT, False)


@pytest.mark.parametrize("value, rounded", [
    (Fraction(1, 2**14000), True),  # an exact decimal of 14,000 decimals
    (Fraction(10**4299 + 1, 1024), False),  # 4,296 whole digits and 10 decimals
    (Fraction(1, 3 * 10**4299), True),  # no exact decimal, below 10^-4299
], ids=["binary", "whole", "tiny"])
def test_long_values_export_and_read_back(tmp_path, value, rounded):
    from weaksdp.cli import main

    bundle = tmp_path / "long.wsdp"
    write_native(NativeBundle(SdpInstance(1, (SymMatrix.identity(1),), (value,))), bundle)
    dat, cbf = tmp_path / "long.dat-s", tmp_path / "long.cbf"
    assert main(["export", str(bundle), "--format", "dat-s", "--out", str(dat)]) == 0
    assert main(["export", str(bundle), "--format", "cbf", "--out", str(cbf)]) == 0
    (got,) = read_sdpa(dat).b
    assert parse_cbf(cbf)["bcoord"] == [(0, -got)]
    assert ("* lossy" in dat.read_text(), "# lossy" in cbf.read_text()) == (rounded, rounded)
    if rounded:  # 17 significant digits, or the last of DIGIT_LIMIT decimals
        assert abs(got - value) <= max(value / 10**16, Fraction(1, 2 * 10**DIGIT_LIMIT))
    else:
        assert got == value


def _write_bundle(inst, path):
    write_native(NativeBundle(inst), path)


@pytest.mark.parametrize("writer", [_write_bundle, write_sdpa, write_cbf],
                         ids=["native", "sdpa", "cbf"])
@pytest.mark.parametrize("inst", [
    SdpInstance(1, (SymMatrix.identity(1),), (10**DIGIT_LIMIT,)),
    SdpInstance(1, (SymMatrix.diag([-(10**DIGIT_LIMIT)]),), (1,)),
    SdpInstance(2, (SymMatrix.unit(2, 1, 2, Fraction(1, 10**DIGIT_LIMIT)),), (1,)),
], ids=["b", "entry", "denominator"])
def test_writers_refuse_integers_past_the_digit_limit(tmp_path, writer, inst):
    # 10^DIGIT_LIMIT has one digit too many: no reader would take its text back
    path = tmp_path / "long.out"
    with pytest.raises(ValueError, match=f"more than DIGIT_LIMIT = {DIGIT_LIMIT} digits"):
        writer(inst, path)
    assert not path.exists()


@pytest.mark.parametrize("generation", [
    {"seed": 10**DIGIT_LIMIT},
    {"config": [1, {"k": -(10**DIGIT_LIMIT)}]},
    {"seeds": {10**DIGIT_LIMIT: "a key json.dumps would spell"}},
], ids=["value", "nested", "key"])
def test_native_writer_refuses_long_integers_in_the_generation(tmp_path, generation):
    raw, cert = me_instance()
    path = tmp_path / "me.wsdp"
    with pytest.raises(ValueError, match=f"more than DIGIT_LIMIT = {DIGIT_LIMIT} digits"):
        write_native(NativeBundle(raw, cert, generation=generation), path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("generation", [
    {"seed": float("nan")},
    {"config": [1, {"weight": float("inf")}]},
    {"bounds": [0.5, -float("inf")]},
], ids=["nan", "nested-inf", "minus-inf"])
def test_native_writer_refuses_non_finite_floats_in_the_generation(tmp_path, generation):
    # json.dumps would spell them NaN, Infinity and -Infinity, which are not JSON
    raw, cert = me_instance()
    path = tmp_path / "me.wsdp"
    with pytest.raises(ValueError, match="not finite"):
        write_native(NativeBundle(raw, cert, generation=generation), path)
    assert list(tmp_path.iterdir()) == []


def _bundle_text_with(doc_edit, literal: str) -> str:
    """The JSON text of the me bundle after `doc_edit` puts the marker
    string "@@" somewhere, with the marker spelled as the bare `literal`."""
    doc = bundle_to_json(NativeBundle(*me_instance(), generation={"seed": 1}))
    doc_edit(doc)
    return json.dumps(doc).replace('"@@"', literal)


_PLACES = {
    "generation": lambda doc: doc["generation"].update(seed="@@"),
    "nested": lambda doc: doc["generation"].update(config=[1, {"weight": "@@"}]),
    "n": lambda doc: doc["instance"].update(n="@@"),
    "b": lambda doc: doc["instance"]["b"].__setitem__(0, "@@"),
}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1E+999", "1.5e400"])
@pytest.mark.parametrize("place", sorted(_PLACES))
def test_native_reader_refuses_numbers_outside_json(tmp_path, literal, place):
    path = tmp_path / "me.wsdp"
    path.write_text(_bundle_text_with(_PLACES[place], literal))
    with pytest.raises(NativeFormatError, match="JSON"):
        read_native(path)


def test_native_reader_takes_finite_floats_in_the_generation(tmp_path):
    path = tmp_path / "me.wsdp"
    path.write_text(_bundle_text_with(lambda doc: doc["generation"].update(weight="@@"), "-1.5e300"))
    assert read_native(path).generation == {"seed": 1, "weight": -1.5e300}
    write_native(read_native(path), path)
    assert read_native(path).generation == {"seed": 1, "weight": -1.5e300}


def test_native_writer_takes_every_entry_the_reader_takes(tmp_path):
    # stored over the denominator 2, the second entry's numerator has
    # DIGIT_LIMIT + 1 digits; spelled, it has DIGIT_LIMIT
    raw, cert = me_instance()
    g = Matrix.from_rows([[1, -(10**DIGIT_LIMIT - 1)], [0, Fraction(-1, 2)]])
    bundle = NativeBundle(raw, replace(cert, row_ops=g))
    path = tmp_path / "long.wsdp"
    write_native(bundle, path)
    assert read_native(path) == bundle


@pytest.mark.parametrize("fmt", ["dat-s", "cbf"])
def test_exports_take_every_entry_the_reader_takes(tmp_path, fmt):
    # the integer (10^DIGIT_LIMIT - 1) / 3 has DIGIT_LIMIT digits, and 7
    # times it, its numerator over the matrix's denominator 7, one more
    from weaksdp.cli import main

    values = Fraction(10**DIGIT_LIMIT - 1, 3), Fraction(1, 7)
    rows = [[str(values[0]), "1/7"], ["1/7", "0"]]
    bundle = tmp_path / "long.wsdp"
    bundle.write_text(json.dumps({"schema": "wsdp/1", "instance": {
        "n": 2, "b": ["1"], "matrices": [rows]}}))
    out = tmp_path / f"long.{fmt}"
    assert main(["export", str(bundle), "--format", fmt, "--out", str(out)]) == 0
    if fmt == "dat-s":
        (mat,) = read_sdpa(out).A
        got = mat.at(1, 1), mat.at(1, 2)
    else:
        got = [v for *_, v in parse_cbf(out)["fcoord"]]
    assert all(abs(g - v) <= v / 10**16 for g, v in zip(got, values, strict=True))


# texts the one-pass integer route of `exact._stored` must leave to the
# loop, or read as the loop does; and digit runs at and past DIGIT_LIMIT
_READER_TEXTS = ("-0", "007", "", "+1", " 1", "1_0", "\u0661", "-", "1/2", "2/4", "-3/6", "1/0")
_DIGIT_RUNS = ("9" * DIGIT_LIMIT, "-" + "9" * DIGIT_LIMIT, "9" * (DIGIT_LIMIT + 1))


def _respelled(token):
    """The value of `token` spelled otherwise where it has another spelling:
    a JSON integer as text, an integer text as a fraction, p/q as 2p/2q."""
    if type(token) is int:
        return str(token)
    if type(token) is str and 0 < len(token) < 12 and token.lstrip("-").isascii():
        p, _, q = token.partition("/")
        if p.lstrip("-").isdigit() and (q.isdigit() or not q):
            return f"{2 * int(p)}/{2 * int(q or 1)}"
    return token


@st.composite
def _token_grids(draw, symmetric=True):
    """Rows for `SymMatrix.from_rows` of order 0-4, one in ten ragged: integer
    texts, each mirrored below the diagonal by the same text, mostly, or by
    the same value spelled otherwise or a text of its own; then up to two
    cells, and their mirrors, hold a p/q, a text of _READER_TEXTS, a JSON
    integer, `true` or a digit run of _DIGIT_RUNS. Not `symmetric`, rows for
    `Matrix.from_rows`: 0-4 rows of 0-4 integer texts each, drawn on their
    own, then up to two cells hold one of those tokens, and one grid in ten
    has a last row one cell longer."""
    n = draw(st.integers(0, 4))
    cols = n if symmetric else draw(st.integers(0, 4))
    plain = st.integers(-40, 40).map(str)
    special = st.one_of(
        st.tuples(st.integers(-9, 9), st.integers(1, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
        st.sampled_from(_READER_TEXTS),
        st.integers(-40, 40),
        st.just(True),
        st.sampled_from(_DIGIT_RUNS),
    )

    def mirrored(token, tokens):
        kind = draw(st.sampled_from(["same"] * 6 + ["respelled", "own"]))
        return draw(tokens) if kind == "own" else token if kind == "same" else _respelled(token)

    if not symmetric:
        rows = [[draw(plain) for _ in range(cols)] for _ in range(n)]
        for _ in range(draw(st.integers(0, 2)) if n and cols else 0):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, cols - 1))] = draw(special)
        if n and draw(st.integers(0, 9)) == 0:
            rows[-1].append(draw(plain))
        return rows
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = draw(plain)
            rows[j][i] = mirrored(rows[i][j], plain)
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i, j = sorted((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
        rows[i][j] = draw(special)
        rows[j][i] = mirrored(rows[i][j], special) if i < j else rows[i][j]
    if n and draw(st.integers(0, 9)) == 0:
        rows[-1].pop()
    return rows


def _public_ratio(value):
    """The `(p, q)` of one entry through the public `rational` alone."""
    return rational(value).as_integer_ratio()


def _outcome(read, rows):
    try:
        return read(rows)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


@given(_token_grids())
@settings(max_examples=300, deadline=None)
def test_integer_route_agrees_with_the_loop(rows):
    oracle = partial(sym_of_rows_by_loop, parse=_public_ratio)
    assert _outcome(SymMatrix.from_rows, rows) == _outcome(oracle, rows)


@given(_token_grids(symmetric=False))
@settings(max_examples=300, deadline=None)
def test_general_matrix_route_agrees_with_the_per_entry_route(rows):
    oracle = partial(matrix_of_rows_by_loop, parse=_public_ratio)
    assert _outcome(Matrix.from_rows, rows) == _outcome(oracle, rows)


def test_integer_matrix_is_read_without_the_loop(monkeypatch):
    def refuse(value):
        raise AssertionError(f"parsed {value!r} one at a time")

    monkeypatch.setattr(exact, "text_ratio", refuse)
    monkeypatch.setattr(exact, "_ratio", refuse)
    rows = [["-0", "007", "-12"], ["007", "4", "9" * DIGIT_LIMIT], ["-12", "9" * DIGIT_LIMIT, "0"]]
    big = int("9" * DIGIT_LIMIT)
    assert SymMatrix.from_rows(rows) == SymMatrix(3, (0, 7, -12, 4, big, 0))
    assert Matrix.from_rows(rows[:2]) == Matrix(2, 3, (0, 7, -12, 7, 4, big))


@pytest.mark.parametrize("limit, entry, expected", [
    ("640", "-" + "7" * 1000,
     "Exceeds the limit (640 digits) for integer string conversion: value has 1000 digits"),
    ("0", "7" * (DIGIT_LIMIT + 1), f"an integer of more than {DIGIT_LIMIT} digits"),
], ids=["lower", "off"])
def test_interpreter_digit_limit_on_a_matrix_entry(tmp_path, limit, entry, expected):
    # under PYTHONINTMAXSTRDIGITS=640 the one-pass route's `int` refuses 1000
    # digits, and with the interpreter's limit off it takes no more than
    # DIGIT_LIMIT; either way the loop names the fault as it always has
    raw, cert = me_instance()
    path = tmp_path / "me.wsdp"
    write_native(NativeBundle(instance=raw, certificate=cert), path)
    doc = json.loads(path.read_text())
    rows = doc["instance"]["matrices"][0]
    rows[0][1] = rows[1][0] = entry
    path.write_text(json.dumps(doc))
    script = ("import sys\nfrom weaksdp import read_native\nfrom weaksdp.formats import NativeFormatError\n"
              "try:\n    read_native(sys.argv[1])\nexcept NativeFormatError as exc:\n"
              "    print(exc)\nelse:\n    print('accepted')\n")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS=limit,
               PYTHONPATH=str(Path(weaksdp.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script, str(path)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("malformed instance in instance: " + expected), run.stdout


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

    def test_non_ascii_byte_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.dat-s"
        path.write_text("1\n1\n2\n1\n1 1 1 1 1 * caf\u00e9\n", encoding="utf-8")
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

    def test_block_size_of_thirty_digits_rejected(self, tmp_path):
        # too large for a machine index: a format error, not an OverflowError
        path = tmp_path / "huge.dat-s"
        path.write_text(f"1\n1\n{'9' * 30}\n1\n1 1 1 1 1\n")
        with pytest.raises(SdpaFormatError, match=f"over the limit of {ORDER_LIMIT}") as err:
            read_sdpa(path)
        assert err.value.line == 3

    def test_order_limit(self, tmp_path):
        path = tmp_path / "order.dat-s"
        path.write_text(f"0\n1\n{ORDER_LIMIT}\n")
        assert read_sdpa(path).n == ORDER_LIMIT
        path.write_text(f"0\n1\n{ORDER_LIMIT + 1}\n")
        with pytest.raises(SdpaFormatError, match=f"order {ORDER_LIMIT + 1} is over the limit"):
            read_sdpa(path)

    def test_cell_limit_checked_right_after_the_header(self, tmp_path):
        # with n = 1 each matrix has one cell: m = CELL_LIMIT passes the size
        # check and fails on the missing right-hand side, one more is refused
        path = tmp_path / "cells.dat-s"
        path.write_text(f"{CELL_LIMIT}\n1\n1\n")
        with pytest.raises(SdpaFormatError, match="missing right-hand side"):
            read_sdpa(path)
        path.write_text(f"{CELL_LIMIT + 1}\n1\n1\n")
        with pytest.raises(SdpaFormatError, match=f"over the limit of {CELL_LIMIT} cells"):
            read_sdpa(path)

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

    @pytest.mark.parametrize("text", ["+1", "0_1", "1_0"])
    @pytest.mark.parametrize("field, line, what", [
        (0, 1, "constraint count"), (1, 2, "block count"), (2, 3, "block size"),
        (3, 5, "matrix number"), (4, 5, "block number"), (5, 5, "row"), (6, 5, "column"),
    ])
    def test_integer_field_outside_its_grammar_rejected(self, tmp_path, text, field, line, what):
        # every integer field is -?[0-9]+; int() alone would take a sign or an underscore
        fields = ["1", "1", "1", "1", "1", "1", "1"]
        fields[field] = text
        m, blocks, size, matno, blkno, row, column = fields
        path = tmp_path / "bad.dat-s"
        path.write_text(f"{m}\n{blocks}\n{size}\n1\n{matno} {blkno} {row} {column} 1\n")
        with pytest.raises(SdpaFormatError) as err:
            read_sdpa(path)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: expected integer {what}, got {text!r}"

    @pytest.mark.parametrize("text", ["2 3", "1 1", "1 = nBLOCK"])
    @pytest.mark.parametrize("line, what", [(2, "block count"), (3, "block size")])
    def test_header_line_of_more_than_one_integer_rejected(self, tmp_path, text, line, what):
        # each header line is one integer, as the constraint count on line 1 is:
        # the second size in "2 3" must not be silently dropped
        header = ["1", "1"]
        header[line - 2] = text
        path = tmp_path / "bad.dat-s"
        path.write_text(f"1\n{header[0]}\n{header[1]}\n1\n1 1 1 1 1\n")
        for reader in (read_sdpa, read_sdpa_by_lines):
            with pytest.raises(SdpaFormatError) as err:
                reader(path)
            assert err.value.line == line
            assert str(err.value) == f"line {line}: expected integer {what}, got {text!r}"

    def test_integer_token_read_in_one_field_is_range_checked_in_another(self, tmp_path):
        # "0" is a valid matrix number (the objective); as a row it is out of range
        path = tmp_path / "zero.dat-s"
        path.write_text("1\n1\n2\n1\n0 1 1 1 5\n1 1 0 1 5\n")
        with pytest.raises(SdpaFormatError) as err:
            read_sdpa(path)
        assert str(err.value) == "line 6: entry (0,1) outside order 2"

    def test_leading_zeros_and_negative_zero_in_integer_fields(self, tmp_path):
        path = tmp_path / "zeros.dat-s"
        path.write_text("01\n01\n02\n1\n01 01 01 02 3\n-0 1 1 1 9\n")
        assert read_sdpa(path) == SdpInstance(2, (SymMatrix.from_rows([[0, 3], [3, 0]]),), (1,))
        path.write_text("1\n1\n2\n1\n1 1 -0 1 5\n")
        with pytest.raises(SdpaFormatError) as err:
            read_sdpa(path)
        assert str(err.value) == "line 5: entry (0,1) outside order 2"
        path.write_text("1\n-0\n2\n1\n")
        with pytest.raises(SdpaFormatError) as err:
            read_sdpa(path)
        assert str(err.value) == "line 2: only single-block files are supported, got 0"

    def test_repeated_values_read_alike(self, tmp_path):
        path = tmp_path / "repeat.dat-s"
        path.write_text("2\n1\n2\n-1.5 3\n1 1 1 1 3\n1 1 2 2 -1.5\n2 1 1 2 3\n2 1 2 2 -0\n")
        inst = read_sdpa(path)
        assert inst.b == (Fraction(-3, 2), 3)
        assert inst.A == (SymMatrix.from_rows([[3, 0], [0, Fraction(-3, 2)]]),
                          SymMatrix.from_rows([[0, 3], [3, 0]]))

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


    @pytest.mark.parametrize("line, message", [
        ("0 7 99 99 5", "block number must be 1, got 7"),
        ("0 1 99 99 5", "entry (99,99) outside order 2"),
        ("0 1 1 0 5", "entry (1,0) outside order 2"),
        ("-1 1 1 1 5", "matrix number -1 outside 1..2"),
    ])
    def test_objective_lines_are_range_checked(self, tmp_path, line, message):
        # a line of matrix number 0 is dropped only after the checks every line gets
        raw, _ = me_instance()
        path = tmp_path / "me.dat-s"
        write_sdpa(raw, path)
        text = path.read_text() + line + "\n"
        path.write_text(text)
        last = text.count("\n")
        with pytest.raises(SdpaFormatError) as err:
            read_sdpa(path)
        assert str(err.value) == f"line {last}: {message}"

    @pytest.mark.parametrize("inst", [
        generate(GenConfig(n=5, m=4, k=1, l=2, seed=2, messy=True)).raw,
        SdpInstance(2, (SymMatrix.from_rows([[Fraction(1, 4), -3], [-3, Fraction(-5, 2)]]),
                        SymMatrix.from_rows([[2, Fraction(1, 8)], [Fraction(1, 8), 1]])), (1, 0)),
    ], ids=["integers", "decimals"])
    def test_written_file_roundtrips(self, tmp_path, inst):
        path = tmp_path / "t.dat-s"
        write_sdpa(inst, path)
        assert read_sdpa(path) == inst

    @pytest.mark.parametrize("text", ["-2\n1\n2\n0 2\n", "-2\n1\n2\n", "* c\n-2\n1\n2\n1 1 1 1 1\n"])
    def test_negative_constraint_count_refused_on_its_line(self, tmp_path, text):
        path = tmp_path / "negative.dat-s"
        path.write_text(text)
        line = 2 if text.startswith("*") else 1
        message = f"line {line}: constraint count must be non-negative, got -2"
        for reader in (read_sdpa, read_sdpa_by_lines):
            with pytest.raises(SdpaFormatError) as err:
                reader(path)
            assert (str(err.value), err.value.line) == (message, line)

    def test_digit_limit_holds_without_the_interpreters_limit(self, tmp_path):
        # with CPython's own limit switched off, a body value of DIGIT_LIMIT + 1
        # digits is still refused, on its line, and never reaches int()
        inst = generate(GenConfig(n=5, m=4, k=1, l=2, seed=2, messy=True)).raw
        path = tmp_path / "long.dat-s"
        write_sdpa(inst, path)
        lines = path.read_text().splitlines()
        row = len(lines) - 1
        lines[row] = lines[row].rsplit(" ", 1)[0] + " " + "7" * (DIGIT_LIMIT + 1)
        path.write_text("\n".join(lines) + "\n")
        script = ("import sys\nfrom weaksdp import read_sdpa\nfrom weaksdp.formats import SdpaFormatError\n"
                  "try:\n    read_sdpa(sys.argv[1])\nexcept SdpaFormatError as exc:\n"
                  "    print(exc.line, exc)\nelse:\n    print('accepted')\n")
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0",
                   PYTHONPATH=str(Path(weaksdp.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", script, str(path)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        too_long = f"value of {DIGIT_LIMIT + 1} characters is too long"
        assert run.stdout == f"{row + 1} line {row + 1}: {too_long}\n"


# token edits of the differential test: signs, leading zeros, decimals and
# exponents outside the grammar, an over-long digit run, the objective's matrix
# number 0, and numbers outside the ranges of small instances
_TOKENS = ("+1", "01", "-0", "1.", "1e3", "9" * (DIGIT_LIMIT + 1), "0", "4")
_ENTRIES = (0, 1, -2, 3, Fraction(1, 4), Fraction(-5, 2))


@st.composite
def _instances(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    values = st.sampled_from(_ENTRIES)
    size = n * (n + 1) // 2
    mats = tuple(SymMatrix(n, draw(st.lists(values, min_size=size, max_size=size)))
                 for _ in range(m))
    return SdpInstance(n, mats, tuple(draw(st.lists(values, min_size=m, max_size=m))))


# a line counted from the end of the file, most often one of the last few body lines
_LINE = st.integers(0, 3) | st.integers(0, 99)
_EDITS = st.one_of(
    st.tuples(st.just("token"), _LINE, st.integers(0, 4), st.sampled_from(_TOKENS + ("lead",))),
    st.tuples(st.sampled_from(["delete", "repeat", "mirror", "tab", "space", "crlf"]), _LINE),
    st.tuples(st.just("swap"), _LINE, _LINE),
    # a comment, a blank line, and lines of the objective, matrix 0, in and out of range
    st.tuples(st.just("insert"), _LINE,
              st.sampled_from(["* note", "", '"x"', "0 1 1 1 5", "0 1 4 1 5", "0 2 1 1 5"])),
)


def _edited(text: str, edits) -> str:
    lines = text.splitlines()
    for kind, at, *rest in edits:
        at = len(lines) - 1 - at % len(lines)
        if kind == "token":
            tokens = lines[at].split(" ")
            slot = rest[0] % len(tokens)
            tokens[slot] = "0" + tokens[slot] if rest[1] == "lead" else rest[1]
            lines[at] = " ".join(tokens)
        elif kind == "delete":
            del lines[at]
        elif kind == "repeat":
            lines.insert(at, lines[at])
        elif kind == "mirror":  # the line's cell again, from the other side, with another value
            fields = lines[at].split(" ")
            if len(fields) == 5:
                fields[2:] = fields[3], fields[2], "7"
            lines.insert(at + 1, " ".join(fields))
        elif kind == "swap":
            other = len(lines) - 1 - rest[0] % len(lines)
            lines[at], lines[other] = lines[other], lines[at]
        elif kind == "insert":
            lines.insert(at, rest[0])
        else:
            lines[at] = {"tab": lines[at].replace(" ", "\t", 1), "space": lines[at] + " ",
                         "crlf": lines[at] + "\r"}[kind]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(inst=_instances(), edits=st.lists(_EDITS, max_size=3))
def test_sdpa_reader_agrees_with_the_line_by_line_reference(inst, edits):
    # equal instances, or the same SdpaFormatError text and line, and nothing else
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.dat-s"
        write_sdpa(inst, path)
        path.write_text(_edited(path.read_text(), edits))
        try:
            expected = read_sdpa_by_lines(path)
        except SdpaFormatError as exc:
            with pytest.raises(SdpaFormatError) as err:
                read_sdpa(path)
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
        else:
            assert read_sdpa(path) == expected
            if not edits:
                assert expected == inst


# seams of a reader that splits the whole body at once: a value longer than
# DIGIT_LIMIT characters whose digit runs are each within it, a short line
# beside a long one whose fields add up to two lines' worth, and a separator
# that `str.split` takes for whitespace
_LIMIT_DIGITS = "-" + "9" * DIGIT_LIMIT
_TWO_RUNS = "3" * 3000 + "." + "7" * 3000
_TWO_RUNS_VALUE = int("3" * 3000) + Fraction(int("7" * 3000), 10**3000)


@pytest.mark.parametrize("text, expected", [
    (f"1\n1\n2\n1\n1 1 1 2 {_LIMIT_DIGITS}\n",
     SdpInstance(2, (SymMatrix(2, [0, 1 - 10**DIGIT_LIMIT, 0]),), (1,))),
    (f"1\n1\n2\n{_TWO_RUNS}\n1 1 2 2 {_TWO_RUNS}\n",
     SdpInstance(2, (SymMatrix(2, [0, 0, _TWO_RUNS_VALUE]),), (_TWO_RUNS_VALUE,))),
    ("1\n1\n2\n1\n1 1 1 1\n5 1 1 1 1 2\n", "line 5: expected 5 fields, got 4"),
    ("1\n1\n2\n1\n1\x1f1 1\x1f2\x1f3\n", SdpInstance(2, (SymMatrix(2, [0, 3, 0]),), (1,))),
], ids=["minus-and-limit-digits", "two-runs-of-3000-digits", "four-then-six-fields", "unit-separator"])
def test_sdpa_reader_seams(tmp_path, text, expected):
    path = tmp_path / "seam.dat-s"
    path.write_text(text)
    for reader in (read_sdpa, read_sdpa_by_lines):
        if isinstance(expected, str):
            with pytest.raises(SdpaFormatError) as err:
                reader(path)
            assert str(err.value) == expected
        else:
            assert reader(path) == expected


# the writers' values: integers, exact decimals over 2^a 5^b, values rounded
# over other denominators, and mixes of these within one matrix
_DENOMINATORS = ((1,), (2, 4, 5, 8, 40, 125), (3, 7, 12, 30), (1, 2, 3, 10))


@st.composite
def _written_instances(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(0, 4))

    def values(count):
        dens = draw(st.sampled_from(_DENOMINATORS))
        return [Fraction(draw(st.integers(-3, 3) | st.integers(-10**20, 10**20)),
                         draw(st.sampled_from(dens))) for _ in range(count)]

    size = n * (n + 1) // 2
    mats = tuple(SymMatrix.zeros(n) if draw(st.integers(0, 4)) == 0 else SymMatrix(n, values(size))
                 for _ in range(m))
    return SdpInstance(n, mats, tuple(values(m)))


@settings(max_examples=150, deadline=None)
@given(inst=_written_instances(),
       label=st.none() | st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                               blacklist_characters="\\"), max_size=8))
def test_writers_match_the_entry_by_entry_reference(inst, label):
    with tempfile.TemporaryDirectory() as tmp:
        sdpa, cbf = Path(tmp) / "x.dat-s", Path(tmp) / "x.cbf"
        write_sdpa(inst, sdpa, label=label)
        write_cbf(inst, cbf, label=label)
        assert sdpa.read_bytes() == sdpa_text_by_entries(inst, label).encode("ascii")
        assert cbf.read_bytes() == cbf_text_by_entries(inst, label).encode("ascii")


@pytest.mark.parametrize("label, spelled", [
    ("\n1 1 1 1 7", "\\n1 1 1 1 7"), ("a\rb", "a\\rb"), ("m\u00e9", "m\\xe9"),
    ("a\\b", "a\\\\b"), ('say "hi"', 'say "hi"'),
])
def test_label_is_one_ascii_comment_line(tmp_path, label, spelled):
    # a label is escaped as by unicode_escape; the rest of the file does not change
    raw = generate(GenConfig(n=5, m=4, k=1, l=2, seed=2, messy=True)).raw
    for write, comment, at, suffix in ((write_sdpa, "*", 3, ".dat-s"), (write_cbf, "#", 1, ".cbf")):
        plain, labelled = tmp_path / f"plain{suffix}", tmp_path / f"labelled{suffix}"
        write(raw, plain)
        write(raw, labelled, label=label)
        lines = labelled.read_bytes().decode("ascii").split("\n")
        assert lines.pop(at) == f"{comment} label: {spelled}"
        assert "\n".join(lines) == plain.read_text()
    assert read_sdpa(tmp_path / "labelled.dat-s") == raw


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
        ("instance", "n", 2.0), ("certificate", "p_blocks", [[1, 1], []]),
        ("certificate", "q_blocks", [[2, 2], []]),
    ])
    def test_non_integer_counts_and_indices_rejected(self, tmp_path, part, field, value):
        # each value equals the stored one (k = l = 1, P_1 = {1}, Q_1 = {2},
        # n = 2) under ==, or as a set when an index is repeated
        raw, cert = me_instance()
        path = tmp_path / "me.wsdp"
        write_native(NativeBundle(instance=raw, certificate=cert), path)
        doc = json.loads(path.read_text())
        doc[part][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(NativeFormatError):
            read_native(path)

    @pytest.mark.parametrize("path, value", [
        (("instance", "b"), "02"),
        (("instance", "matrices"), "1"),
        (("instance", "matrices", 0), {"1": "0"}),
        (("instance", "matrices", 0, 0), "10"),
        (("certificate", "clean", "matrices", 0, 1), "00"),
        (("certificate", "row_ops", 0), "10"),
        (("certificate", "transform"), [["1", "0"], "01"]),
        (("certificate", "x_sequence"), {"0": [["0", "0"], ["0", "1"]]}),
        (("certificate", "x_sequence", 0, 0), "00"),
        (("certificate", "p_blocks", 1), ""),
        (("label",), 5),
        (("label",), ["me"]),
    ])
    def test_strings_and_objects_where_lists_belong_rejected(self, tmp_path, path, value):
        # each value iterates like the stored one: a string character by
        # character, an object key by key
        raw, cert = me_instance()
        bundle = tmp_path / "me.wsdp"
        write_native(NativeBundle(instance=raw, certificate=cert, label="me"), bundle)
        doc = json.loads(bundle.read_text())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        bundle.write_text(json.dumps(doc))
        with pytest.raises(NativeFormatError, match="must be a"):
            read_native(bundle)

    @pytest.mark.parametrize("field, value, message", [
        ("x_sequence", [[], []], "X_1 has order 0, expected the clean order 2"),
        ("x_sequence", [[["1", "0"], ["0", "0"]], [["1"]]],
         "X_2 has order 1, expected the clean order 2"),
        ("row_ops", [["1"]], "row_ops must be 2 x 2, got 1 x 1"),
        ("row_ops", [["1", "0"]], "row_ops must be 2 x 2, got 1 x 2"),
        ("transform", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         "transform must be 2 x 2, got 3 x 3"),
    ])
    def test_certificate_matrices_of_the_wrong_shape_rejected(self, tmp_path, field, value,
                                                              message):
        raw, cert = me_instance()
        path = tmp_path / "me.wsdp"
        write_native(NativeBundle(instance=raw, certificate=cert), path)
        doc = json.loads(path.read_text())
        doc["certificate"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(NativeFormatError) as err:
            read_native(path)
        assert str(err.value) == f"malformed certificate: {message}"

    def test_certificate_matrix_shape_is_refused_before_any_entry_is_read(self, tmp_path,
                                                                          monkeypatch):
        raw, cert = me_instance()
        path = tmp_path / "me.wsdp"
        write_native(NativeBundle(instance=raw, certificate=cert), path)
        doc = json.loads(path.read_text())
        doc["certificate"]["row_ops"] = [["1/2"] * 3 for _ in range(3)]
        path.write_text(json.dumps(doc))
        text_ratio = exact.text_ratio

        def refuse(text):
            if text == "1/2":
                raise AssertionError(f"parsed {text!r} before the shape check")
            return text_ratio(text)

        monkeypatch.setattr(exact, "text_ratio", refuse)
        with pytest.raises(NativeFormatError) as err:
            read_native(path)
        assert str(err.value) == "malformed certificate: row_ops must be 2 x 2, got 3 x 3"

    @pytest.mark.parametrize("clean, shape", [
        ({"b": ["0"], "matrices": [[["1", "0"], ["0", "0"]]]}, "m = 1 and n = 2"),
        ({"n": 1, "matrices": [[["1"]], [["0"]]]}, "m = 2 and n = 1"),
    ], ids=["fewer-constraints", "lower-order"])
    def test_clean_instance_of_another_shape_rejected(self, tmp_path, clean, shape):
        raw, cert = me_instance()
        path = tmp_path / "me.wsdp"
        write_native(NativeBundle(instance=raw, certificate=cert), path)
        doc = json.loads(path.read_text())
        doc["certificate"]["clean"].update(clean)
        path.write_text(json.dumps(doc))
        with pytest.raises(NativeFormatError) as err:
            read_native(path)
        assert str(err.value) == (f"malformed certificate: clean instance has {shape}, "
                                  "expected the raw m = 2 and n = 2")

    @pytest.mark.parametrize("n, count, limit", [
        (ORDER_LIMIT + 1, 0, f"order {ORDER_LIMIT + 1} is over the limit"),
        # 2 n(n+1)/2 > CELL_LIMIT at n = ORDER_LIMIT; the matrices are never read
        (ORDER_LIMIT, 2, f"over the limit of {CELL_LIMIT} cells"),
    ])
    def test_size_limits(self, tmp_path, n, count, limit):
        path = tmp_path / "big.wsdp"
        path.write_text(json.dumps({"schema": "wsdp/1", "instance": {
            "n": n, "b": ["0"] * count, "matrices": [[]] * count}}))
        with pytest.raises(NativeFormatError, match=limit):
            read_native(path)

    @pytest.mark.parametrize("n", [-3, 0])
    def test_nonpositive_order_rejected(self, tmp_path, n):
        path = tmp_path / "negative.wsdp"
        path.write_text(json.dumps({"schema": "wsdp/1", "instance": {"n": n, "b": [], "matrices": []}}))
        with pytest.raises(NativeFormatError, match=f"n must be a positive order, got {n}"):
            read_native(path)

    def test_x_sequence_cell_limit(self, tmp_path):
        # two members of order ORDER_LIMIT are over CELL_LIMIT; they are never read
        empty = {"n": ORDER_LIMIT, "b": [], "matrices": []}
        path = tmp_path / "long.wsdp"
        path.write_text(json.dumps({"schema": "wsdp/1", "instance": empty, "certificate": {
            "k": 0, "l": 1, "clean": empty, "row_ops": [], "transform": [],
            "x_sequence": [[], []], "p_blocks": [], "q_blocks": []}}))
        with pytest.raises(NativeFormatError, match=(
                f"x_sequence: 2 matrices of order {ORDER_LIMIT} are over the limit of {CELL_LIMIT} cells")):
            read_native(path)

    def test_mismatched_certificate_rejected(self):
        raw, cert = me_instance()
        other = SdpInstance(2, raw.A, (1, 1))
        with pytest.raises(ValueError):
            NativeBundle(instance=other, certificate=cert)


def assert_reference_bytes(bundle, path):
    write_native(bundle, path)
    assert path.read_bytes() == (json.dumps(bundle_to_json(bundle), indent=1) + "\n").encode("ascii")


def fractional(cert):
    """`cert` with a fractional G and T: T holds entries like 2/4 that reduce
    below its denominator. It no longer certifies anything."""
    n = cert.transform.rows
    transform = Matrix.from_rows([[Fraction(i - j, 4) for j in range(n)] for i in range(n)])
    return replace(cert, row_ops=cert.row_ops.scale(Fraction(-2, 3)), transform=transform)


class TestNativeLayout:
    """`write_native` lays the matrices out by hand; the reference is
    `json.dumps(bundle_to_json(bundle), indent=1)` and a newline."""

    @pytest.mark.parametrize("messy", [False, True])
    @pytest.mark.parametrize("label, generation", [
        (None, None),
        ('say "hi" \\ bye', {"seed": 3, "config": {"n": 6, "ranges": [[1, 2], []], "flags": {}},
                              "note": "two\nlines", "keys": {1: None, "weight": 0.5}}),
    ])
    def test_bytes_match_reference(self, tmp_path, messy, label, generation):
        instance = generate(GenConfig(n=6, m=4, k=2, l=2, seed=1, messy=messy))
        cert = WeakCertificate.from_instance(instance)
        entries = [v for x in cert.xseq for row in x.to_rows() for v in row]
        assert any(v.denominator != 1 for v in entries) and any(v < 0 for v in entries)
        for certificate in (cert, fractional(cert), None):
            bundle = NativeBundle(instance.raw, certificate, generation, label)
            assert_reference_bytes(bundle, tmp_path / "instance.wsdp")

    def test_bytes_match_reference_with_empty_lists(self, tmp_path):
        # m = 0: no matrices, no right-hand side and a 0 x 0 G; empty blocks
        empty = SdpInstance(3, (), ())
        cert = WeakCertificate(
            raw=empty, row_ops=Matrix.zeros(0, 0), transform=Matrix.identity(3), clean=empty, k=0,
            xseq=(SymMatrix.zeros(3),), p_structure=Structure(3, ()), q_structure=Structure(3, ((),)),
        )
        assert_reference_bytes(NativeBundle(empty, cert, label=""), tmp_path / "empty.wsdp")
        raw, me_cert = me_instance()
        assert_reference_bytes(NativeBundle(raw, me_cert, {"nested": {"deeper": []}}), tmp_path / "me.wsdp")

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_reference_for_every_shape(self, tmp_path_factory, data):
        # symmetric orders 0-6 and general shapes 0-5 x 0-5, 0 x 0, 1 x 1 and
        # non-square among them, at every depth a matrix takes in a bundle:
        # instance and X sequence (3), G and T (2), clean instance (4)
        values = st.integers(1, 6).flatmap(
            lambda q: st.integers(-40, 40).map(lambda p: Fraction(p, q)))

        def symmetric(n):
            size = n * (n + 1) // 2
            return SymMatrix(n, data.draw(st.lists(values, min_size=size, max_size=size)))

        def general():
            rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
            return Matrix(rows, cols, data.draw(st.lists(values, min_size=rows * cols,
                                                         max_size=rows * cols)))

        def instance(n):
            m = data.draw(st.integers(0, 2))
            return SdpInstance(n, tuple(symmetric(n) for _ in range(m)),
                               tuple(data.draw(values) for _ in range(m)))

        raw, clean = instance(data.draw(st.integers(0, 6))), instance(data.draw(st.integers(0, 6)))
        order = data.draw(st.integers(0, 6))
        cert = WeakCertificate(
            raw=raw, row_ops=general(), transform=general(), clean=clean, k=0,
            xseq=tuple(symmetric(order) for _ in range(data.draw(st.integers(1, 2)))),
            p_structure=Structure(order, ()), q_structure=Structure(order, ((),)),
        )
        assert_reference_bytes(NativeBundle(raw, cert), tmp_path_factory.mktemp("layout") / "b.wsdp")

    def test_cached_leaves_are_not_shared(self, tmp_path):
        # the writers share each matrix's leaf text; a caller's rows are its own
        instance = generate(GenConfig(n=6, m=4, k=2, l=2, seed=1, messy=True))
        bundle = NativeBundle(instance.raw, WeakCertificate.from_instance(instance))
        first = bundle_to_json(bundle)
        expected = json.dumps(first)
        first["instance"]["matrices"][0][0][0] = "tampered"
        first["certificate"]["x_sequence"][0][1].append("tampered")
        first["certificate"]["row_ops"][0].clear()
        assert json.dumps(bundle_to_json(bundle)) == expected
        assert_reference_bytes(bundle, tmp_path / "instance.wsdp")

    def test_leaves_spell_fractions(self):
        instance = generate(GenConfig(n=6, m=4, k=2, l=2, seed=1, messy=True))
        cert = fractional(WeakCertificate.from_instance(instance))
        doc = bundle_to_json(NativeBundle(instance.raw, cert))["certificate"]
        pairs = [(doc["row_ops"], cert.row_ops), (doc["transform"], cert.transform)]
        for rows, mat in pairs + list(zip(doc["x_sequence"], cert.xseq)):
            assert rows == [[str(v) for v in row] for row in mat.to_rows()]


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
        structures = [
            me_instance()[1].q_structure,
            # order 7: interleaved blocks, index 7 uncovered and an empty trailing
            # block; the second overlaps the first, as an X side overlaps an A side
            Structure(7, ({2, 5}, {1, 4, 6}, {3}, ())),
            Structure(7, ({1, 3}, {2, 5, 6}, ())),
        ]
        colors = {"pivot": "#c23b22", "arbitrary": "#3566a5", "zero": "#ffffff"}
        for number, structure in enumerate(structures):
            n = structure.n
            matrices = [SymMatrix.zeros(n)] * len(structure.blocks)
            written = render_blocks(matrices, structure, tmp_path / str(number), stem="X")
            cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            for idx, path in enumerate(written, start=1):
                rects = [l for l in path.read_text().splitlines() if l.startswith("<rect")]
                assert len(rects) == len(cells)
                for rect, (i, j) in zip(rects, cells):
                    assert rect.startswith(f'<rect x="{4 + 18 * (j - 1)}" y="{4 + 18 * (i - 1)}" ')
                    assert f'fill="{colors[cell_region(structure, idx, i, j)]}"' in rect

    def test_templates_of_four_orders_stay_alive(self, tmp_path):
        # bundles written and pictures rendered at six orders leave the SVG
        # templates of the last four alive, and nothing per order from the
        # native writer; the other caches are emptied before the count
        import gc
        import sys
        import tracemalloc
        from weaksdp import exact

        def bundle(n):
            inst = SdpInstance(n, (SymMatrix.identity(n),), (Fraction(1, 3),))
            cert = WeakCertificate(inst, Matrix.identity(1), Matrix.identity(n), inst, 0,
                                   (SymMatrix.identity(n),), Structure(n, ()), Structure(n, ((),)))
            return NativeBundle(inst, cert)

        def work(n):
            write_native(bundle(n), tmp_path / "b.wsdp")
            render_blocks([SymMatrix.zeros(n)] * 2, Structure(n, ({1}, ())), tmp_path)

        def clear():
            for cache in (formats._leaves, formats._block_svg, exact._mirror):
                cache.cache_clear()
            gc.collect()

        orders = range(41, 47)
        work(3)  # anything made once per process is made before the count
        formats._svg_template.cache_clear()
        clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in orders:
                work(n)
            clear()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kept = sum(sys.getsizeof(formats._svg_template.__wrapped__(n)) for n in orders[-4:])
        one_order = sys.getsizeof(formats._svg_template.__wrapped__(orders[0]))
        assert formats._svg_template.cache_info().currsize == 4
        assert kept <= retained < kept + one_order // 2

    def test_deterministic_output(self, tmp_path):
        _, cert = me_instance()
        a = render_blocks(cert.clean.A, cert.p_structure, tmp_path / "a", stem="A")
        b = render_blocks(cert.clean.A, cert.p_structure, tmp_path / "b", stem="A")
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
