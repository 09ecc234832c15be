"""File formats: SDPA sparse, CBF, a lossless native bundle, and SVG block plots.

The native ``.wsdp`` bundle is the authoritative on-disk form: versioned JSON
with every rational spelled as an exact ``p/q`` string, round-tripping
bit-exactly. Its layout is pinned: JSON with indent 1 and one leaf per line.
`write_native` writes that text by hand: each matrix is its leaves, n^2 of
them from `exact.square_entries` for a symmetric matrix, joined row by row
with the separators of the layout, and `json.dumps(bundle_to_json(bundle),
indent=1)` plus a newline, built from the rows of `_leaf_rows`, is the
reference it matches byte for byte. SDPA and CBF are solver-input exports;
they are exact whenever every value has a terminating decimal expansion
(always true for the integer instances the generator emits) and flagged as
lossy otherwise. All three writers take the text of a matrix from
`_leaves`, which spells each distinct matrix once; SDPA and CBF spell every
other value through `_format_value`. An SVG picture fills the cached
template of its order, `_svg_template`, with one colour per cell, each cell
classified by `cell_region`. Nothing written here contains timestamps, so
identical inputs produce identical bytes. The digit limit is checked where
an integer is spelled, on the reduced p and q of each value (`_leaves`,
`_format_value` and the native b) and on a bundle's `generation`: a writer
takes every value that `read_native` takes, and raises ValueError before it
opens its file for an integer of more than DIGIT_LIMIT digits, or a
generation float that is not finite, which no reader takes back.
`read_native` reads strict JSON: ``NaN``, ``Infinity``, ``-Infinity`` and a
number that overflows a float, such as ``1e999``, are parse errors.

The readers only turn text into numbers: integer fields go through
`exact.strict_int`, each distinct token once per file. `read_native` hands
the texts of every matrix to `SymMatrix.from_rows` or, once `Matrix._shape`
has checked the shape of G and T, to `Matrix.from_rows`, and those of b to
`SdpInstance`, so `exact.py` reads every ``p/q`` and the symmetric-rows
rule has one implementation. `read_sdpa` finds its three header lines from
the top, each one integer, and reads every body, valid or not, in one pass:
one `split()` of the whole body, each field's distinct tokens parsed and
range-checked once, and each cell placed at its packed offset by
`exact.upper_offset`, which the writers' `_upper_cells` use too. Only when
that pass refuses a body does a walk over its numbered lines name the first
faulty line and its fault.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice, repeat
from math import floor, gcd, isfinite, log10
from operator import add, floordiv
from pathlib import Path
from typing import Iterator, NoReturn, Sequence

from .exact import (
    CELL_LIMIT, DIGIT_LIMIT, ORDER_LIMIT, Matrix, SymMatrix, square_entries, square_rows, strict_int,
    check_digit_limit, check_json_numbers, upper_offset,
)
from .echelon import SdpInstance, Structure, cell_region
from .certify import WeakCertificate

SCHEMA = "wsdp/1"


class SdpaFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class NativeFormatError(ValueError):
    pass


def _size_error(n: int, m: int) -> str | None:
    """Why a reader refuses m matrices of order n (ORDER_LIMIT, CELL_LIMIT), or None."""
    if n > ORDER_LIMIT:
        return f"order {n} is over the limit of {ORDER_LIMIT}"
    if m * (n * (n + 1) // 2) > CELL_LIMIT:
        return f"{m} matrices of order {n} are over the limit of {CELL_LIMIT} cells"
    return None


_SIGNIFICANT = 17
"""Significant digits of a value that SDPA or CBF cannot spell exactly."""


def _format_value(num: int, den: int) -> tuple[str, bool]:
    """The SDPA or CBF text of num / den and whether it is rounded.

    The reduced p / q is refused (ValueError) when p or q has more than
    DIGIT_LIMIT digits: no reader takes such an integer back. A value is
    exact when q = 2^a 5^b and its max(a, b) decimals are at most
    DIGIT_LIMIT, the most `read_sdpa` takes, and an integer has no point;
    any other is rounded half up to _SIGNIFICANT significant digits and to
    at most DIGIT_LIMIT decimals, with no exponent, and keeps a non-zero
    digit, as |p / q| >= 1 / q > 10^-DIGIT_LIMIT. The whole part and the
    decimals are spelled apart, so only their own lengths meet the
    interpreter's limit on int-to-text digits.
    """
    value = Fraction(num, den)
    num, den = abs(value.numerator), value.denominator
    check_digit_limit((num, den))
    rest, twos, fives = den, 0, 0
    while rest % 2 == 0:
        rest, twos = rest // 2, twos + 1
    while rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    places = max(twos, fives)
    if rest == 1 and places <= DIGIT_LIMIT:
        scaled, rounded = num * 10**places // den, False
    else:
        magnitude = floor(log10(num) - log10(den)) + 1  # not below the true one: refined below
        while Fraction(10) ** magnitude > abs(value):
            magnitude -= 1
        # now 10^magnitude <= |value| < 10^(magnitude+1)
        places = min(_SIGNIFICANT - 1 - magnitude, DIGIT_LIMIT)
        scaled, rounded = floor(abs(value) * Fraction(10) ** places + Fraction(1, 2)), True
    sign = "-" if value < 0 else ""
    if places <= 0:  # -places zeros follow scaled
        return f"{sign}{scaled}" + "0" * -places, rounded
    whole, decimals = divmod(scaled, 10**places)
    return f"{sign}{whole}.{decimals:0{places}d}", rounded


@lru_cache(maxsize=64)
def _leaves(mat: Matrix | SymMatrix) -> tuple[str, ...]:
    """The `str(Fraction)` text of each stored entry, in storage order: the
    packed upper triangle of a `SymMatrix`, row-major for a `Matrix`.
    ValueError when a reduced p or q has more than DIGIT_LIMIT digits.

    Every writer spells a matrix through here, and hash and `==` are
    structural, so the files of one library pair spell each distinct matrix
    once. A pair of the large category (n = 40, m = 25, l <= 3) holds at most
    58: its clean and messy A_i, its X_j, and G and T on either side."""
    den = mat._d
    nums = mat._u if type(mat) is SymMatrix else mat._e
    if den == 1:
        check_digit_limit(nums)
        return tuple(map(str, nums))
    divisors = list(map(gcd, nums, repeat(den)))
    ps, qs = list(map(floordiv, nums, divisors)), list(map(floordiv, repeat(den), divisors))
    check_digit_limit(ps + qs)
    return tuple(str(p) if q == 1 else f"{p}/{q}" for p, q in zip(ps, qs))


@lru_cache(maxsize=8)
def _upper_cells(n: int, by_column: bool) -> tuple[tuple[int, str], ...]:
    """(offset in the packed upper triangle, text of the cell) of each cell
    i <= j of order n: row by row as SDPA's 1-based "i j", or column by
    column as CBF's 0-based "j-1 i-1", the lower triangle row by row."""
    cells = [(upper_offset(n, i, j), i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    if by_column:
        cells.sort(key=lambda cell: (cell[2], cell[1]))
        return tuple((p, f"{j - 1} {i - 1}") for p, i, j in cells)
    return tuple((p, f"{i} {j}") for p, i, j in cells)


def _entry_lines(mat: SymMatrix, prefix: str, by_column: bool) -> tuple[list[str], bool]:
    """The line `prefix`, cell text and value of each non-zero upper entry, in
    the order of `_upper_cells`, and whether a value is rounded. An integer
    matrix takes its values from `_leaves`; any other goes through
    `_format_value`."""
    u, den = mat._u, mat._d
    cells = _upper_cells(mat.n, by_column)
    if den == 1:
        leaves = _leaves(mat)
        return [f"{prefix}{cell} {leaves[p]}" for p, cell in cells if u[p]], False
    spelled = [(cell, *_format_value(u[p], den)) for p, cell in cells if u[p]]
    return [f"{prefix}{cell} {text}" for cell, text, _ in spelled], any(r for *_, r in spelled)


def _comment(label: str) -> str:
    """`label` as one line of printable ASCII, escaped as by `unicode_escape`:
    the identity on printable ASCII other than a backslash."""
    return label.encode("unicode_escape").decode("ascii")


def write_sdpa(inst: SdpInstance, path, label: str | None = None) -> None:
    """Emit the instance in SDPA sparse format (single PSD block of order n).

    The feasibility system A_i . X = b_i, X psd is written as the SDPA dual
    standard form with an all-zero objective matrix, so a solver's "primal
    infeasible" report corresponds to infeasibility of the system as stated.
    Constraint matrices are numbered 1..m; only upper-triangle nonzeros are
    written. A value without an exact decimal of at most DIGIT_LIMIT
    decimals is rounded (`_format_value`) and the header carries a lossy flag.
    """
    body: list[str] = []
    lossy = False
    for idx, mat in enumerate(inst.A, start=1):
        entries, rounded = _entry_lines(mat, f"{idx} 1 ", by_column=False)
        body += entries
        lossy = lossy or rounded
    b_parts = []
    for v in inst.b:
        text, rounded = _format_value(*v.as_integer_ratio())
        lossy = lossy or rounded
        b_parts.append(text)
    lines = [
        "* feasibility system: A_i . X = b_i over one psd block",
        "* convention: emitted as the SDPA dual standard form with zero objective matrix,",
        "*   so reported primal infeasibility means this system is infeasible",
    ]
    if label:
        lines.append(f"* label: {_comment(label)}")
    if lossy:
        lines.append(f"* lossy: some values rounded to {_SIGNIFICANT} significant digits")
    lines.append(str(inst.m))
    lines.append("1")
    lines.append(str(inst.n))
    lines.append(" ".join(b_parts))
    lines.extend(body)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _line_of(exc: UnicodeDecodeError) -> int:
    """The 1-based line of the byte a whole-file decode failed on."""
    return exc.object.count(b"\n", 0, exc.start) + 1


# a value: an optional minus, a digit run, and optionally a point and another run
_SDPA_VALUE = re.compile(r"(-?)([0-9]+)(?:\.([0-9]+))?")

# a value in that grammar with no run over DIGIT_LIMIT digits, then a space:
# substituted away from space-separated tokens, it leaves only what is not a
# value (one match over all the tokens would hold regex state for each of them)
_SDPA_VALUE_TOKEN = re.compile(rf"-?[0-9]{{1,{DIGIT_LIMIT}}}(?:\.[0-9]{{1,{DIGIT_LIMIT}}})? ")

_SDPA_FIELDS = ("matrix number", "block number", "row", "column")


def _sdpa_int(text: str, line_no: int, what: str) -> int:
    try:
        return strict_int(text)
    except ValueError:
        raise SdpaFormatError(f"expected integer {what}, got {text!r}", line_no) from None


def _sdpa_value(text: str, line_no: int | None) -> tuple[int, int]:
    """The pair (num, 10^d) of a plain decimal value with d decimals."""
    match = _SDPA_VALUE.fullmatch(text)
    if match is None:
        raise SdpaFormatError(f"malformed value {text!r}, expected a plain decimal", line_no)
    sign, whole, decimals = match.groups(default="")
    try:
        if max(len(whole), len(decimals)) > DIGIT_LIMIT:
            raise ValueError
        num = int(whole) * 10 ** len(decimals) + int(decimals or 0)
    except ValueError:  # a digit run of more than DIGIT_LIMIT digits
        raise SdpaFormatError(f"value of {len(text)} characters is too long", line_no) from None
    return -num if sign else num, 10 ** len(decimals)


def _data_lines(lines: list[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each line that is neither blank nor a comment."""
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if text and text[0] not in '*"':
            yield line_no, text


def _int_table(tokens: list[str], low: int, high: int, scale: int = 1) -> dict[str, int]:
    """scale * k for each distinct token spelling an integer k in low..high;
    ValueError for any other token."""
    ints = {token: strict_int(token) for token in set(tokens)}
    if ints and not low <= min(ints.values()) <= max(ints.values()) <= high:
        raise ValueError("out of range")
    return {token: scale * k for token, k in ints.items()}


def _read_body(lines: list[str], n: int, m: int) -> tuple[SymMatrix, ...]:
    """The m matrices of order n that the body `lines` set; ValueError when a
    data line of it is faulty.

    The body is split once, with a token "\\0" after each data line, so a
    line of other than five fields puts a "\\0" out of place. Each field's
    distinct tokens are parsed and range-checked once, and the cells are
    placed through tables built from those tokens, none larger than the
    file. A line of matrix number 0, the objective, is dropped; when a cell
    is set twice, the later line wins."""
    # the data lines, as `_data_lines` finds them
    data = [text for text in map(str.strip, lines) if text and text[0] not in '*"']
    tokens = " \0 ".join([*data, ""]).split()
    if len(tokens) != 6 * len(data) or tokens[5::6].count("\0") != len(data):
        raise ValueError("a line of other than five fields")
    mats, blocks, rows, cols, values = (tokens[field::6] for field in range(5))
    distinct = set(values)
    spelled = " ".join([*distinct, ""])
    size = n * (n + 1) // 2
    base = _int_table(mats, 0, m, size)  # k * size: the offsets below subtract one size
    _int_table(blocks, 1, 1)
    high, low = _int_table(rows, 1, n, n + 1), _int_table(cols, 1, n)
    if _SDPA_VALUE_TOKEN.sub("", spelled):
        raise ValueError("a value outside the grammar")
    # a cell (i, j) is the key i (n + 1) + j, and each distinct key gets its offset
    keys = list(map(add, map(high.__getitem__, rows), map(low.__getitem__, cols)))
    offset = {key: upper_offset(n, *sorted(divmod(key, n + 1))) - size for key in set(keys)}
    bases = list(map(base.__getitem__, mats))
    positions = map(add, bases, map(offset.__getitem__, keys))
    decimal = "." in spelled  # then every entry is a (num, 10^d) pair
    if decimal:
        value_of = {value: _sdpa_value(value, None) for value in distinct}
    else:
        value_of = dict(zip(distinct, map(int, distinct)))
    flat = [(0, 1) if decimal else 0] * (m * size)
    # a line of the objective has base 0, and `compress` drops it
    for position, value in compress(zip(positions, map(value_of.__getitem__, values)), bases):
        flat[position] = value
    chunks = [flat[start:start + size] for start in range(0, m * size, size)]
    if decimal:
        return tuple(SymMatrix._of_ratios(n, nums) for nums in chunks)
    return tuple(SymMatrix._of(n, nums, 1) for nums in chunks)


def _first_fault(body: Iterator[tuple[int, str]], n: int, m: int) -> NoReturn:
    """Raise the fault of the first faulty line of the numbered `body` lines,
    which `_read_body` refused: the walk names the line and builds nothing."""
    for line_no, line in body:
        fields = line.split()
        if len(fields) != 5:
            raise SdpaFormatError(f"expected 5 fields, got {len(fields)}", line_no)
        matno, blkno, i, j = (_sdpa_int(text, line_no, what)
                              for text, what in zip(fields, _SDPA_FIELDS))
        _sdpa_value(fields[4], line_no)
        if not (0 <= matno <= m):
            raise SdpaFormatError(f"matrix number {matno} outside 1..{m}", line_no)
        if blkno != 1:
            raise SdpaFormatError(f"block number must be 1, got {blkno}", line_no)
        if not (1 <= i <= n and 1 <= j <= n):
            raise SdpaFormatError(f"entry ({i},{j}) outside order {n}", line_no)
    raise AssertionError("a refused SDPA body has no faulty line")


def read_sdpa(path) -> SdpInstance:
    """Parse a single-block SDPA sparse file back into an instance.

    Integer fields (counts, sizes, matrix, block, row and column numbers)
    must be ``-?[0-9]+``, and the constraint count must not be negative.
    Values must be plain decimals, ``-?[0-9]+(.[0-9]+)?``: no exponent, no
    fraction, no sign other than a leading minus. No integer, and neither
    digit run of a value, may have more than DIGIT_LIMIT digits. A line of
    matrix number 0 (the objective) must have block number 1 and a cell
    inside the order, and is then dropped.

    The three header lines are found from the top, each one integer and
    nothing else, and the body is read in one pass, valid or not. Only when
    that pass refuses the body does a walk over its numbered lines name the
    first faulty line and its first fault.
    """
    try:
        lines = Path(path).read_bytes().decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise SdpaFormatError("non-ASCII byte", _line_of(exc)) from None
    data = _data_lines(lines)
    header = list(islice(data, 3))
    if len(header) < 3:
        raise SdpaFormatError("file shorter than the header lines")
    (no_m, m_text), (no_blk, blk_text), (no_size, size_text) = header
    m = _sdpa_int(m_text, no_m, "constraint count")
    if m < 0:
        raise SdpaFormatError(f"constraint count must be non-negative, got {m}", no_m)
    nblocks = _sdpa_int(blk_text, no_blk, "block count")
    if nblocks != 1:
        raise SdpaFormatError(f"only single-block files are supported, got {nblocks}", no_blk)
    n = _sdpa_int(size_text, no_size, "block size")
    if n < 1:
        # a negative size is a diagonal (LP) block, which has no PSD reading
        raise SdpaFormatError(f"block size must be a positive PSD order, got {n}", no_size)
    if (problem := _size_error(n, m)) is not None:
        raise SdpaFormatError(problem, no_size)
    last = no_size
    b: tuple[Fraction, ...] = ()
    if m:
        b_line = next(data, None)
        if b_line is None:
            raise SdpaFormatError("missing right-hand side line")
        last, b_text = b_line
        b_fields = b_text.split()
        if len(b_fields) != m:
            raise SdpaFormatError(f"expected {m} right-hand side values, got {len(b_fields)}", last)
        b = tuple(Fraction(*_sdpa_value(f, last)) for f in b_fields)
    try:
        matrices = _read_body(lines[last:], n, m)
    except ValueError:
        _first_fault(data, n, m)
    return SdpInstance(n, matrices, b)


def write_cbf(inst: SdpInstance, path, label: str | None = None) -> None:
    """Emit the instance in CBF: one PSD variable of order n, m scalar equalities.

    Each constraint is written as F_i . X + shift in the zero cone with
    F_i = A_i and shift = -b_i, matching A_i . X = b_i literally. Lower
    triangle coordinates, 0-based indices per the format.
    """
    lines = ["# feasibility system over one psd variable: A_i . X = b_i"]
    if label:
        lines.append(f"# label: {_comment(label)}")
    lossy = False
    fcoord: list[str] = []
    for ci, mat in enumerate(inst.A):
        entries, rounded = _entry_lines(mat, f"{ci} 0 ", by_column=True)
        fcoord += entries
        lossy = lossy or rounded
    bcoord: list[str] = []
    for ci, v in enumerate(inst.b):
        if v != 0:
            text, rounded = _format_value(*(-v).as_integer_ratio())
            lossy = lossy or rounded
            bcoord.append(f"{ci} {text}")
    if lossy:
        lines.append(f"# lossy: some values rounded to {_SIGNIFICANT} significant digits")
    lines += ["", "VER", "3", "", "OBJSENSE", "MIN", "", "PSDVAR", "1", str(inst.n), "", "CON",
              f"{inst.m} 1", f"L= {inst.m}"]
    if fcoord:
        lines += ["", "FCOORD", str(len(fcoord))] + fcoord
    if bcoord:
        lines += ["", "BCOORD", str(len(bcoord))] + bcoord
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# --- native bundle ---------------------------------------------------------


@dataclass(frozen=True)
class NativeBundle:
    """Lossless container: instance, optional certificate, generation metadata."""

    instance: SdpInstance
    certificate: WeakCertificate | None = None
    generation: dict | None = None
    label: str | None = None

    def __post_init__(self):
        if self.certificate is not None and self.certificate.raw != self.instance:
            raise ValueError("certificate does not refer to the bundled instance")


def _leaf_rows(mat: Matrix | SymMatrix) -> list[list[str]]:
    """The rows of the matrix's `_leaves`, new lists on every call: a
    `SymMatrix` mirrored below the diagonal by `exact.square_rows`."""
    leaves = _leaves(mat)
    if type(mat) is SymMatrix:
        return square_rows(leaves, mat.n)
    width = mat.cols
    return [list(leaves[r * width:(r + 1) * width]) for r in range(mat.rows)]


def _bundle_doc(bundle: NativeBundle, matrix) -> dict:
    """The bundle's JSON document with each matrix given as `matrix(mat)`: the
    one definition of the schema's keys and their order."""

    def instance(inst: SdpInstance) -> dict:
        check_digit_limit([p for v in inst.b for p in v.as_integer_ratio()])
        return {"n": inst.n, "b": [str(v) for v in inst.b], "matrices": [matrix(a) for a in inst.A]}

    def blocks(structure: Structure) -> list[list[int]]:
        return [sorted(block) for block in structure.blocks]

    check_json_numbers(bundle.generation)
    cert = bundle.certificate
    return {
        "schema": SCHEMA,
        "label": bundle.label,
        "instance": instance(bundle.instance),
        "certificate": None if cert is None else {
            "k": cert.k,
            "l": cert.l,
            "row_ops": matrix(cert.row_ops),
            "transform": matrix(cert.transform),
            "clean": instance(cert.clean),
            "x_sequence": [matrix(x) for x in cert.xseq],
            "p_blocks": blocks(cert.p_structure),
            "q_blocks": blocks(cert.q_structure),
        },
        "generation": bundle.generation,
    }


def bundle_to_json(bundle: NativeBundle) -> dict:
    return _bundle_doc(bundle, _leaf_rows)


class _MatrixText:
    """A matrix in the document `write_native` lays out."""

    __slots__ = ("mat",)

    def __init__(self, mat: Matrix | SymMatrix):
        self.mat = mat

    def layout(self, indent: str) -> str:
        """The text of `json.dumps` of the matrix's rows of leaves nested at
        `indent`: its `_leaves`, n^2 of them from `exact.square_entries` for
        a `SymMatrix`, joined row by row with the separators of the layout.
        Every leaf is ASCII -?[0-9]+(/[0-9]+)?, so no leaf needs escaping."""
        mat, leaves = self.mat, _leaves(self.mat)
        if type(mat) is SymMatrix:
            rows = cols = mat.n
            leaves = square_entries(leaves, rows)
        else:
            rows, cols = mat.rows, mat.cols
        if not rows:
            return "[]"
        outer = indent + " "
        if not cols:
            return "[\n" + ",\n".join([outer + "[]"] * rows) + "\n" + indent + "]"
        leaf = '",\n' + outer + ' "'
        row = '"\n' + outer + '],\n' + outer + '[\n' + outer + ' "'
        # `cols` references to one iterator: zip groups the leaves a row at a time
        body = row.join([leaf.join(r) for r in zip(*[iter(leaves)] * cols)])
        return f'[\n{outer}[\n{outer} "{body}"\n{outer}]\n{indent}]'


def _holds_matrix(value) -> bool:
    if type(value) is dict:
        return any(map(_holds_matrix, value.values()))
    if type(value) is list:
        return any(map(_holds_matrix, value))
    return type(value) is _MatrixText


def _layout(value, indent: str) -> str:
    """The text of `json.dumps(value, indent=1)` nested at `indent`. A matrix,
    and each dict or list that holds one, is laid out by hand; anything else
    goes through `json.dumps`."""
    if type(value) is _MatrixText:
        return value.layout(indent)
    inner = indent + " "
    if type(value) is dict and _holds_matrix(value):
        items = [f"{inner}{json.dumps(key)}: {_layout(v, inner)}" for key, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if type(value) is list and _holds_matrix(value):
        return "[\n" + ",\n".join(inner + _layout(v, inner) for v in value) + "\n" + indent + "]"
    return json.dumps(value, indent=1).replace("\n", "\n" + indent)


def write_native(bundle: NativeBundle, path) -> None:
    """Write the bundle as `json.dumps(bundle_to_json(bundle), indent=1)` and a
    newline would, with the matrices laid out from the stored numerators."""
    text = _layout(_bundle_doc(bundle, _MatrixText), "")
    Path(path).write_text(text + "\n", encoding="ascii")


def _json_int(text: str) -> int:
    """A JSON integer literal, refused past DIGIT_LIMIT digits."""
    try:
        return strict_int(text)
    except ValueError as exc:
        raise NativeFormatError(f"JSON {exc}") from None


def _json_constant(text: str) -> NoReturn:
    """`NaN`, `Infinity` and `-Infinity`, which `json` reads but JSON (RFC
    8259) does not have: refused."""
    raise NativeFormatError(f"JSON has no number {text}")


def _json_float(text: str) -> float:
    """A JSON number with a fraction or an exponent, refused when it reads as
    an infinite float, as ``1e999`` does."""
    value = float(text)
    if not isfinite(value):
        raise NativeFormatError("a JSON number outside the float range")
    return value


def _list(value, what: str) -> list:
    """`value` if it is a JSON list; a string or an object would otherwise be
    iterated character by character or key by key."""
    if type(value) is not list:
        raise NativeFormatError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _rows(value, what: str, item: str = "row") -> list[list]:
    """`value` if it is a list of lists: the rows of a matrix, or the blocks
    of a structure; the first item that is not a list is named."""
    rows = _list(value, what)
    if not set(map(type, rows)) <= {list}:
        for row in rows:
            _list(row, f"a {item} of {what}")
    return rows


def _parse_instance(doc: dict, where: str) -> SdpInstance:
    try:
        n = doc["n"]
        if type(n) is not int:
            raise ValueError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"n must be a positive order, got {n}")
        b = _list(doc["b"], "b")
        mats = _list(doc["matrices"], "matrices")
        if (problem := _size_error(n, len(mats))) is not None:
            raise ValueError(problem)
        matrices = tuple(SymMatrix.from_rows(_rows(rows, "a matrix")) for rows in mats)
        return SdpInstance(n, matrices, b)
    except (KeyError, TypeError, ValueError) as exc:
        raise NativeFormatError(f"malformed instance in {where}: {exc}") from exc


def read_native(path) -> NativeBundle:
    try:
        text = Path(path).read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise NativeFormatError(f"non-ASCII byte on line {_line_of(exc)}") from None
    try:
        doc = json.loads(text, parse_int=_json_int, parse_float=_json_float, parse_constant=_json_constant)
    except json.JSONDecodeError as exc:
        raise NativeFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError:
        raise NativeFormatError("JSON nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise NativeFormatError(f"unsupported schema {doc.get('schema') if isinstance(doc, dict) else None!r}, expected {SCHEMA!r}")
    instance = _parse_instance(doc.get("instance", {}), "instance")
    cert_doc = doc.get("certificate")
    certificate = None
    if cert_doc is not None:
        try:
            k, l = cert_doc["k"], cert_doc["l"]
            if type(k) is not int or type(l) is not int:
                raise NativeFormatError(f"k and l must be integers, got {k!r} and {l!r}")
            clean = _parse_instance(cert_doc["clean"], "certificate.clean")
            if (clean.m, clean.n) != (instance.m, instance.n):
                raise ValueError(f"clean instance has m = {clean.m} and n = {clean.n}, "
                                 f"expected the raw m = {instance.m} and n = {instance.n}")
            x_sequence = _list(cert_doc["x_sequence"], "x_sequence")
            if (problem := _size_error(clean.n, len(x_sequence))) is not None:
                raise ValueError(f"x_sequence: {problem}")

            def square(key: str, order: int) -> Matrix:
                rows = _rows(cert_doc[key], key)
                if (shape := Matrix._shape(rows)) != (order, order):  # before any entry is read
                    raise ValueError(f"{key} must be {order} x {order}, got {shape[0]} x {shape[1]}")
                return Matrix.from_rows(rows)

            row_ops, transform = square("row_ops", instance.m), square("transform", instance.n)
            xseq = tuple(SymMatrix.from_rows(_rows(rows, "a matrix")) for rows in x_sequence)
            for j, x in enumerate(xseq, start=1):
                if x.n != clean.n:
                    raise ValueError(f"X_{j} has order {x.n}, expected the clean order {clean.n}")
            certificate = WeakCertificate(
                raw=instance,
                row_ops=row_ops,
                transform=transform,
                clean=clean,
                k=k,
                xseq=xseq,
                p_structure=Structure(
                    clean.n, tuple(_rows(cert_doc["p_blocks"], "p_blocks", "block"))),
                q_structure=Structure(
                    clean.n, tuple(_rows(cert_doc["q_blocks"], "q_blocks", "block"))),
            )
            if certificate.l != l:
                raise NativeFormatError("stored l disagrees with the x-sequence length")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, NativeFormatError):
                raise
            raise NativeFormatError(f"malformed certificate: {exc}") from exc
    label = doc.get("label")
    if label is not None and type(label) is not str:
        raise NativeFormatError(f"label must be a string or null, got {type(label).__name__}")
    return NativeBundle(instance=instance, certificate=certificate,
                        generation=doc.get("generation"), label=label)


# --- block rendering -------------------------------------------------------

_CELL = 18
_MARGIN = 4
_COLORS = {"pivot": "#c23b22", "arbitrary": "#3566a5", "zero": "#ffffff"}


@lru_cache(maxsize=4)
def _svg_template(n: int) -> str:
    """The SVG text of an n x n grid of cells with a ``%s`` for each cell's
    colour, row by row. Four orders are kept: the library's 5, 10, 20 and
    40. A template takes about 94 characters per cell: 94 MB at
    ORDER_LIMIT, so the cache holds at most about 375 MB."""
    side = 2 * _MARGIN + n * _CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}">'
    ]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x = _MARGIN + (j - 1) * _CELL
            y = _MARGIN + (i - 1) * _CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="%s" stroke="#999999" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@lru_cache(maxsize=8)
def _block_svg(structure: Structure, idx: int) -> str:
    """The SVG text of the idx-th member of a sequence with `structure`: the
    template of its order filled with the colour of each cell's
    `cell_region`. It depends on nothing else, so the clean and messy
    instances of a library pair, which share their structures, render each
    picture once (a pair has at most 8 pictures, k + 1 and l + 1 of at most
    4 each)."""
    n = structure.n
    cells = range(1, n + 1)
    return _svg_template(n) % tuple(
        _COLORS[cell_region(structure, idx, i, j)] for i in cells for j in cells)


def render_blocks(
    matrices: Sequence[SymMatrix],
    structure: Structure,
    outdir,
    stem: str = "matrix",
) -> list[Path]:
    """One SVG per matrix: pivot-block cells red, earlier-row cells blue, zeros white.

    Cells are classified by `cell_region`, the regions the echelon validator
    walks, so a rendering is a faithful picture of the validation regions.
    Each picture is the template of its order (`_svg_template`, four orders
    kept: the library's 5, 10, 20 and 40) filled with one colour per cell.
    """
    matrices = tuple(matrices)
    if len(matrices) != len(structure.blocks):
        raise ValueError("structure block count does not match matrix count")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for idx in range(1, len(matrices) + 1):
        target = out / f"{stem}_{idx:02d}.svg"
        target.write_text(_block_svg(structure, idx), encoding="ascii")
        written.append(target)
    return written
