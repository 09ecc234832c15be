"""File formats: SDPA sparse, CBF, a lossless native bundle, and SVG block plots.

The native ``.wsdp`` bundle is the authoritative on-disk form: versioned JSON
with every rational spelled as an exact ``p/q`` string, round-tripping
bit-exactly. SDPA and CBF are solver-input exports; they are exact whenever
every value has a terminating decimal expansion (always true for the integer
instances the generator emits) and flagged as lossy otherwise. Nothing written
here contains timestamps, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .exact import Matrix, SymBuilder, SymMatrix, rational
from .echelon import SdpInstance, Structure, cell_region
from .certify import WeakCertificate

SCHEMA = "wsdp/1"


class SdpaFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class NativeFormatError(ValueError):
    pass


def _decimal_exact(q: Fraction) -> str | None:
    """Terminating decimal expansion of q, or None when 10-adic digits never end.

    Exact iff the denominator factors as 2^a 5^b; integers come out without a
    decimal point so they re-parse to the identical Fraction.
    """
    den = q.denominator
    a = 0
    while den % 2 == 0:
        den //= 2
        a += 1
    b = 0
    while den % 5 == 0:
        den //= 5
        b += 1
    if den != 1:
        return None
    shift = max(a, b)
    if shift == 0:
        return str(q.numerator)
    scaled = q.numerator * 10**shift // q.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def _decimal_rounded(q: Fraction, significant: int = 17) -> str:
    """Plain decimal string with `significant` significant digits, no exponent."""
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    num, den = abs(q.numerator), q.denominator

    def exceeds(mag: int) -> bool:
        # is 10^mag * den > num, in pure integer arithmetic?
        return den * 10**mag > num if mag >= 0 else den > num * 10**-mag

    magnitude = len(str(num)) - len(str(den))
    while exceeds(magnitude):
        magnitude -= 1
    # now 10^magnitude <= |q| < 10^(magnitude+1)
    shift = significant - 1 - magnitude
    if shift >= 0:
        scaled = (2 * num * 10**shift + den) // (2 * den)
    else:
        scaled = (2 * num + den * 10**-shift) // (2 * den * 10**-shift)
    digits = str(scaled)
    if len(digits) > significant:  # rounded up across a power of ten
        magnitude += 1
    point = magnitude + 1
    if point <= 0:
        return f"{sign}0.{'0' * (-point)}{digits}"
    if point >= len(digits):
        return sign + digits + "0" * (point - len(digits))
    return f"{sign}{digits[:point]}.{digits[point:]}"


def _format_value(q: Fraction) -> tuple[str, bool]:
    exact = _decimal_exact(q)
    if exact is not None:
        return exact, False
    return _decimal_rounded(q), True


def write_sdpa(inst: SdpInstance, path, label: str | None = None) -> None:
    """Emit the instance in SDPA sparse format (single PSD block of order n).

    The feasibility system A_i . X = b_i, X psd is written as the SDPA dual
    standard form with an all-zero objective matrix, so a solver's "primal
    infeasible" report corresponds to infeasibility of the system as stated.
    Constraint matrices are numbered 1..m; only upper-triangle nonzeros are
    written. Values whose denominator is not of the form 2^a 5^b are rounded
    to 17 significant digits and the header carries a lossy flag.
    """
    body: list[str] = []
    lossy = False
    for idx, mat in enumerate(inst.A, start=1):
        for i in range(1, inst.n + 1):
            for j in range(i, inst.n + 1):
                v = mat.at(i, j)
                if v != 0:
                    text, rounded = _format_value(v)
                    lossy = lossy or rounded
                    body.append(f"{idx} 1 {i} {j} {text}")
    b_parts = []
    for v in inst.b:
        text, rounded = _format_value(v)
        lossy = lossy or rounded
        b_parts.append(text)
    lines = [
        "* feasibility system: A_i . X = b_i over one psd block",
        "* convention: emitted as the SDPA dual standard form with zero objective matrix,",
        "*   so reported primal infeasibility means this system is infeasible",
    ]
    if label:
        lines.append(f"* label: {label}")
    if lossy:
        lines.append("* lossy: some values rounded to 17 significant digits")
    lines.append(str(inst.m))
    lines.append("1")
    lines.append(str(inst.n))
    lines.append(" ".join(b_parts))
    lines.extend(body)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# covers every value `write_sdpa` emits: an optional minus, digits, optional decimals
_SDPA_VALUE = re.compile(r"(-?)([0-9]+)(?:\.([0-9]+))?")


def read_sdpa(path) -> SdpInstance:
    """Parse a single-block SDPA sparse file back into an instance.

    Values must be plain decimals, ``-?[0-9]+(.[0-9]+)?``: no exponent, no
    fraction, no sign other than a leading minus.
    """
    raw_lines = Path(path).read_text(encoding="ascii").splitlines()
    numbered = [
        (no, line.strip())
        for no, line in enumerate(raw_lines, start=1)
        if line.strip() and not line.lstrip().startswith(("*", '"'))
    ]
    if len(numbered) < 3:
        raise SdpaFormatError("file shorter than the header lines")

    def parse_int(text: str, line_no: int, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise SdpaFormatError(f"expected integer {what}, got {text!r}", line_no) from None

    def parse_value(text: str, line_no: int) -> Fraction:
        match = _SDPA_VALUE.fullmatch(text)
        if match is None:
            raise SdpaFormatError(f"malformed value {text!r}, expected a plain decimal", line_no)
        sign, whole, decimals = match.groups(default="")
        try:
            num = int(whole) * 10 ** len(decimals) + int(decimals or 0)
        except ValueError:  # more digits than int() converts
            raise SdpaFormatError(f"value of {len(text)} characters is too long", line_no) from None
        return Fraction(-num if sign else num, 10 ** len(decimals))

    (no_m, m_text), (no_blk, blk_text), (no_size, size_text) = numbered[:3]
    m = parse_int(m_text, no_m, "constraint count")
    nblocks = parse_int(blk_text.split()[0], no_blk, "block count")
    if nblocks != 1:
        raise SdpaFormatError(f"only single-block files are supported, got {nblocks}", no_blk)
    n = parse_int(size_text.split()[0], no_size, "block size")
    if n < 1:
        # a negative size is a diagonal (LP) block, which has no PSD reading
        raise SdpaFormatError(f"block size must be a positive PSD order, got {n}", no_size)
    if m == 0:
        b: tuple[Fraction, ...] = ()
        body = numbered[3:]
    else:
        if len(numbered) < 4:
            raise SdpaFormatError("missing right-hand side line")
        no_b, b_text = numbered[3]
        b_fields = b_text.split()
        if len(b_fields) != m:
            raise SdpaFormatError(f"expected {m} right-hand side values, got {len(b_fields)}", no_b)
        b = tuple(parse_value(f, no_b) for f in b_fields)
        body = numbered[4:]

    builders = [SymBuilder(n) for _ in range(m)]
    for line_no, line in body:
        fields = line.split()
        if len(fields) != 5:
            raise SdpaFormatError(f"expected 5 fields, got {len(fields)}", line_no)
        matno = parse_int(fields[0], line_no, "matrix number")
        blkno = parse_int(fields[1], line_no, "block number")
        i = parse_int(fields[2], line_no, "row")
        j = parse_int(fields[3], line_no, "column")
        value = parse_value(fields[4], line_no)
        if matno == 0:
            continue  # objective entries are irrelevant to the feasibility system
        if not (1 <= matno <= m):
            raise SdpaFormatError(f"matrix number {matno} outside 1..{m}", line_no)
        if blkno != 1:
            raise SdpaFormatError(f"block number must be 1, got {blkno}", line_no)
        if not (1 <= i <= n and 1 <= j <= n):
            raise SdpaFormatError(f"entry ({i},{j}) outside order {n}", line_no)
        builders[matno - 1].set(i, j, value)  # sets (i, j) and (j, i), the last line wins
    return SdpInstance(n, tuple(builder.freeze() for builder in builders), b)


def write_cbf(inst: SdpInstance, path, label: str | None = None) -> None:
    """Emit the instance in CBF: one PSD variable of order n, m scalar equalities.

    Each constraint is written as F_i . X + shift in the zero cone with
    F_i = A_i and shift = -b_i, matching A_i . X = b_i literally. Lower
    triangle coordinates, 0-based indices per the format.
    """
    lines = ["# feasibility system over one psd variable: A_i . X = b_i"]
    if label:
        lines.append(f"# label: {label}")
    lossy = False
    fcoord: list[str] = []
    for ci, mat in enumerate(inst.A):
        for i in range(1, inst.n + 1):
            for j in range(1, i + 1):
                v = mat.at(i, j)
                if v != 0:
                    text, rounded = _format_value(v)
                    lossy = lossy or rounded
                    fcoord.append(f"{ci} 0 {i - 1} {j - 1} {text}")
    bcoord: list[str] = []
    for ci, v in enumerate(inst.b):
        if v != 0:
            text, rounded = _format_value(-v)
            lossy = lossy or rounded
            bcoord.append(f"{ci} {text}")
    if lossy:
        lines.append("# lossy: some values rounded to 17 significant digits")
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


def _rows_json(mat: Matrix | SymMatrix) -> list[list[str]]:
    return [[str(v) for v in row] for row in mat.to_rows()]


def _instance_json(inst: SdpInstance) -> dict:
    return {
        "n": inst.n,
        "b": [str(v) for v in inst.b],
        "matrices": [_rows_json(a) for a in inst.A],
    }


def _structure_json(structure: Structure) -> list[list[int]]:
    return [sorted(block) for block in structure.blocks]


def bundle_to_json(bundle: NativeBundle) -> dict:
    doc: dict = {"schema": SCHEMA, "label": bundle.label, "instance": _instance_json(bundle.instance)}
    cert = bundle.certificate
    if cert is None:
        doc["certificate"] = None
    else:
        doc["certificate"] = {
            "k": cert.k,
            "l": cert.l,
            "row_ops": _rows_json(cert.row_ops),
            "transform": _rows_json(cert.transform),
            "clean": _instance_json(cert.clean),
            "x_sequence": [_rows_json(x) for x in cert.xseq],
            "p_blocks": _structure_json(cert.p_structure),
            "q_blocks": _structure_json(cert.q_structure),
        }
    doc["generation"] = bundle.generation
    return doc


def write_native(bundle: NativeBundle, path) -> None:
    Path(path).write_text(json.dumps(bundle_to_json(bundle), indent=1) + "\n", encoding="ascii")


def _memo_rational():
    """`rational` for one bundle, parsing each distinct string once.

    Only `str` values are kept: JSON `true` and `1` hash alike, so a bool
    must never find a cached entry.
    """
    parsed: dict[str, Fraction] = {}

    def parse(value) -> Fraction:
        if not isinstance(value, str):
            return rational(value)
        q = parsed.get(value)
        if q is None:
            q = parsed[value] = rational(value)
        return q

    return parse


def _parse_instance(doc: dict, where: str, parse) -> SdpInstance:
    try:
        n = doc["n"]
        if type(n) is not int:
            raise ValueError(f"n must be an integer, got {n!r}")
        b = tuple(parse(v) for v in doc["b"])
        matrices = tuple(_parse_sym(rows, parse) for rows in doc["matrices"])
        return SdpInstance(n, matrices, b)
    except (KeyError, TypeError, ValueError) as exc:
        raise NativeFormatError(f"malformed instance in {where}: {exc}") from exc


def _parse_sym(rows, parse) -> SymMatrix:
    """A `SymMatrix` from JSON rows, each upper entry parsed once. A lower entry
    is parsed only when it differs from its mirror in type or value, so `true`
    beside `1` is still rejected while `"2/4"` and `"1/2"` still read alike."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    upper = tuple(parse(v) for i, row in enumerate(rows) for v in row[i:])
    for i in range(n):
        for j in range(i + 1, n):
            high, low = rows[i][j], rows[j][i]
            if (type(low) is not type(high) or low != high) and parse(low) != parse(high):
                raise ValueError(f"not symmetric at ({i + 1},{j + 1})")
    return SymMatrix(n, upper)


def read_native(path) -> NativeBundle:
    text = Path(path).read_text(encoding="ascii")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NativeFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise NativeFormatError(f"unsupported schema {doc.get('schema') if isinstance(doc, dict) else None!r}, expected {SCHEMA!r}")
    parse = _memo_rational()
    instance = _parse_instance(doc.get("instance", {}), "instance", parse)
    cert_doc = doc.get("certificate")
    certificate = None
    if cert_doc is not None:
        try:
            k, l = cert_doc["k"], cert_doc["l"]
            if type(k) is not int or type(l) is not int:
                raise NativeFormatError(f"k and l must be integers, got {k!r} and {l!r}")
            clean = _parse_instance(cert_doc["clean"], "certificate.clean", parse)
            certificate = WeakCertificate(
                raw=instance,
                row_ops=Matrix.from_rows(map(parse, row) for row in cert_doc["row_ops"]),
                transform=Matrix.from_rows(map(parse, row) for row in cert_doc["transform"]),
                clean=clean,
                k=k,
                xseq=tuple(_parse_sym(rows, parse) for rows in cert_doc["x_sequence"]),
                p_structure=Structure(clean.n, tuple(cert_doc["p_blocks"])),
                q_structure=Structure(clean.n, tuple(cert_doc["q_blocks"])),
            )
            if certificate.l != l:
                raise NativeFormatError("stored l disagrees with the x-sequence length")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, NativeFormatError):
                raise
            raise NativeFormatError(f"malformed certificate: {exc}") from exc
    generation = doc.get("generation")
    return NativeBundle(instance=instance, certificate=certificate, generation=generation,
                        label=doc.get("label"))


# --- block rendering -------------------------------------------------------

_CELL = 18
_MARGIN = 4
_COLORS = {"pivot": "#c23b22", "arbitrary": "#3566a5", "zero": "#ffffff"}


def render_blocks(
    matrices: Sequence[SymMatrix],
    structure: Structure,
    outdir,
    stem: str = "matrix",
) -> list[Path]:
    """One SVG per matrix: pivot-block cells red, earlier-row cells blue, zeros white.

    Cell classification is the same `cell_region` the echelon validator uses,
    so a rendering is a faithful picture of the validation regions.
    """
    matrices = tuple(matrices)
    if len(matrices) != len(structure.blocks):
        raise ValueError("structure block count does not match matrix count")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    n = structure.n
    side = 2 * _MARGIN + n * _CELL
    written = []
    for idx in range(1, len(matrices) + 1):
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
            f'viewBox="0 0 {side} {side}">'
        ]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                color = _COLORS[cell_region(structure, idx, i, j)]
                x = _MARGIN + (j - 1) * _CELL
                y = _MARGIN + (i - 1) * _CELL
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                    f'fill="{color}" stroke="#999999" stroke-width="1"/>'
                )
        parts.append("</svg>")
        target = out / f"{stem}_{idx:02d}.svg"
        target.write_text("\n".join(parts) + "\n", encoding="ascii")
        written.append(target)
    return written
