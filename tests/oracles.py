"""Independent exact oracles used only by the test suite.

These deliberately avoid the package's structure-aware code paths: they reason
from the raw constraint data over scalar entry unknowns, so agreement with the
structural checks is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def confirm_infeasible_psd_system(matrices, rhs) -> bool:
    """Sound (not complete) decision that {X psd : A_i . X = b_i} is empty.

    Propagates necessary PSD conditions over the entry unknowns x_rs:

    * an equation with no surviving terms and nonzero right side is a plain
      linear contradiction;
    * an equation whose surviving terms are diagonal entries with coefficients
      all of one sign forces those entries to zero when the right side is
      zero, and is a contradiction when the right side has the opposite sign
      (diagonal entries of a PSD matrix are nonnegative);
    * a vanished diagonal entry zeroes its whole row and column, by
      nonnegativity of the 2x2 principal minors.

    Returns True when a contradiction is derived, False when the propagation
    stalls without one.
    """
    if not matrices:
        return False
    n = matrices[0].n
    equations = []
    for mat, target in zip(matrices, rhs):
        coeffs = {}
        for r in range(1, n + 1):
            for s in range(r, n + 1):
                v = mat.at(r, s)
                if v != 0:
                    coeffs[(r, s)] = v if r == s else 2 * v
        equations.append((coeffs, Fraction(target)))

    known_zero: set[tuple[int, int]] = set()

    def kill_row(r: int) -> None:
        for s in range(1, n + 1):
            known_zero.add((min(r, s), max(r, s)))

    changed = True
    while changed:
        changed = False
        for coeffs, target in equations:
            live = {cell: c for cell, c in coeffs.items() if cell not in known_zero}
            if not live:
                if target != 0:
                    return True
                continue
            if all(r == s for (r, s) in live):
                signs = {c > 0 for c in live.values()}
                if len(signs) == 1:
                    positive = signs.pop()
                    if target == 0:
                        before = len(known_zero)
                        for (r, _) in live:
                            kill_row(r)
                        changed = changed or len(known_zero) != before
                    elif (target < 0) == positive:
                        return True
    return False


def search_strong_infeasibility_multiplier(inst, points):
    """Exhaustive search for an alternative-system solution built from monomial
    evaluations at rational points, scaled so b^T y = -1; None when no point works.

    The candidate at a point v assigns each constraint the value of its
    monomial at v (the instance must carry that metadata via `monomials`)."""
    from weaksdp import check_strong_infeasibility_cert

    instance, monomials = inst
    for point in points:
        x, y = point
        values = [Fraction(x) ** dx * Fraction(y) ** dy for (dx, dy) in monomials]
        total = sum(v * b for v, b in zip(values, instance.b))
        if total >= 0:
            continue
        scale = -1 / total
        candidate = [scale * v for v in values]
        if check_strong_infeasibility_cert(instance, candidate):
            return tuple(candidate)
    return None


def rational_grid(span=2, denominator=1):
    """Small deterministic grid of rational points for exact searches."""
    values = [Fraction(p, denominator) for p in range(-span * denominator, span * denominator + 1)]
    return list(product(values, values))


def witness_by_full_doubling(inst, xseq, structure, eps):
    """Reference asymptote witness: each gamma_i doubles from 1 until the whole
    accumulated principal block over P_i, ..., P_{l+1} and the uncovered
    indices is positive definite, with one full PSD test per doubling.

    This is the direct form of the argument, with no Schur complement; the
    package's `asymptote_witness` must return exactly the same witness."""
    from weaksdp import AsymptoteWitness, SymMatrix, is_positive_definite

    eps = Fraction(eps)
    rest = sorted(structure.residual())
    delta = Fraction(0)
    x_delta = SymMatrix.zeros(inst.n)
    if rest:
        delta = Fraction(1)
        while len(rest) * delta * delta > eps * eps:
            delta /= 2
        x_delta = SymMatrix.diag([delta if r in rest else 0 for r in range(1, inst.n + 1)])
    current = xseq[-1].add(x_delta)
    lead = set(rest) | set(structure.blocks[-1])
    gammas = []
    for i in range(len(xseq) - 1, 0, -1):
        lead |= structure.blocks[i - 1]
        gamma = Fraction(1)
        while not is_positive_definite(current.add(xseq[i - 1].scale(gamma)).principal(lead)):
            gamma *= 2
        current = current.add(xseq[i - 1].scale(gamma))
        gammas.append(gamma)
    return AsymptoteWitness(
        x_out=current, x_delta=x_delta, gammas=tuple(reversed(gammas)), delta=delta
    )


def least_definite_shift_by_probes(c, d):
    """Reference least power of two 2^e, e >= 0, with C + 2^e D positive
    definite: the probe path `asymptote_witness` ran before its integer one,
    each probe a `Fraction` `scale`/`add` and one full `is_positive_definite`
    verdict, with the same gallop-then-bisect search over e."""
    from weaksdp import is_positive_definite

    def passes(e):
        return is_positive_definite(c.add(d.scale(2**e)))

    failed, e = -1, 0
    while not passes(e):
        failed, e = e, max(1, 2 * e)
    while e - failed > 1:
        mid = (failed + e) // 2
        if passes(mid):
            e = mid
        else:
            failed = mid
    return Fraction(2**e)


def matmul_by_fractions(a, b):
    """Reference product of two `Matrix` values, one `Fraction` multiply-add at
    a time: the kernel loop the package ran before its integer-numerator path."""
    from weaksdp import Matrix

    n, k, m = a.rows, a.cols, b.cols
    flat = [Fraction(0)] * (n * m)
    for i in range(n):
        for t in range(k):
            av = a.at(i + 1, t + 1)
            if av:
                for j in range(m):
                    flat[i * m + j] += av * b.at(t + 1, j + 1)
    return Matrix(n, m, tuple(flat))


def inner_by_fractions(a, b):
    """Reference trace inner product of two `SymMatrix` values over the upper
    triangle, off-diagonal terms doubled, in `Fraction` arithmetic."""
    total = Fraction(0)
    for i in range(1, a.n + 1):
        total += a.at(i, i) * b.at(i, i)
        for j in range(i + 1, a.n + 1):
            total += 2 * a.at(i, j) * b.at(i, j)
    return total


def congruence_by_fractions(a, t):
    """Reference T^T A T as a `SymMatrix`, built from `matmul_by_fractions`."""
    from weaksdp import Matrix, SymMatrix

    product = matmul_by_fractions(t.transpose(), matmul_by_fractions(Matrix.from_rows(a.to_rows()), t))
    return SymMatrix.from_rows(product.to_rows())


def determinant_by_cofactors(rows):
    """Reference determinant by Laplace expansion along the first row; no
    elimination, no pivoting, so row swaps and singularity need no special case."""
    if not rows:
        return Fraction(1)
    return sum(
        ((-1) ** j * Fraction(rows[0][j])
         * determinant_by_cofactors([row[:j] + row[j + 1:] for row in rows[1:]])
         for j in range(len(rows))),
        Fraction(0),
    )


def reformulated_rows_by_fractions(mats, g, t):
    """Reference rows T^T (sum_j g_ij M_j) T, one per row of G: the combination
    by `SymMatrix` `scale`/`add` in `Fraction` arithmetic, the loop the package
    ran before its integer kernel, then `congruence_by_fractions`."""
    from weaksdp import SymMatrix

    rows = []
    for i in range(1, g.rows + 1):
        combo = SymMatrix.zeros(t.rows)
        for j, mat in enumerate(mats, start=1):
            gij = g.at(i, j)
            if gij != 0:
                combo = combo.add(mat.scale(gij))
        rows.append(congruence_by_fractions(combo, t))
    return rows


def congruence_mismatch_by_fractions(mats, g, t, targets):
    """Reference `congruence_mismatch`: the first (i, r, s), r <= s, at which
    row i of `reformulated_rows_by_fractions` differs from targets[i - 1] in
    `Fraction` arithmetic, or None."""
    n = t.rows
    for i, (row, target) in enumerate(zip(reformulated_rows_by_fractions(mats, g, t), targets), start=1):
        for r in range(1, n + 1):
            for s in range(r, n + 1):
                if row.at(r, s) != target.at(r, s):
                    return i, r, s
    return None


def sym_of_rows_by_loop(rows, parse):
    """Reference `SymMatrix._of_rows`: the loop the package ran before its
    one-pass integer route. Each upper entry is parsed once, a lower entry
    only when it differs from its mirror in type or value."""
    from weaksdp import SymMatrix

    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    upper = [parse(v) for i, row in enumerate(rows) for v in row[i:]]
    for i in range(n):
        for j in range(i + 1, n):
            high, low = rows[i][j], rows[j][i]
            if (type(low) is not type(high) or low != high) and parse(low) != parse(high):
                raise ValueError(f"not symmetric at ({i + 1},{j + 1})")
    return SymMatrix._of_ratios(n, upper)


def matrix_of_rows_by_loop(rows, parse):
    """Reference `Matrix._of_rows`: the ragged-rows check, then each entry
    read to `(p, q)` by `parse` on its own, the matrix built by the public
    constructor rather than over the lcm of the q."""
    from weaksdp import Matrix

    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged rows")
    return Matrix(len(rows), cols, [Fraction(*parse(v)) for row in rows for v in row])


def psd_certify_by_steps(a):
    """Reference pivoted LDL^T decision of a `SymMatrix`: the elimination loop
    the package ran before its shared `_eliminate` step, over the public API.

    Each step keeps a dict copy of its pivot row, a witness is mapped back
    through those copies, and its value is a direct quadratic-form loop."""
    from weaksdp import Matrix, PsdVerdict

    zero, one = Fraction(0), Fraction(1)
    n = a.n
    w = [[a.at(i + 1, j + 1) for j in range(n)] for i in range(n)]
    remaining = list(range(n))
    steps = []

    def back_substitute(vec):
        for pivot, d, row in reversed(steps):
            sigma = sum((row[s] * v for s, v in vec.items() if s in row), zero)
            vec[pivot] = -sigma / d
        return tuple(vec.get(i, zero) for i in range(n))

    def negative_verdict(witness):
        value = sum((a.at(i + 1, j + 1) * witness[i] * witness[j]
                     for i in range(n) for j in range(n)), zero)
        return PsdVerdict(False, witness=witness, witness_value=value)

    while remaining:
        pivot = max(remaining, key=lambda r: (w[r][r], -r))
        if w[pivot][pivot] > 0:
            d = w[pivot][pivot]
            remaining.remove(pivot)
            row = {s: w[pivot][s] for s in remaining}
            steps.append((pivot, d, row))
            for ri, r in enumerate(remaining):
                wr = w[pivot][r]
                if wr == 0:
                    continue
                for s in remaining[ri:]:
                    ws = w[pivot][s]
                    if ws != 0:
                        upd = w[r][s] - wr * ws / d
                        w[r][s] = upd
                        w[s][r] = upd
            continue
        negative = next((r for r in remaining if w[r][r] < 0), None)
        if negative is not None:
            return negative_verdict(back_substitute({negative: one}))
        offdiag = next(((r, s) for ri, r in enumerate(remaining) for s in remaining[ri + 1:]
                        if w[r][s] != 0), None)
        if offdiag is not None:
            r, s = offdiag
            sign = one if w[r][s] > 0 else -one
            return negative_verdict(back_substitute({r: one, s: -sign}))
        steps.extend((r, zero, {}) for r in remaining)
        remaining = []

    lower_rows = []
    for t, (pivot_t, _, _) in enumerate(steps):
        row = [zero] * n
        row[t] = one
        for u, (_, d_u, row_u) in enumerate(steps[:t]):
            if d_u != 0:
                row[u] = row_u.get(pivot_t, zero) / d_u
        lower_rows.append(row)
    return PsdVerdict(
        True,
        permutation=tuple(pivot + 1 for pivot, _, _ in steps),
        diag=tuple(d for _, d, _ in steps),
        lower=Matrix(n, n, tuple(v for row in lower_rows for v in row)),
    )


def gauss_jordan_by_fractions(rows, ncols):
    """Reference Gauss-Jordan reduction over `Fraction`s, the loop the package
    ran before its fraction-free kernel.

    Reduces the list of `Fraction` rows in place to reduced row echelon form
    on the first `ncols` columns, carrying any further columns along, and
    returns the pivot columns and the signed pivot product, the sign flipped
    once per row swap: the determinant of a square matrix at full rank."""
    pivot_cols = []
    product = Fraction(1)
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            product = -product
        pivot = rows[r]
        pv = pivot[c]
        product *= pv
        pivot[c:] = [v / pv for v in pivot[c:]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f != 0:
                row[c:] = [v - f * w for v, w in zip(row[c:], pivot[c:])]
        pivot_cols.append(c)
        r += 1
    return pivot_cols, product


def echelon_violation_by_fractions(mats, structure):
    """Reference echelon rule, read off `to_rows()` entry by entry: on the
    rows and columns no earlier block covers, member i is zero except a
    positive diagonal on its own block P_i. Returns the first breach as
    (member, (r, s), rule), r <= s in row-major order, or None. Independent
    of `cell_region` and of the package's echelon walk."""
    earlier = set()
    for number, (mat, block) in enumerate(zip(mats, structure.blocks), start=1):
        rows = mat.to_rows()
        for r in range(1, len(rows) + 1):
            for s in range(r, len(rows) + 1):
                if r in earlier or s in earlier:
                    continue
                v = rows[r - 1][s - 1]
                if r == s and r in block:
                    if v <= 0:
                        return number, (r, s), "block diagonal entry must be positive"
                elif v != 0 and r in block and s in block:
                    return number, (r, s), "block off-diagonal entry must be zero"
                elif v != 0:
                    return number, (r, s), "entry outside block and earlier rows must be zero"
        earlier |= block
    return None


def echelon_by_fractions(mats, structure) -> bool:
    """The reference echelon verdict: shapes match and no breach is found."""
    if len(mats) != len(structure.blocks) or any(mat.n != structure.n for mat in mats):
        return False
    return echelon_violation_by_fractions(mats, structure) is None


def weak_certificate_by_fractions(cert) -> bool:
    """Reference verdict on a `WeakCertificate`, every part recomputed in
    `Fraction` arithmetic over the public API: k >= 1 and l >= 1; clean b =
    G raw b; the (k+1)-prefix in echelon form with right-hand side
    (0, ..., 0, negative); the X sequence in echelon form with A . X_i = 0
    for i <= l and A . X_{l+1} = b by `inner_by_fractions`; the clean rows
    from `reformulated_rows_by_fractions`; det G and det T non-zero by
    cofactors. The verdict is their conjunction; the costly parts come last."""
    raw, clean, g, t, k, xseq = cert.raw, cert.clean, cert.row_ops, cert.transform, cert.k, cert.xseq
    if k < 1 or len(xseq) < 2 or k + 1 > clean.m:
        return False
    g_b = [sum((g.at(i, j) * v for j, v in enumerate(raw.b, start=1)), Fraction(0))
           for i in range(1, g.rows + 1)]
    if g_b != list(clean.b):
        return False
    if not echelon_by_fractions(clean.A[: k + 1], cert.p_structure):
        return False
    if any(v != 0 for v in clean.b[:k]) or not clean.b[k] < 0:
        return False
    if not echelon_by_fractions(xseq, cert.q_structure):
        return False
    if any(inner_by_fractions(a, x) != (b if i == len(xseq) else 0)
           for a, b in zip(clean.A, clean.b) for i, x in enumerate(xseq, start=1)):
        return False
    if reformulated_rows_by_fractions(raw.A, g, t) != list(clean.A):
        return False
    return all(determinant_by_cofactors(mat.to_rows()) != 0 for mat in (g, t))


def inner_mismatch_by_fractions(mats, xs, targets):
    """Reference `inner_mismatch`: the first (j, i), X_j outer and M_i inner,
    at which `inner_by_fractions(M_i, X_j)` differs from targets[j][i], or None."""
    for j, (x, column) in enumerate(zip(xs, targets), start=1):
        for i, (mat, want) in enumerate(zip(mats, column), start=1):
            if inner_by_fractions(mat, x) != want:
                return j, i
    return None


def closeness_detail_by_fractions(inst, xseq, structure):
    """Reference detail of the closeness check: None when the X sequence is
    not in echelon form by `echelon_by_fractions`, "" when every A_r . X_j
    meets its target (0 for j <= l, b_r for the last X), else the text naming
    the first that does not, X_j outer and A_r inner."""
    if not echelon_by_fractions(xseq, structure):
        return None
    targets = [[Fraction(0)] * inst.m] * (len(xseq) - 1) + [list(inst.b)]
    mismatch = inner_mismatch_by_fractions(inst.A, xseq, targets)
    if mismatch is None:
        return ""
    j, r = mismatch
    got = inner_by_fractions(inst.A[r - 1], xseq[j - 1])
    return f"A_{r} . X_{j} = {got}, expected {targets[j - 1][r - 1]}"


def read_sdpa_by_lines(path):
    """Reference SDPA reader: every line of the file read on its own, split
    and parsed field by field, with none of the tables `read_sdpa` reads its
    body through. It raises the package's `SdpaFormatError` with the same
    message and line number, at the first faulty line. The header is checked
    in order (constraint count, non-negative; block count, 1; block size,
    positive and within the limits; then the right-hand side). A body line is
    checked field by field (five fields; matrix, block, row and column
    numbers; the value) and then for range (matrix number in 0..m, block
    number 1, cell inside the order), also on a line of matrix number 0,
    which is dropped after its checks."""
    import re
    from pathlib import Path

    from weaksdp import SdpInstance, SymMatrix
    from weaksdp.exact import CELL_LIMIT, DIGIT_LIMIT, ORDER_LIMIT
    from weaksdp.formats import SdpaFormatError

    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise SdpaFormatError("non-ASCII byte", data.count(b"\n", 0, exc.start) + 1) from None
    numbered = [(no, line.strip()) for no, line in enumerate(text.splitlines(), start=1)
                if line.strip() and line.strip()[0] not in '*"']
    if len(numbered) < 3:
        raise SdpaFormatError("file shorter than the header lines")

    def integer(token, no, what):
        if re.fullmatch(r"-?[0-9]+", token) is None or len(token.lstrip("-")) > DIGIT_LIMIT:
            raise SdpaFormatError(f"expected integer {what}, got {token!r}", no)
        return int(token)

    def value(token, no):
        match = re.fullmatch(r"(-?)([0-9]+)(?:\.([0-9]+))?", token)
        if match is None:
            raise SdpaFormatError(f"malformed value {token!r}, expected a plain decimal", no)
        sign, whole, decimals = match.groups("")
        if len(whole) > DIGIT_LIMIT or len(decimals) > DIGIT_LIMIT:
            raise SdpaFormatError(f"value of {len(token)} characters is too long", no)
        v = int(whole) + (Fraction(int(decimals), 10 ** len(decimals)) if decimals else 0)
        return -v if sign else v

    (no_m, m_text), (no_blk, blk_text), (no_size, size_text) = numbered[:3]
    m = integer(m_text, no_m, "constraint count")
    if m < 0:
        raise SdpaFormatError(f"constraint count must be non-negative, got {m}", no_m)
    blocks = integer(blk_text.split()[0], no_blk, "block count")
    if blocks != 1:
        raise SdpaFormatError(f"only single-block files are supported, got {blocks}", no_blk)
    n = integer(size_text.split()[0], no_size, "block size")
    if n < 1:
        raise SdpaFormatError(f"block size must be a positive PSD order, got {n}", no_size)
    if n > ORDER_LIMIT:
        raise SdpaFormatError(f"order {n} is over the limit of {ORDER_LIMIT}", no_size)
    if m * (n * (n + 1) // 2) > CELL_LIMIT:
        raise SdpaFormatError(
            f"{m} matrices of order {n} are over the limit of {CELL_LIMIT} cells", no_size)
    body, b = numbered[3:], ()
    if m:
        if len(numbered) < 4:
            raise SdpaFormatError("missing right-hand side line")
        no_b, b_text = numbered[3]
        fields = b_text.split()
        if len(fields) != m:
            raise SdpaFormatError(f"expected {m} right-hand side values, got {len(fields)}", no_b)
        body, b = numbered[4:], tuple(value(f, no_b) for f in fields)
    cells = [{} for _ in range(m)]
    for no, line in body:
        fields = line.split()
        if len(fields) != 5:
            raise SdpaFormatError(f"expected 5 fields, got {len(fields)}", no)
        whats = ("matrix number", "block number", "row", "column")
        matno, blkno, i, j = [integer(f, no, what) for f, what in zip(fields, whats)]
        v = value(fields[4], no)
        if not 0 <= matno <= m:
            raise SdpaFormatError(f"matrix number {matno} outside 1..{m}", no)
        if blkno != 1:
            raise SdpaFormatError(f"block number must be 1, got {blkno}", no)
        if not (1 <= i <= n and 1 <= j <= n):
            raise SdpaFormatError(f"entry ({i},{j}) outside order {n}", no)
        if matno:
            cells[matno - 1][min(i, j), max(i, j)] = v
    rows = range(1, n + 1)
    return SdpInstance(n, tuple(
        SymMatrix.from_rows([[c.get((min(r, s), max(r, s)), 0) for s in rows] for r in rows])
        for c in cells), b)


def _spelled_entries(mat, by_column):
    """(i, j, text, rounded) of each non-zero upper entry (i <= j) of `mat`,
    read one by one through `at` and spelled by `formats._format_value`: row
    by row, or column by column."""
    from weaksdp.formats import _format_value

    n = mat.n
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    if by_column:
        cells.sort(key=lambda cell: (cell[1], cell[0]))
    return [(i, j, *_format_value(*mat.at(i, j).as_integer_ratio()))
            for i, j in cells if mat.at(i, j) != 0]


def sdpa_text_by_entries(inst, label=None):
    """Reference `write_sdpa` text, each entry listed and spelled on its own.
    A label is written as given: the reference covers labels that are
    printable ASCII without a backslash."""
    from weaksdp.formats import _SIGNIFICANT, _format_value

    body, lossy = [], False
    for idx, mat in enumerate(inst.A, start=1):
        for i, j, text, rounded in _spelled_entries(mat, by_column=False):
            lossy = lossy or rounded
            body.append(f"{idx} 1 {i} {j} {text}")
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
        lines.append(f"* label: {label}")
    if lossy:
        lines.append(f"* lossy: some values rounded to {_SIGNIFICANT} significant digits")
    lines += [str(inst.m), "1", str(inst.n), " ".join(b_parts), *body]
    return "\n".join(lines) + "\n"


def cbf_text_by_entries(inst, label=None):
    """Reference `write_cbf` text, each entry listed and spelled on its own,
    under the label rule of `sdpa_text_by_entries`."""
    from weaksdp.formats import _SIGNIFICANT, _format_value

    lines = ["# feasibility system over one psd variable: A_i . X = b_i"]
    if label:
        lines.append(f"# label: {label}")
    lossy, fcoord, bcoord = False, [], []
    for ci, mat in enumerate(inst.A):
        # the lower triangle row by row is the upper one column by column
        for i, j, text, rounded in _spelled_entries(mat, by_column=True):
            lossy = lossy or rounded
            fcoord.append(f"{ci} 0 {j - 1} {i - 1} {text}")
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
    return "\n".join(lines) + "\n"
