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
    from weaksdp import SymMatrix

    product = matmul_by_fractions(t.transpose(), matmul_by_fractions(a.to_matrix(), t))
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
