"""Exact rational scalars and dense matrices.

All certification arithmetic in this package is exact: scalars are
`fractions.Fraction` values (re-exported as `Rational`), matrices are dense
tuples of them, and no floating point enters any verification path. The
kernels compute on Python ints: each operand is written once as integer
numerators over one common denominator, and each result entry is turned back
into a `Fraction` once, so storage and API stay `Fraction`. There are three
product kernels, and every product in the package goes through one of them.
The matrix product `@` also serves `Matrix.mul_vec` (a column matrix) and
`inner_general` (a 1 x k by k x 1 product). `inner_table(mats, xs)` gives
M . X for every M and every X, converting each X once (its off-diagonal
entries doubled) and each M once; `inners` is its one-X case, and `inner`
and `SymBuilder.inner` are the one-matrix case of that.
`congruences(mats, g, t)` yields the rows T^T (sum_j g_ij M_j) T lazily, with
the combination and the congruence both on ints; it is the one routine for
"row-combine, then congruence" (the reformulation, the generator's
projection and the alternative-system check), and `congruence` is its
one-row case. Given T = I, as the last two callers and the reformulation of
a clean bundle do, it yields the combination without the congruence.
Otherwise the products run on packed ints (Kronecker substitution): each row
of T is one int with a fixed-width slot per column, wide enough for every
result entry, so CPython's big-int multiply runs the inner loops and n^2
slots are read back per row. `congruence_mismatch(mats, g, t, targets)`
compares the same rows with targets on integer numerators and names the
first differing entry; the reformulation check runs on it and builds no
Fraction.
Matrix entries are addressed with 1-based indices via ``at(i, j)``, matching
the 1-based index sets used for block structures, so a single indexing
convention runs through structures, matrices and emitted file formats.

Every value is immutable after construction and all operations are pure, so
the types here are safe to share across threads. ``SymBuilder`` is the one
mutable scratch type, used while assembling a symmetric matrix; ``freeze()``
produces the immutable result.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational(value) -> Fraction:
    """Coerce ints, Fractions, and strings ``p`` or ``p/q`` like ``-3/7`` to a Rational.

    Strings follow one strict ASCII grammar, ``-?[0-9]+(/[0-9]+)?`` with a
    non-zero denominator; decimals, exponents, spaces and underscores are
    rejected with ValueError. Floats and bools are rejected with TypeError:
    binary rounding must never leak into the exact pipeline silently.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        if match is None or match[2] and int(match[2]) == 0:
            raise ValueError(f"not an exact rational p or p/q with q != 0: {value!r}")
        return Fraction(int(match[1]), int(match[2] or 1))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _over_common_denominator(entries: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator, the lcm of the entries'.

    ``entries[i] == nums[i] / den`` for the returned ``(nums, den)``, so the
    O(n^3) kernels run on plain ints and divide once at the end, exactly.
    """
    ratios = [q.as_integer_ratio() for q in entries]
    den = lcm(*(d for _, d in ratios))
    return [p * (den // d) for p, d in ratios], den


def _int_product(a: list[int], b: list[int], n: int, k: int, m: int) -> list[int]:
    """Row-major product of row-major integer matrices a (n x k) and b (k x m)."""
    cols = [b[j::m] for j in range(m)]
    return [sum(map(mul, a[i * k : (i + 1) * k], col)) for i in range(n) for col in cols]


class Matrix:
    """Dense exact matrix; entries are Fractions, read with 1-based ``at(i, j)``."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: tuple[Fraction, ...]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self.rows = rows
        self.cols = cols
        self._e = entries

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "Matrix":
        grid = [[rational(v) for v in row] for row in rows]
        nrows = len(grid)
        ncols = len(grid[0]) if grid else 0
        if any(len(row) != ncols for row in grid):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(v for row in grid for v in row))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        entries = [_ZERO] * (n * n)
        entries[:: n + 1] = [_ONE] * n
        return cls(n, n, tuple(entries))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols} (indices are 1-based)")
        return self._e[(i - 1) * self.cols + (j - 1)]

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 1 <= i <= self.rows:
            raise IndexError("row index out of range")
        return self._e[(i - 1) * self.cols : i * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(1, self.rows + 1)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self._e[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)),
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        n, k, m = self.rows, self.cols, other.cols
        a, da = _over_common_denominator(self._e)
        b, db = _over_common_denominator(other._e)
        den = da * db
        return Matrix(n, m, tuple(Fraction(v, den) for v in _int_product(a, b, n, k, m)))

    def mul_vec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return (self @ Matrix(self.cols, 1, tuple(v)))._e

    def scale(self, c) -> "Matrix":
        q = rational(c)
        return Matrix(self.rows, self.cols, tuple(q * v for v in self._e))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self._e, other._e)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e))

    def __repr__(self) -> str:
        return f"Matrix({self.to_rows()!r})"


def _upper_offset(n: int, i: int, j: int) -> int:
    # i <= j, both 1-based; packed row-major upper triangle including diagonal
    return (i - 1) * (2 * n - i + 2) // 2 + (j - i)


def _square(upper: Sequence, n: int) -> list[list]:
    """The n rows of a symmetric matrix from its packed row-major upper triangle."""
    rows: list[list] = []
    start = 0
    for i in range(n):
        # the part left of the diagonal mirrors column i of the rows above
        rows.append([row[i] for row in rows] + list(upper[start : start + n - i]))
        start += n - i
    return rows


class SymMatrix:
    """Dense exact symmetric matrix of order n.

    Only the upper triangle is stored, so symmetry holds by construction.
    Entries are read with 1-based ``at(i, j)``.
    """

    __slots__ = ("n", "_u")

    def __init__(self, n: int, upper: tuple[Fraction, ...]):
        if n < 0 or len(upper) != n * (n + 1) // 2:
            raise ValueError("upper-triangle length does not match order")
        self.n = n
        self._u = upper

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "SymMatrix":
        grid = [[rational(v) for v in row] for row in rows]
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if grid[i][j] != grid[j][i]:
                    raise ValueError(f"not symmetric at ({i + 1},{j + 1})")
        return cls(n, tuple(grid[i][j] for i in range(n) for j in range(i, n)))

    @classmethod
    def zeros(cls, n: int) -> "SymMatrix":
        return cls(n, (_ZERO,) * (n * (n + 1) // 2))

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.diag([_ONE] * n)

    @classmethod
    def diag(cls, values: Sequence) -> "SymMatrix":
        vals = [rational(v) for v in values]
        n = len(vals)
        upper = [_ZERO] * (n * (n + 1) // 2)
        for i in range(1, n + 1):
            upper[_upper_offset(n, i, i)] = vals[i - 1]
        return cls(n, tuple(upper))

    @classmethod
    def unit(cls, n: int, i: int, j: int, value=1) -> "SymMatrix":
        """Symmetric unit matrix: `value` at (i, j) and (j, i), zero elsewhere."""
        b = SymBuilder(n)
        b.set(i, j, rational(value))
        return b.freeze()

    def at(self, i: int, j: int) -> Fraction:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"entry ({i},{j}) outside order {self.n} (indices are 1-based)")
        if i > j:
            i, j = j, i
        return self._u[_upper_offset(self.n, i, j)]

    def to_rows(self) -> list[list[Fraction]]:
        return _square(self._u, self.n)

    def to_matrix(self) -> Matrix:
        return Matrix(self.n, self.n, tuple(v for row in self.to_rows() for v in row))

    def principal(self, indices: Iterable[int]) -> "SymMatrix":
        """Principal submatrix on the given (1-based) indices, in sorted order."""
        idx = sorted(set(indices))
        if idx and not (1 <= idx[0] and idx[-1] <= self.n):
            raise IndexError("principal indices out of range")
        return SymMatrix(
            len(idx),
            tuple(self.at(idx[r], idx[c]) for r in range(len(idx)) for c in range(r, len(idx))),
        )

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> Matrix:
        """General rectangular block, rows and columns given as 1-based indices."""
        ri = list(row_idx)
        ci = list(col_idx)
        return Matrix(len(ri), len(ci), tuple(self.at(r, c) for r in ri for c in ci))

    def add(self, other: "SymMatrix") -> "SymMatrix":
        if self.n != other.n:
            raise ValueError("order mismatch")
        return SymMatrix(self.n, tuple(a + b for a, b in zip(self._u, other._u)))

    def sub(self, other: "SymMatrix") -> "SymMatrix":
        return self.add(other.scale(-1))

    def scale(self, c) -> "SymMatrix":
        q = rational(c)
        return SymMatrix(self.n, tuple(q * v for v in self._u))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self._u)

    def primitive(self) -> "SymMatrix":
        """The positive multiple of a non-zero matrix whose entries are coprime integers."""
        nums, _ = _over_common_denominator(self._u)
        g = gcd(*nums)
        return SymMatrix(self.n, tuple(Fraction(v // g) for v in nums))

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self.n == other.n and self._u == other._u

    def __hash__(self) -> int:
        return hash((self.n, self._u))

    def __repr__(self) -> str:
        return f"SymMatrix({self.to_rows()!r})"


class SymBuilder:
    """Mutable scratch for assembling a SymMatrix entry by entry (1-based)."""

    __slots__ = ("n", "_d")

    def __init__(self, n: int):
        self.n = n
        self._d: dict[tuple[int, int], Fraction] = {}

    @staticmethod
    def _key(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i <= j else (j, i)

    def set(self, i: int, j: int, value) -> None:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError("builder index out of range")
        q = rational(value)
        key = self._key(i, j)
        if q == 0:
            self._d.pop(key, None)
        else:
            self._d[key] = q

    def get(self, i: int, j: int) -> Fraction:
        return self._d.get(self._key(i, j), _ZERO)

    def add(self, i: int, j: int, value) -> None:
        self.set(i, j, self.get(i, j) + rational(value))

    def inner(self, other: "SymBuilder") -> Fraction:
        """Entrywise trace inner product with another builder of the same order."""
        return inner(self.freeze(), other.freeze())

    def freeze(self) -> SymMatrix:
        upper = [_ZERO] * (self.n * (self.n + 1) // 2)
        for (i, j), v in self._d.items():
            upper[_upper_offset(self.n, i, j)] = v
        return SymMatrix(self.n, tuple(upper))


def inner_table(
    mats: Iterable[SymMatrix], xs: Iterable[SymMatrix]
) -> tuple[tuple[Fraction, ...], ...]:
    """Trace inner products M_i . X_j, one row per M and one column per X,
    computed exactly.

    Each X is converted to integer numerators once, its off-diagonal entries
    doubled because the upper triangle holds each of them once; each M is
    converted once, so a table of m rows and k columns costs m + k
    conversions, not m k.
    """
    mats, xs = tuple(mats), tuple(xs)
    orders = {a.n for a in mats + xs}
    if len(orders) > 1:
        raise ValueError("order mismatch")
    n = orders.pop() if orders else 0
    diagonal = {_upper_offset(n, i, i) for i in range(1, n + 1)}
    columns = []
    for x in xs:
        xi, dx = _over_common_denominator(x._u)
        columns.append(([v if p in diagonal else 2 * v for p, v in enumerate(xi)], dx))
    table = []
    for mat in mats:
        mi, dm = _over_common_denominator(mat._u)
        table.append(tuple(Fraction(sum(map(mul, mi, xi)), dm * dx) for xi, dx in columns))
    return tuple(table)


def inners(mats: Iterable[SymMatrix], x: SymMatrix) -> tuple[Fraction, ...]:
    """Trace inner products M . X, one per M in `mats`: the one-column case
    of `inner_table`."""
    return tuple(row[0] for row in inner_table(mats, (x,)))


def inner(a: SymMatrix, b: SymMatrix) -> Fraction:
    """Trace inner product of symmetric matrices: sum of entrywise products.

    Equals the trace of the ordinary matrix product, computed exactly.
    """
    return inners((a,), b)[0]


def inner_general(m: Matrix, y: Matrix) -> Fraction:
    """Inner product of general matrices: trace(m^T y) = sum of entrywise products."""
    if (m.rows, m.cols) != (y.rows, y.cols):
        raise ValueError("shape mismatch")
    k = m.rows * m.cols
    return (Matrix(1, k, m._e) @ Matrix(k, 1, y._e))._e[0]


def _congruence_rows(
    mats: Sequence[SymMatrix], g: Matrix, t: Matrix
) -> Iterator[tuple[list[int], int]]:
    """Upper-triangle numerators of T^T (sum_j g_ij M_j) T over one common
    denominator, ``(numerators, den)`` for each row of G in turn.

    When T is not the identity, the products run on packed ints (Kronecker
    substitution): row r of T becomes one int with a w-bit slot per column,
    so row r of M_j T is one dot product of row r of M_j with the packed
    rows of T, and row a of the result one dot product of column a of T
    with the packed rows of C T. The slot width bounds every result entry,
    n^2 k max|g| max|M| max|T|^2, plus a sign bit, in whole bytes; an offset
    of half a slot per slot makes every slot non-negative, so each entry is
    read back exactly as one signed field of the bytes.
    """
    mats = tuple(mats)
    n = t.rows
    if not t.is_square() or any(mat.n != n for mat in mats):
        raise ValueError("transform must be square of the same order")
    if g.cols != len(mats):
        raise ValueError("coefficient count does not match matrix count")
    k = len(mats)
    half = n * (n + 1) // 2
    stacked, dm = _over_common_denominator([v for mat in mats for v in mat._u])
    gi, dg = _over_common_denominator(g._e)
    if t == Matrix.identity(n):
        across = [stacked[p::half] for p in range(half)]  # upper entry p of M_1..M_k
        for row in range(g.rows):
            coeffs = gi[row * k : (row + 1) * k]
            yield [sum(map(mul, coeffs, entry)) for entry in across], dm * dg
        return
    ti, dt = _over_common_denominator(t._e)
    g_max, m_max, t_max = (max(map(abs, nums), default=0) for nums in (gi, stacked, ti))
    bound = n * n * k * g_max * m_max * t_max**2
    size = (bound.bit_length() + 8) // 8  # bytes per slot, the sign bit included
    width = 8 * size
    offset = int.from_bytes(bytes([0] * (size - 1) + [0x80]) * n, "little")
    packed_t = [sum(v << (width * c) for c, v in enumerate(ti[r * n : (r + 1) * n])) for r in range(n)]
    # the packed rows of each M_j T, regrouped so that mt[r] holds row r of every M_j T
    per_matrix = [
        [sum(map(mul, line, packed_t)) for line in _square(stacked[j * half : (j + 1) * half], n)]
        for j in range(k)
    ]
    mt = list(zip(*per_matrix))
    t_columns = [ti[a::n] for a in range(n)]
    den = dm * dg * dt * dt
    for row in range(g.rows):
        coeffs = gi[row * k : (row + 1) * k]
        ct = [sum(map(mul, coeffs, line)) for line in mt]  # packed rows of C T
        nums: list[int] = []
        for a, column in enumerate(t_columns):
            fields = ((sum(map(mul, column, ct)) + offset) ^ offset).to_bytes(size * n, "little")
            nums += [
                int.from_bytes(fields[c : c + size], "little", signed=True)
                for c in range(a * size, n * size, size)
            ]
        yield nums, den


def congruences(mats: Sequence[SymMatrix], g: Matrix, t: Matrix) -> Iterator[SymMatrix]:
    """Row i = T^T (sum_j g_ij M_j) T for each row of G, yielded one at a time.

    The stacked upper triangles of all M_j, G and T are each written once as
    integer numerators over one common denominator; the row combination and
    the congruence both run on ints (packed products when T is not the
    identity, see `_congruence_rows`), and each result entry becomes a
    Fraction once. When T is the identity, each row is its integer
    combination: the congruence is skipped. Rows are computed lazily, so a
    caller can stop early. T must be square of the order of the M_j;
    invertibility is not checked here (callers that need an invertible
    transform verify the determinant).
    """
    n = t.rows
    for nums, den in _congruence_rows(mats, g, t):
        if den == 1:
            yield SymMatrix(n, tuple(map(Fraction, nums)))
        else:
            yield SymMatrix(n, tuple(Fraction(v, den) for v in nums))


def congruence_mismatch(
    mats: Sequence[SymMatrix], g: Matrix, t: Matrix, targets: Sequence[SymMatrix]
) -> tuple[int, int, int] | None:
    """The first (i, r, s), 1-based with r <= s, at which row i of
    `congruences(mats, g, t)` differs from targets[i], or None if every row
    matches.

    The comparison runs on integers: each target is written once over its
    common denominator, and the two sides are cross-multiplied only when
    that denominator differs from the rows'. No Fraction is built.
    """
    targets = tuple(targets)
    if len(targets) != g.rows or any(target.n != t.rows for target in targets):
        raise ValueError("targets must be one matrix of the transform's order per row of G")
    for i, ((nums, den), target) in enumerate(zip(_congruence_rows(mats, g, t), targets), start=1):
        want, dw = _over_common_denominator(target._u)
        if dw != den:
            nums, want = [v * dw for v in nums], [v * den for v in want]
        if nums != want:
            p = next(p for p, (a, b) in enumerate(zip(nums, want)) if a != b)
            n = t.rows
            return (i,) + [(r, s) for r in range(1, n + 1) for s in range(r, n + 1)][p]
    return None


def congruence(a: SymMatrix, t: Matrix) -> SymMatrix:
    """Congruence transform T^T A T, computed exactly: the one-row case of
    `congruences`."""
    return next(congruences((a,), Matrix.identity(1), t))
