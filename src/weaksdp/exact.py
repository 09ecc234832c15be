"""Exact rational scalars and dense matrices.

All certification arithmetic in this package is exact: scalars are
`fractions.Fraction` values (re-exported as `Rational`), and no floating
point enters any verification path. A matrix stores integer numerators over
one denominator, kept positive and coprime to the numerators (1 for a zero
matrix), so ``==`` and ``hash`` compare the stored ints. Only the public
constructors convert entries, once, over the lcm of their denominators
(entries that are all `int` are taken as they are, over 1); the kernels,
the elimination loops, the sign tests and the format readers and writers
all read the stored ints, and a `Fraction` is built only where the API
hands one out (`at`, `row`, `to_rows`, `mul_vec`, inner products).
There are three product kernels, and every product in the package goes
through one of them. The matrix product `@` also serves `Matrix.mul_vec` (a
column matrix), and `inner_general` is its 1 x k by k x 1 case, one sum of
products.
`inner_table(mats, xs)` gives M . X for every M and every X, each X's
off-diagonal numerators doubled once; `inners` is its one-X case, and
`inner` is the one-matrix case of that.
`inner_mismatch(mats, xs, targets)` compares the same sums with targets on
integers and names the first differing product; the closeness check runs on
it and builds no Fraction.
`congruences(mats, g, t)` yields the rows T^T (sum_j g_ij M_j) T lazily, with
the combination and the congruence both on ints; it is the one routine for
"row-combine, then congruence" (the reformulation and the alternative-system
check), and `congruence` is its one-row case. G and T of a certificate are
short products of elementary matrices, so most of their entries are zero:
each row of G uses only its non-zero coefficients, and each column of T
only its non-zero entries. Given T = I, as the alternative-system check and
the reformulation of a clean bundle do, it yields the combination without
the congruence, built by `_combine`, the one combination loop: whole
matrices, one C-level pass per non-zero coefficient.
`primitive_combination(coeffs, mats)`, behind the generator's projection,
is that loop for one row of rational coefficients, over their common
denominator and divided by the gcd of its entries. Otherwise the
products run on packed ints (Kronecker substitution): each row of T is one
int with a fixed-width slot per column, wide enough for every result
entry, so CPython's big-int multiply runs the inner loops, and each result
row comes out as the bytes of its upper slots, read back in one pass.
`congruence_mismatch(mats, g, t, targets)` compares the same rows with
targets on integer numerators and names the first differing entry: a
target over the rows' denominator is spelled in the same slot encoding and
its row checked with one `bytes` equality, and a row is unpacked only to
name its first differing entry or when the target does not fit that
encoding. The reformulation check runs on it and builds no Fraction.
Matrix entries are addressed with 1-based indices via ``at(i, j)``, matching
the 1-based index sets used for block structures, so a single indexing
convention runs through structures, matrices and emitted file formats.

Every value is immutable after construction and all operations are pure, so
the types here are safe to share across threads. A symmetric matrix is
assembled as its packed upper triangle, laid out by `upper_offset`, stored
once by the `SymMatrix` constructor, and given back as its n^2 entries by
`square_entries`, the one rows-from-packed rule, or as full rows by
`square_rows`. `SymMatrix._of_rows` reads the rows of a bundle's symmetric
matrices: a symmetric matrix of integer texts in one `map(int, ...)` pass,
any other through its entry-by-entry loop, the one place that reads ``p/q``
and names a fault. `Matrix._of_rows` reads G and T, and `Matrix.from_rows`,
entry by entry after a shape check.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, itemgetter, mul, rshift, sub
from typing import Iterable, Iterator, Sequence

Rational = Fraction

DIGIT_LIMIT = 4300
"""The most digits an integer may have in any exact text: a rational string,
an SDPA field, a JSON literal or an integer flag. It is CPython's default
int-to-string limit, fixed here so that no environment setting widens what
the package accepts. A lower limit of the interpreter (`PYTHONINTMAXSTRDIGITS`
or `sys.set_int_max_str_digits`) applies instead: `int()` refuses the longer
integers, and the readers report that as a parse error."""

ORDER_LIMIT = 1000
"""The largest matrix order n that a reader accepts."""

CELL_LIMIT = 1_000_000
"""The most dense cells, m n(n+1)/2 over the m constraint matrices of order n,
that a reader accepts for one instance. Both limits are checked before any
matrix is allocated, so hostile sizes fail fast and in bounded memory."""

_DIGIT_BOUND = 10**DIGIT_LIMIT

_INTEGER_TEXT = re.compile(r"-?[0-9]+")
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _check_digits(text: str) -> None:
    if len(text) - text.startswith("-") > DIGIT_LIMIT:
        raise ValueError(f"an integer of more than {DIGIT_LIMIT} digits")


def check_digit_limit(ints: Sequence[int]) -> None:
    """ValueError when an int in `ints` has more than DIGIT_LIMIT digits: no
    reader takes its text back, so no writer spells it."""
    if ints and not -_DIGIT_BOUND < min(ints) <= max(ints) < _DIGIT_BOUND:
        raise ValueError(f"an integer of more than DIGIT_LIMIT = {DIGIT_LIMIT} digits")


def check_json_digits(value) -> None:
    """`check_digit_limit` on every int in `value`, JSON data of dicts (keys
    and values), lists and tuples: `json.dumps` would spell each one."""
    ints, stack = [], [value]
    while stack:
        item = stack.pop()
        if type(item) is dict:
            stack += item.items()
        elif type(item) in (list, tuple):
            stack += item
        elif type(item) is int:
            ints.append(item)
    check_digit_limit(ints)


def strict_int(text: str) -> int:
    """The int spelled by `text` in the strict ASCII grammar ``-?[0-9]+``,
    with at most DIGIT_LIMIT digits; ValueError otherwise."""
    if _INTEGER_TEXT.fullmatch(text) is None:
        raise ValueError(f"not an integer -?[0-9]+: {text!r}")
    _check_digits(text)
    return int(text)


def rational(value) -> Fraction:
    """Coerce ints, Fractions, and strings ``p`` or ``p/q`` like ``-3/7`` to a Rational.

    Strings follow one strict ASCII grammar, ``-?[0-9]+(/[0-9]+)?`` with a
    non-zero denominator and at most DIGIT_LIMIT digits in each integer;
    decimals, exponents, spaces and underscores are rejected with ValueError.
    Floats and bools are rejected with TypeError: binary rounding must never
    leak into the exact pipeline silently.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*text_ratio(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def text_ratio(text: str) -> tuple[int, int]:
    """The reduced (p, q), q > 0, of a string in `rational`'s grammar; ValueError otherwise."""
    match = _RATIONAL_TEXT.fullmatch(text)
    if match is not None and len(text) > DIGIT_LIMIT:  # only then can p or q be longer
        for digits in match.groups(""):
            _check_digits(digits)
    if match is None or match[2] and int(match[2]) == 0:
        raise ValueError(f"not an exact rational p or p/q with q != 0: {text!r}")
    p = int(match[1])
    if match[2] is None:
        return p, 1
    q = int(match[2])
    g = gcd(p, q)
    return p // g, q // g


def _ratio(value) -> tuple[int, int]:
    """(p, q) of one entry given to a public constructor, checked by `rational`."""
    if type(value) is int:
        return value, 1
    if type(value) is str:
        return text_ratio(value)
    return rational(value).as_integer_ratio()


def _over_lcm(ratios: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """The (p, q) pairs as numerators over the lcm of their q: the one conversion into storage."""
    ratios = list(ratios)
    den = lcm(*{q for _, q in ratios})
    return [p if q == den else p * (den // q) for p, q in ratios], den


def _stored(entries: Sequence) -> tuple[list[int], int]:
    """The entries given to a public constructor as numerators over one
    denominator: entries that are all of type `int` over 1 as they are, any
    others through `_ratio` and `_over_lcm`."""
    if set(map(type, entries)) <= {int}:
        return list(entries), 1
    return _over_lcm(map(_ratio, entries))


def _canonical(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums / den (den != 0) with den > 0 and gcd(den, *nums) = 1, so den = 1 for zero."""
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(v // g for v in nums), den // g


def _int_product(a: Sequence[int], b: Sequence[int], n: int, k: int, m: int) -> list[int]:
    """Row-major product of row-major integer matrices a (n x k) and b (k x m)."""
    cols = [b[j::m] for j in range(m)]
    return [sum(map(mul, a[i * k : (i + 1) * k], col)) for i in range(n) for col in cols]


class Matrix:
    """Dense exact matrix: row-major integer numerators over one denominator,
    read as Fractions with 1-based ``at(i, j)``."""

    __slots__ = ("rows", "cols", "_e", "_d")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self.rows, self.cols = rows, cols
        self._e, self._d = _canonical(*_stored(entries))

    @classmethod
    def _of(cls, rows: int, cols: int, nums: Sequence[int], den: int) -> "Matrix":
        """The matrix of row-major numerators `nums` over `den`, in canonical form."""
        self = object.__new__(cls)
        self.rows, self.cols = rows, cols
        self._e, self._d = _canonical(nums, den)
        return self

    @staticmethod
    def _shape(rows: list[list]) -> tuple[int, int]:
        """The (rows, columns) of `rows`; ValueError unless all have one length."""
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged rows")
        return len(rows), cols

    @classmethod
    def _of_rows(cls, rows: list[list], parse) -> "Matrix":
        """The matrix of `rows`, refused by `_shape` before any entry is
        read, each entry read to `(p, q)` by `parse`, over the lcm of the q."""
        return cls._of(*cls._shape(rows), *_over_lcm(map(parse, chain.from_iterable(rows))))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "Matrix":
        return cls._of_rows([list(row) for row in rows], _ratio)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, [int(i == j) for i in range(n) for j in range(n)], 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, (0,) * (rows * cols), 1)

    def at(self, i: int, j: int) -> Fraction:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols} (indices are 1-based)")
        return Fraction(self._e[(i - 1) * self.cols + (j - 1)], self._d)

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 1 <= i <= self.rows:
            raise IndexError("row index out of range")
        return tuple(Fraction(v, self._d) for v in self._e[(i - 1) * self.cols : i * self.cols])

    def _num_rows(self) -> list[list[int]]:
        """The rows of stored numerators, over the denominator ``_d``."""
        c = self.cols
        return [list(self._e[r * c : (r + 1) * c]) for r in range(self.rows)]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(1, self.rows + 1)]

    def transpose(self) -> "Matrix":
        c = self.cols
        return Matrix._of(c, self.rows, [v for j in range(c) for v in self._e[j::c]], self._d)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        n, k, m = self.rows, self.cols, other.cols
        return Matrix._of(n, m, _int_product(self._e, other._e, n, k, m), self._d * other._d)

    def mul_vec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        product = self @ Matrix(self.cols, 1, v)
        return tuple(Fraction(v, product._d) for v in product._e)

    def scale(self, c) -> "Matrix":
        q = rational(c)
        return Matrix._of(self.rows, self.cols, [v * q.numerator for v in self._e], self._d * q.denominator)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        da, db = self._d, other._d
        return Matrix._of(self.rows, self.cols, [a * db + b * da for a, b in zip(self._e, other._e)], da * db)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and (self.rows, self.cols, self._d, self._e) == (
            other.rows, other.cols, other._d, other._e)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e, self._d))

    def __repr__(self) -> str:
        return f"Matrix({self.to_rows()!r})"


def upper_offset(n: int, i: int, j: int) -> int:
    """The offset of the 1-based cell (i, j), i <= j, in the packed row-major
    upper triangle of order n: the one layout every module stores and reads."""
    return (i - 1) * (2 * n - i + 2) // 2 + (j - i)


@lru_cache(maxsize=4)
def _mirror(n: int) -> itemgetter:
    """The getter of the n * n entries of a symmetric matrix of order n >= 2,
    row by row, from its packed upper triangle: row r is column r of the rows
    above it, then its own upper cells. It holds n^2 offsets, 24 MB at
    ORDER_LIMIT, so only four orders are kept: the library's 5, 10, 20, 40."""
    rows: list[list[int]] = []
    for r in range(n):
        start = upper_offset(n, r + 1, r + 1)
        rows.append([*map(itemgetter(r), rows), *range(start, start + n - r)])
    return itemgetter(*chain.from_iterable(rows))


def square_entries(upper: Sequence, n: int) -> tuple:
    """The n^2 entries, row by row, of a symmetric matrix of order n from
    its packed row-major upper triangle: the one rows-from-packed rule."""
    if n < 2:  # with one index, `itemgetter` returns the bare entry
        return tuple(upper)
    return _mirror(n)(upper)


def square_rows(upper: Sequence, n: int) -> list[list]:
    """The n rows, new lists, of `square_entries`."""
    # n references to one iterator: zip groups its entries n at a time
    return list(map(list, zip(*[iter(square_entries(upper, n))] * n)))


_INTEGER_CHARS = str.maketrans("", "", "0123456789-")


class SymMatrix:
    """Dense exact symmetric matrix of order n.

    Only the upper triangle is stored, row-major, as integer numerators over
    one denominator, so symmetry holds by construction. Entries are read as
    Fractions with 1-based ``at(i, j)``.
    """

    __slots__ = ("n", "_u", "_d")

    def __init__(self, n: int, upper: Sequence):
        if n < 0 or len(upper) != n * (n + 1) // 2:
            raise ValueError("upper-triangle length does not match order")
        self.n = n
        self._u, self._d = _canonical(*_stored(upper))

    @classmethod
    def _of(cls, n: int, nums: Sequence[int], den: int) -> "SymMatrix":
        """The matrix of upper-triangle numerators `nums` over `den`, in canonical form."""
        self = object.__new__(cls)
        self.n = n
        self._u, self._d = _canonical(nums, den)
        return self

    @classmethod
    def _of_ratios(cls, n: int, ratios: Iterable[tuple[int, int]]) -> "SymMatrix":
        """The matrix of upper-triangle `(p, q)` entries, over the lcm of the q."""
        return cls._of(n, *_over_lcm(ratios))

    @classmethod
    def _of_rows(cls, rows: list[list], parse) -> "SymMatrix":
        """The matrix of square `rows`, each entry read to `(p, q)` by `parse`.

        A matrix of integer texts is read in one pass: when every upper entry
        is a `str` of only ``0-9`` and ``-``, of at most DIGIT_LIMIT
        characters, and the rows equal their transpose as text, the upper
        entries go through `int` in one `map`. Any other matrix, or a
        `ValueError` from `int`, takes the loop, the one place that reads
        ``p/q``, mixed spellings and JSON integers and names a fault. There
        each upper entry is parsed once; a lower entry is parsed only when it
        differs from its mirror in type or value, so `True` beside `1` is
        still rejected while `"2/4"` and `"1/2"` read alike."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        upper = list(chain.from_iterable([row[i:] for i, row in enumerate(rows)]))
        try:
            text = "".join(upper)  # TypeError unless every upper entry is a str
            if (not text.translate(_INTEGER_CHARS)
                    and (len(text) <= DIGIT_LIMIT or max(map(len, upper)) <= DIGIT_LIMIT)
                    and list(zip(*rows)) == list(map(tuple, rows))):  # equal to its transpose
                return cls._of(n, list(map(int, upper)), 1)
        except (TypeError, ValueError):
            pass
        upper = [parse(v) for i, row in enumerate(rows) for v in row[i:]]
        for i in range(n):
            for j in range(i + 1, n):
                high, low = rows[i][j], rows[j][i]
                if (type(low) is not type(high) or low != high) and parse(low) != parse(high):
                    raise ValueError(f"not symmetric at ({i + 1},{j + 1})")
        return cls._of_ratios(n, upper)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "SymMatrix":
        return cls._of_rows([list(row) for row in rows], _ratio)

    @classmethod
    def zeros(cls, n: int) -> "SymMatrix":
        return cls._of(n, (0,) * (n * (n + 1) // 2), 1)

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.diag([1] * n)

    @classmethod
    def diag(cls, values: Sequence) -> "SymMatrix":
        vals = list(values)
        return cls.from_cells(len(vals), {(i, i): v for i, v in enumerate(vals, start=1)})

    @classmethod
    def from_cells(cls, n: int, cells: dict[tuple[int, int], object]) -> "SymMatrix":
        """The matrix of order n with each value of `cells` at its 1-based
        cell (i, j) and at (j, i), and zeros elsewhere."""
        upper = [0] * (n * (n + 1) // 2)
        for (i, j), value in cells.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise IndexError(f"entry ({i},{j}) outside order {n} (indices are 1-based)")
            upper[upper_offset(n, min(i, j), max(i, j))] = value
        return cls(n, upper)

    @classmethod
    def unit(cls, n: int, i: int, j: int, value=1) -> "SymMatrix":
        """Symmetric unit matrix: `value` at (i, j) and (j, i), zero elsewhere."""
        return cls.from_cells(n, {(i, j): value})

    def _num(self, i: int, j: int) -> int:
        """The stored numerator of entry (i, j), 1-based: its sign is the entry's."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"entry ({i},{j}) outside order {self.n} (indices are 1-based)")
        if i > j:
            i, j = j, i
        return self._u[upper_offset(self.n, i, j)]

    def at(self, i: int, j: int) -> Fraction:
        return Fraction(self._num(i, j), self._d)

    def _num_rows(self) -> list[list[int]]:
        """The n full rows of stored numerators, over the denominator ``_d``."""
        return square_rows(self._u, self.n)

    def to_rows(self) -> list[list[Fraction]]:
        return square_rows([Fraction(v, self._d) for v in self._u], self.n)

    def principal(self, indices: Iterable[int]) -> "SymMatrix":
        """Principal submatrix on the given (1-based) indices, in sorted order."""
        idx = sorted(set(indices))
        return SymMatrix._of(len(idx), [self._num(r, c) for k, r in enumerate(idx) for c in idx[k:]], self._d)

    def add(self, other: "SymMatrix") -> "SymMatrix":
        if self.n != other.n:
            raise ValueError("order mismatch")
        da, db = self._d, other._d
        return SymMatrix._of(self.n, [a * db + b * da for a, b in zip(self._u, other._u)], da * db)

    def sub(self, other: "SymMatrix") -> "SymMatrix":
        return self.add(other.scale(-1))

    def scale(self, c) -> "SymMatrix":
        q = rational(c)
        return SymMatrix._of(self.n, [v * q.numerator for v in self._u], self._d * q.denominator)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self.n == other.n and self._d == other._d and self._u == other._u

    def __hash__(self) -> int:
        return hash((self.n, self._u, self._d))

    def __repr__(self) -> str:
        return f"SymMatrix({self.to_rows()!r})"


def _inner_sums(mats: tuple[SymMatrix, ...], xs: tuple[SymMatrix, ...]) -> list[list[int]]:
    """The numerators of M_i . X_j over mats[i]._d xs[j]._d, one row per M
    and one column per X: each entry one sum of products of stored
    numerators. Each X's off-diagonal numerators are doubled once, because
    the upper triangle holds each of them once, so a table of m rows and k
    columns prepares k operands, not m k."""
    orders = {a.n for a in mats + xs}
    if len(orders) > 1:
        raise ValueError("order mismatch")
    n = orders.pop() if orders else 0
    diagonal = {upper_offset(n, i, i) for i in range(1, n + 1)}
    columns = [[v if p in diagonal else 2 * v for p, v in enumerate(x._u)] for x in xs]
    return [[sum(map(mul, mat._u, xi)) for xi in columns] for mat in mats]


def inner_table(
    mats: Iterable[SymMatrix], xs: Iterable[SymMatrix]
) -> tuple[tuple[Fraction, ...], ...]:
    """Trace inner products M_i . X_j, one row per M and one column per X,
    computed exactly from the sums of `_inner_sums`."""
    mats, xs = tuple(mats), tuple(xs)
    return tuple(
        tuple(Fraction(s, mat._d * x._d) for s, x in zip(row, xs))
        for mat, row in zip(mats, _inner_sums(mats, xs))
    )


def inner_mismatch(
    mats: Iterable[SymMatrix], xs: Iterable[SymMatrix], targets: Sequence[Sequence[Fraction]]
) -> tuple[int, int] | None:
    """The first (j, i), 1-based, X_j outer and M_i inner, at which
    M_i . X_j differs from targets[j - 1][i - 1], or None if every product
    matches.

    The sums are those of `inner_table`, compared with the targets on
    integers: a target's numerator and a sum are cross-multiplied only when
    the two denominators differ. No Fraction is built.
    """
    mats, xs = tuple(mats), tuple(xs)
    if len(targets) != len(xs) or any(len(column) != len(mats) for column in targets):
        raise ValueError("targets must be one value per matrix for each X")
    table = _inner_sums(mats, xs)
    for j, (x, column) in enumerate(zip(xs, targets)):
        for i, (mat, row, want) in enumerate(zip(mats, table, column), start=1):
            p, q = want.as_integer_ratio()
            got, den = row[j], mat._d * x._d
            if (got != p) if q == den else (got * q != p * den):
                return j + 1, i
    return None


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
    return Fraction(sum(map(mul, m._e, y._e)), m._d * y._d)


def _combine(coeffs: Sequence[int], nums: Sequence[Sequence[int]], size: int) -> list[int]:
    """sum_j coeffs[j] nums[j] for integer coefficients and `size` integer
    numerators per operand: one C-level pass per non-zero coefficient. It is
    the one combination loop: the T = I rows of `_congruence_rows` and
    `primitive_combination` are this sum."""
    acc = [0] * size
    for c, u in zip(compress(coeffs, coeffs), compress(nums, coeffs)):
        acc = list(map(add, acc, map(mul, u, repeat(c))))
    return acc


def primitive_combination(coeffs: Sequence, mats: Sequence[SymMatrix]) -> SymMatrix | None:
    """The positive multiple of sum_j c_j M_j whose entries are coprime
    integers, or None when the sum is zero.

    The sum is formed as D sum_j c_j M_j on the stored numerators by
    `_combine`, D the lcm of the denominators of the weights c_j / d_j of
    the numerators of M_j over their denominator d_j, and then divided by
    the gcd of its entries. No Fraction is built per entry.
    """
    mats = tuple(mats)
    if len(coeffs) != len(mats):
        raise ValueError("coefficient count does not match matrix count")
    orders = {mat.n for mat in mats}
    if len(orders) > 1:
        raise ValueError("order mismatch")
    n = orders.pop() if orders else 0
    weights = [rational(c) / mat._d for c, mat in zip(coeffs, mats)]
    scale = lcm(*(w.denominator for w in weights))
    nums = _combine([w.numerator * (scale // w.denominator) for w in weights],
                    [mat._u for mat in mats], n * (n + 1) // 2)
    divisor = gcd(*nums)
    if not divisor:
        return None
    return SymMatrix._of(n, [v // divisor for v in nums], 1)


def _congruence_rows(
    mats: Sequence[SymMatrix], g: Matrix, t: Matrix
) -> tuple[int, int, Iterator]:
    """The rows T^T (sum_j g_ij M_j) T, one per row of G, as ``(den, size,
    rows)``: every row is over the common denominator `den`, and `rows`
    yields each row's upper triangle lazily. Each row of G uses only its
    non-zero coefficients.

    When T is the identity, `size` is 0 and each row is its list of
    numerators, the combination `_combine` of whole matrices, so the
    congruence is skipped.

    Otherwise the products run on packed ints (Kronecker substitution): row
    r of T becomes one int with a w-bit slot per column, so row r of M_j T is
    one dot product of row r of M_j with the packed rows of T, and row a of
    the result one dot product of the non-zero entries of column a of T with
    the matching packed rows of C T. The slot width bounds every result
    entry, n^2 k max|g| max|M| max|T|^2, plus a sign bit, in whole bytes:
    `size` bytes per slot. Half the slot range added to each slot makes it
    non-negative, so each row is the bytes of its upper entries in that
    slot encoding, little-endian, and `_unpack` reads it back.
    """
    mats = tuple(mats)
    n = t.rows
    if not t.is_square() or any(mat.n != n for mat in mats):
        raise ValueError("transform must be square of the same order")
    if g.cols != len(mats):
        raise ValueError("coefficient count does not match matrix count")
    k = len(mats)
    dm = lcm(*(mat._d for mat in mats))
    scaled = [mat._u if mat._d == dm else [v * (dm // mat._d) for v in mat._u] for mat in mats]
    gi, dg = g._e, g._d
    g_rows = [gi[row * k : (row + 1) * k] for row in range(g.rows)]
    # T = I, read off the stored form: n^2 - n zeros and a diagonal of ones over 1
    if t._d == 1 and t._e.count(0) == n * n - n and t._e[:: n + 1] == (1,) * n:
        size = n * (n + 1) // 2
        return dm * dg, 0, (_combine(coeffs, scaled, size) for coeffs in g_rows)
    ti, dt = t._e, t._d
    g_max, m_max, t_max = (max(map(abs, nums), default=0)
                           for nums in (gi, chain.from_iterable(scaled), ti))
    size = (n * n * k * g_max * m_max * t_max**2).bit_length() // 8 + 1  # the sign bit included
    width = 8 * size
    packed_t = [sum(v << (width * c) for c, v in enumerate(ti[r * n : (r + 1) * n]) if v)
                for r in range(n)]
    # mt[r] holds the packed row r of every M_j T
    mt = list(zip(*[[sum(map(mul, line, packed_t)) for line in square_rows(u, n)] for u in scaled]))
    t_columns = [(column, [v for v in column if v]) for column in (ti[a::n] for a in range(n))]
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    # result row a keeps slots a..n-1 of its packed sum: the upper triangle
    shifts, lengths = range(0, width * n, width), range(size * n, 0, -size)

    def rows() -> Iterator[bytes]:
        for coeffs in g_rows:
            nonzero = [c for c in coeffs if c]
            ct = [sum(map(mul, nonzero, compress(line, coeffs))) for line in mt]  # packed rows of C T
            sums = [sum(map(mul, values, compress(ct, column)), offset) for column, values in t_columns]
            yield b"".join(map(int.to_bytes, map(rshift, sums, shifts), lengths, repeat("little")))

    return dm * dg * dt * dt, size, rows()


def _unpack(data: bytes, size: int) -> list[int]:
    """The entries of a row of `_congruence_rows` in its slot encoding:
    `size` bytes each, little-endian, less half the slot range."""
    fields = map(bytes, zip(*[iter(data)] * size))  # `size` references to one iterator
    return list(map(sub, map(int.from_bytes, fields, repeat("little")), repeat(1 << (8 * size - 1))))


def congruences(mats: Sequence[SymMatrix], g: Matrix, t: Matrix) -> Iterator[SymMatrix]:
    """Row i = T^T (sum_j g_ij M_j) T for each row of G, yielded one at a time.

    The row combination and the congruence both run on the stored ints
    (packed products when T is not the identity, see `_congruence_rows`),
    and each row is stored as it comes out, a packed row unpacked in one
    `map` pass; no Fraction is built. When T is the identity, each row is
    its integer combination: the congruence is skipped. Rows are computed
    lazily, so a caller can stop early. T must be square of the order of the
    M_j; invertibility is not checked here (callers that need an invertible
    transform verify the determinant).
    """
    den, size, rows = _congruence_rows(mats, g, t)
    n = t.rows
    if size:
        return (SymMatrix._of(n, _unpack(data, size), den) for data in rows)
    return (SymMatrix._of(n, nums, den) for nums in rows)


def congruence_mismatch(
    mats: Sequence[SymMatrix], g: Matrix, t: Matrix, targets: Sequence[SymMatrix]
) -> tuple[int, int, int] | None:
    """The first (i, r, s), 1-based with r <= s, at which row i of
    `congruences(mats, g, t)` differs from targets[i], or None if every row
    matches.

    The comparison runs on integers. When T is not the identity, a target
    over the rows' denominator is spelled in the kernel's slot encoding,
    each value plus half the slot range through `int.to_bytes`, and its row
    is checked with one `bytes` equality. A row is unpacked only to name its
    first differing entry, or when its target has another denominator or a
    value that does not fit a slot (an `OverflowError`); then the row and
    the target are compared exactly, their numerators cross-multiplied only
    when the denominators differ. No Fraction is built.
    """
    targets = tuple(targets)
    if len(targets) != g.rows or any(target.n != t.rows for target in targets):
        raise ValueError("targets must be one matrix of the transform's order per row of G")
    den, size, rows = _congruence_rows(mats, g, t)
    bias = 1 << (8 * size - 1) if size else 0
    for i, (nums, target) in enumerate(zip(rows, targets), start=1):
        want, dw = target._u, target._d
        if size:
            if dw == den:
                try:
                    slots = map(add, want, repeat(bias))
                    if nums == b"".join(map(int.to_bytes, slots, repeat(size), repeat("little"))):
                        continue
                except OverflowError:  # a target value outside the slot range
                    pass
            nums = _unpack(nums, size)
        if dw != den:
            nums, want = [v * dw for v in nums], [v * den for v in want]
        if nums != list(want):
            p = next(p for p, (a, b) in enumerate(zip(nums, want)) if a != b)
            n = t.rows
            return (i,) + [(r, s) for r in range(1, n + 1) for s in range(r, n + 1)][p]
    return None


def congruence(a: SymMatrix, t: Matrix) -> SymMatrix:
    """Congruence transform T^T A T, computed exactly: the one-row case of
    `congruences`."""
    return next(congruences((a,), Matrix.identity(1), t))
