"""Exact rational scalars and dense matrices.

All certification arithmetic in this package is exact: scalars are
`fractions.Fraction` values (re-exported as `Rational`), and no floating
point enters any verification path. A matrix stores integer numerators over
one denominator, kept positive and coprime to the numerators (1 for a zero
matrix), so ``==`` and ``hash`` compare the stored ints. Only the public
constructors convert entries, once, over the lcm of their denominators
(`_stored`, below); the kernels, the elimination loops, the sign tests and
the format readers and writers all read the stored ints, and a `Fraction`
is built only where the API hands one out (`at`, `row`, `to_rows`,
`mul_vec`, inner products).
Every product in the package goes through one of the kernels below. The
matrix product `@` also serves `Matrix.mul_vec` (a column matrix), and
`inner_general` is its 1 x k by k x 1 case, one sum of products.
`inner_table(mats, xs)` gives M . X for every M and every X, each X
prepared once by `_picks`: an X with fewer than half its cells non-zero is
read at those cells only, so M . X costs nnz(X) products. `inners` is its
one-X case, and `inner` is the one-matrix case of that.
`inner_mismatch(mats, xs, targets)` compares the same sums with targets on
integers and names the first differing product; the closeness check runs on
it and builds no Fraction.
The rows T^T (sum_j g_ij M_j) T, row combination and then congruence, come
from one producer, `_congruence_rows`, after one shape check (`_operands`).
T = I, read off the stored form, only combines whole matrices; any other T
runs the one cell kernel (`_cell_fields`: each cell packed over the rows of
G by Kronecker substitution, one `_combine` pass per non-zero of T, decoded
by `_slots`), whose cost past the cells grows with nnz(T) n.
`congruences(mats, g, t)` wraps each row in a `SymMatrix`: for
`echelon.reformulated` (the generator's disguise), the alternative-system
check and `congruence`, its one-row case. `congruence_mismatch(mats, g, t,
targets)`, the reformulation check of a G and T the package did not build,
compares each row with its target on integers and names the first
differing entry. `complement_projection(n, span, gram_inverse)`, behind the
generator's projection, runs `_combine` once per candidate, on integer
coefficients, divided by the gcd of its entries.
Matrix entries are addressed with 1-based indices via ``at(i, j)``, matching
the 1-based index sets used for block structures, so a single indexing
convention runs through structures, matrices and emitted file formats.

Every value is immutable after construction and all operations are pure, so
the types here are safe to share across threads. A symmetric matrix is
assembled as its packed upper triangle, laid out by `upper_offset`, stored
once by the `SymMatrix` constructor, and given back as its n^2 entries by
`square_entries`, the one rows-from-packed rule, or as full rows by
`square_rows`. Every entry a public constructor takes, a bundle's texts
included, is stored by `_stored`: integer texts in one `map(int, ...)` pass,
any other entry through `_ratio`, the one place that reads ``p/q`` and names
a fault. `Matrix.from_rows` checks the shape, and `SymMatrix.from_rows` that
the rows are square, before any entry is read.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from math import gcd, isfinite, lcm
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Iterator, Sequence

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


def check_json_numbers(value) -> None:
    """`check_digit_limit` on every int in `value`, JSON data of dicts (keys
    and values), lists and tuples, which `json.dumps` would spell, and
    ValueError for a float in it that is not finite, which `json.dumps`
    would spell ``NaN`` or ``Infinity``: no JSON (RFC 8259) and no reader
    takes either back."""
    ints, stack = [], [value]
    while stack:
        item = stack.pop()
        if type(item) is dict:
            stack += item.items()
        elif type(item) in (list, tuple):
            stack += item
        elif type(item) is int:
            ints.append(item)
        elif type(item) is float and not isfinite(item):
            raise ValueError(f"a float that is not finite, {item}, is not JSON")
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
    """The (p, q) pairs as numerators over the lcm of their q."""
    ratios = list(ratios)
    den = lcm(*{q for _, q in ratios})
    return [p if q == den else p * (den // q) for p, q in ratios], den


_INTEGER_CHARS = str.maketrans("", "", "0123456789-")


def _stored(entries: Sequence) -> tuple[list[int], int]:
    """The entries given to a public constructor as numerators over one
    denominator: the one conversion into storage. Integer texts, every entry
    a `str` of only ``0-9`` and ``-`` and none longer than DIGIT_LIMIT, go
    through `int` in one `map`; entries that are all of type `int` are taken
    as they are; both over 1. Any others, or a `ValueError` from that `int`,
    go one by one through `_ratio`, the one place that reads ``p/q`` and
    names a fault, each distinct `str` parsed once (only `str` keys: `True`
    and `1` hash alike), and then `_over_lcm`."""
    try:
        if entries and type(entries[0]) is str:
            text = "".join(entries)  # TypeError unless every entry is a str
            if not text.translate(_INTEGER_CHARS) and (
                    len(text) <= DIGIT_LIMIT or max(map(len, entries)) <= DIGIT_LIMIT):
                return list(map(int, entries)), 1
        elif set(map(type, entries)) <= {int}:
            return list(entries), 1
    # entries without indexing, such as dict values; a later entry that is not a str;
    # "", "-" or "1-2"; or an interpreter limit below DIGIT_LIMIT
    except (TypeError, ValueError):
        pass
    parsed: dict[str, tuple[int, int]] = {}

    def ratio(value) -> tuple[int, int]:
        if type(value) is not str:
            return _ratio(value)
        pair = parsed.get(value)
        if pair is None:
            pair = parsed[value] = text_ratio(value)
        return pair

    return _over_lcm(map(ratio, entries))


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
    def from_rows(cls, rows: Iterable[Iterable]) -> "Matrix":
        """The matrix of `rows`, refused by `_shape` before any entry is read."""
        rows = list(map(list, rows))
        return cls._of(*cls._shape(rows), *_stored(list(chain.from_iterable(rows))))

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
        p, q = rational(c).as_integer_ratio()
        return Matrix._of(self.rows, self.cols, [v * p for v in self._e], self._d * q)

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
    def from_rows(cls, rows: Iterable[Iterable]) -> "SymMatrix":
        """The matrix of square `rows`, its upper entries stored by `_stored`.

        Symmetry is checked after every upper entry is read. When the upper
        entries are all texts and the rows equal their transpose, that
        comparison is the check. Otherwise a lower entry is parsed only when
        it differs from its mirror in type or value, so `True` beside `1` is
        still rejected while `"2/4"` and `"1/2"` read alike."""
        rows = list(map(list, rows))
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        upper = list(chain.from_iterable([row[i:] for i, row in enumerate(rows)]))
        try:
            "".join(upper)  # TypeError unless every upper entry is a str
        except TypeError:
            mirrored = False
        else:
            mirrored = list(map(list, zip(*rows))) == rows
        nums, den = _stored(upper)
        if not mirrored:
            for i in range(n):
                for j in range(i + 1, n):
                    high, low = rows[i][j], rows[j][i]
                    if (type(low) is not type(high) or low != high) and _ratio(low) != _ratio(high):
                        raise ValueError(f"not symmetric at ({i + 1},{j + 1})")
        return cls._of(n, nums, den)

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
        p, q = rational(c).as_integer_ratio()
        return SymMatrix._of(self.n, [v * p for v in self._u], self._d * q)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self.n == other.n and self._d == other._d and self._u == other._u

    def __hash__(self) -> int:
        return hash((self.n, self._u, self._d))

    def __repr__(self) -> str:
        return f"SymMatrix({self.to_rows()!r})"


@lru_cache(maxsize=4)
def _doubling(n: int) -> tuple[int, ...]:
    """The weight of each cell of the packed upper triangle of order n in a
    trace inner product: 1 on the diagonal and 2 off it, because the upper
    triangle holds each off-diagonal entry once. Like `_mirror`, only four
    orders are kept."""
    return tuple(1 if j == i else 2 for i in range(n) for j in range(i, n))


def _doubled(upper: Sequence[int], n: int) -> list[int]:
    """The packed upper triangle `upper` of order n times the `_doubling`
    weights: X's column, one sum of products with a packed M gives M . X."""
    return list(map(mul, upper, _doubling(n)))


def _picks(upper: Sequence[int], n: int) -> tuple[itemgetter | None, list[int]]:
    """What a trace inner product with X, given as its packed upper triangle
    `upper` of order n, multiplies: a getter of the cells of M to read, or
    None for every cell, and X's numerators at those cells times their
    `_doubling` weights, so that one sum of products gives M . X.

    With fewer than half its cells non-zero, X's non-zero cells are picked,
    so M . X costs nnz(X) products. A pick costs a cell about half what its
    product does: on an X with no zero cell, picking made `inners` 30-45%
    slower than reading every cell, so a denser X is read at every cell.
    """
    nonzero = len(upper) - upper.count(0)
    if 2 * nonzero >= len(upper):
        return None, _doubled(upper, n)
    # two picks of cell 0 at weight 0 pad the getter: with one index `itemgetter`
    # returns the bare entry, and with none it cannot be built
    cells = compress(range(len(upper)), upper)
    return itemgetter(0, 0, *cells), [0, 0, *map(mul, compress(upper, upper), compress(_doubling(n), upper))]


def _inner_sums(mats: tuple[SymMatrix, ...], xs: tuple[SymMatrix, ...]) -> list[list[int]]:
    """The numerators of M_i . X_j over mats[i]._d xs[j]._d, one row per M
    and one column per X: each entry one sum of products of stored
    numerators, over the cells `_picks` chooses. Each X is picked once, so a
    table of m rows and k columns prepares k operands, not m k."""
    orders = {a.n for a in mats + xs}
    if len(orders) > 1:
        raise ValueError("order mismatch")
    n = orders.pop() if orders else 0
    columns = [_picks(x._u, n) for x in xs]
    return [[sum(map(mul, mat._u if pick is None else pick(mat._u), weights)) for pick, weights in columns]
            for mat in mats]


def inner_table(
    mats: Iterable[SymMatrix], xs: Iterable[SymMatrix]
) -> tuple[tuple[Fraction, ...], ...]:
    """Trace inner products M_i . X_j, one row per M and one column per X,
    computed exactly from the sums of `_inner_sums`, each over the cells
    that `_picks` chooses for X_j."""
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

    The sums are those of `inner_table`, over X_j's non-zero cells when
    fewer than half its cells are non-zero, compared with the targets on
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


def _numerators_over_lcm(mats: Sequence[SymMatrix]) -> tuple[int, list[Sequence[int]]]:
    """The lcm of the denominators of `mats`, and each matrix's stored
    numerators over it."""
    den = lcm(*(mat._d for mat in mats))
    return den, [mat._u if mat._d == den else [v * (den // mat._d) for v in mat._u] for mat in mats]


def _combine(terms: Iterable[tuple[int, Sequence[int]]], size: int) -> list[int]:
    """sum c u over the (c, u) terms, an integer coefficient c and `size`
    integers u: one C-level pass per non-zero c, with no product for a 1. It
    is the one combination loop: each projection of `complement_projection`,
    the T = I rows of `_congruence_rows` and both passes of T in
    `_cell_fields` are this sum."""
    total = None
    for c, u in terms:
        if c:
            term = u if c == 1 else map(mul, u, repeat(c))
            total = list(term) if total is None else list(map(add, total, term))
    return [0] * size if total is None else total


def complement_projection(
    n: int, span: Sequence[SymMatrix], gram_inverse: Matrix
) -> Callable[[Sequence[int]], SymMatrix | None]:
    """The map from an integer symmetric matrix C of order n, given as its
    packed upper triangle, to the positive multiple of C - sum_s c_s X_s
    whose entries are coprime integers, or to None when that is zero: C
    projected onto the orthogonal complement of span{X_1, ..., X_l}. The
    coefficients are c = gram_inverse (X_1 . C, ..., X_l . C), so
    `gram_inverse` must be the inverse of the Gram matrix (X_s . X_t) of
    `span`.

    Everything that does not depend on C is prepared once: the X_s as
    numerators over one denominator d, their `_doubled` columns, and the
    numerators H over D of `gram_inverse`. Then, per C, with r_t the sum of
    products of C with column t, the coefficients w_s = sum_t H_st r_t are
    integers, D d^2 C - sum_s w_s d X_s is one `_combine` pass, and it is
    divided by the gcd of its entries. No Fraction and no matrix is built
    for C.
    """
    span = tuple(span)
    ell = len(span)
    if (gram_inverse.rows, gram_inverse.cols) != (ell, ell):
        raise ValueError("the Gram inverse must be l x l for l spanning matrices")
    if any(x.n != n for x in span):
        raise ValueError("order mismatch")
    size = n * (n + 1) // 2
    den, basis = _numerators_over_lcm(span)
    columns = [_doubled(nums, n) for nums in basis]
    weights = [gram_inverse._e[s * ell : (s + 1) * ell] for s in range(ell)]
    scale = gram_inverse._d * den * den

    def project(upper: Sequence[int]) -> SymMatrix | None:
        if len(upper) != size:
            raise ValueError("upper-triangle length does not match order")
        sums = [sum(map(mul, column, upper)) for column in columns]
        coeffs = [scale, *(-sum(map(mul, row, sums)) for row in weights)]
        nums = _combine(zip(coeffs, [upper, *basis]), size)
        divisor = gcd(*nums)
        if not divisor:
            return None
        return SymMatrix._of(n, [v // divisor for v in nums], 1)

    return project


def _operands(mats: tuple[SymMatrix, ...], g: Matrix, t: Matrix) -> tuple[int, list[Sequence[int]]]:
    """What `_congruence_rows` starts from, for the rows
    T^T (sum_j g_ij M_j) T: the rows' common denominator, and the numerators
    of the M_j over the lcm of their denominators. ValueError unless T is
    square of the order of the M_j and G has one column per M_j."""
    if not t.is_square() or any(mat.n != t.rows for mat in mats):
        raise ValueError("transform must be square of the same order")
    if g.cols != len(mats):
        raise ValueError("coefficient count does not match matrix count")
    dm, scaled = _numerators_over_lcm(mats)
    return dm * g._d * t._d * t._d, scaled


def _slot_size(g: Matrix, scaled: Sequence[Sequence[int]], t: Matrix) -> int:
    """The bytes of a slot that holds every numerator of the rows
    T^T (sum_j g_ij M_j) T, the M_j given as `scaled` numerators: at most
    max_i sum_j |g_ij| max|M| (max_b sum_c |t_cb|)^2 in magnitude, over
    stored numerators, and a sign bit."""
    n, k = t.rows, g.cols
    gi, ti = g._e, t._e
    g_sum = max((sum(map(abs, gi[i * k : (i + 1) * k])) for i in range(g.rows)), default=0)
    m_max = max((max(max(u), -min(u)) for u in scaled if u), default=0)
    t_sum = max((sum(map(abs, ti[b::n])) for b in range(n)), default=0)
    return (g_sum * m_max * t_sum**2).bit_length() // 8 + 1


def _sign_bits(size: int, count: int) -> int:
    """The sign bit of each of `count` slots of `size` bytes, little-endian.
    Added to slot values it makes each slot non-negative; flipped after that,
    it spells them in two's complement, the encoding `_slots` reads."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _slots(data: bytes, size: int) -> Sequence[int]:
    """The integers of `data`, `size` bytes each, little-endian two's
    complement: the cell kernel's slot decoder, through `struct` for 8-byte
    slots."""
    if size == 8:
        return struct.unpack(f"<{len(data) // 8}q", data)
    return [int.from_bytes(data[p : p + size], "little", signed=True) for p in range(0, len(data), size)]


def _cell_fields(g: Matrix, scaled: Sequence[Sequence[int]], t: Matrix) -> Sequence[int]:
    """The upper cells of every row T^T (sum_j g_ij M_j) T, numerators over
    the rows' denominator, the M_j given as `scaled` numerators: cell p of
    row i (0-based, m the rows of G) is field p m + i. The one cell kernel,
    behind every row of a T other than I.

    Upper cell p of every row is one packed int, row i in slot i (Kronecker
    substitution over the rows of G): each stored numerator of each M_j
    times G's packed column j gives the symmetric matrix C of packed cells.
    T then acts on each side with one `_combine` pass per non-zero of T, and
    the cells are decoded by `_slots`, with the `_slot_size` width but at
    least 8 bytes, the width `struct` reads. The cost is k n(n+1)/2
    products with the m-slot columns of G, for the cells of C, and about
    2 nnz(T) n additions of m-slot ints, for all rows of G at once.
    """
    size = max(8, _slot_size(g, scaled, t))
    n, m, k = t.rows, g.rows, g.cols
    gi, ti = g._e, t._e
    width = 8 * size
    t_columns = [[(v, c) for c, v in enumerate(ti[b::n]) if v] for b in range(n)]
    g_columns = [sum(v << (width * i) for i, v in enumerate(gi[j::k]) if v) for j in range(k)]
    # with no M_j, zip yields no cell, and every cell is 0
    cells = [sum(map(mul, cell, g_columns)) for cell in zip(*scaled)] or [0] * (n * (n + 1) // 2)
    rows = square_rows(cells, n)  # C, symmetric: row c is column c
    left = list(zip(*[_combine([(v, rows[c]) for v, c in column], n) for column in t_columns]))  # columns of T^T C
    # row b of the symmetric result from b on is column b of (T^T C) T from b on
    upper = [x for b, column in enumerate(t_columns) for x in _combine([(v, left[c][b:]) for v, c in column], n - b)]
    half = _sign_bits(size, m)
    return _slots(b"".join([((cell + half) ^ half).to_bytes(size * m, "little") for cell in upper]), size)


def _congruence_rows(mats: Sequence[SymMatrix], g: Matrix, t: Matrix) -> tuple[int, Iterator[Sequence[int]]]:
    """The rows T^T (sum_j g_ij M_j) T as the upper numerators of each row of
    G in turn, over their one denominator: the one producer behind
    `congruences` and `congruence_mismatch`. T = I, read off the stored
    form, only combines: each row is the `_combine` of whole matrices over
    the non-zero coefficients of its row of G, made when it is read. Any
    other T takes one `_cell_fields` pass for all rows."""
    den, scaled = _operands(tuple(mats), g, t)
    n, m, k = t.rows, g.rows, g.cols
    gi, ti = g._e, t._e
    # n^2 - n zeros and a diagonal of ones over 1
    if t._d == 1 and ti.count(0) == n * n - n and ti[:: n + 1] == (1,) * n:
        return den, (_combine(zip(gi[i * k : (i + 1) * k], scaled), n * (n + 1) // 2) for i in range(m))
    fields = _cell_fields(g, scaled, t)
    return den, (fields[i::m] for i in range(m))


def congruences(mats: Sequence[SymMatrix], g: Matrix, t: Matrix) -> list[SymMatrix]:
    """Row i = T^T (sum_j g_ij M_j) T for every row of G, each a `SymMatrix`
    from `_congruence_rows`. Invertibility is not checked here; an untrusted
    G and T are checked by `congruence_mismatch`, which builds no matrix.
    """
    den, rows = _congruence_rows(mats, g, t)
    return [SymMatrix._of(t.rows, nums, den) for nums in rows]


def congruence_mismatch(
    mats: Sequence[SymMatrix], g: Matrix, t: Matrix, targets: Sequence[SymMatrix]
) -> tuple[int, int, int] | None:
    """The first (i, r, s), 1-based with r <= s, at which row
    i = T^T (sum_j g_ij M_j) T differs from targets[i], or None if every row
    matches: the check of a G and T that the package did not build.

    The rows come from `_congruence_rows` and are compared with the
    target's numerators in row order, cross-multiplied only when the
    denominators differ. No Fraction and no matrix is built.
    """
    targets = tuple(targets)
    if len(targets) != g.rows or any(target.n != t.rows for target in targets):
        raise ValueError("targets must be one matrix of the transform's order per row of G")
    n = t.rows
    den, rows = _congruence_rows(mats, g, t)
    for i, (nums, target) in enumerate(zip(rows, targets), start=1):
        want, dw = target._u, target._d
        if dw != den:
            nums, want = tuple(map(mul, nums, repeat(dw))), tuple(map(mul, want, repeat(den)))
        # `want` is a tuple; tuple() of a tuple is the same object, no copy
        if tuple(nums) != want:
            p = next(p for p, (a, b) in enumerate(zip(nums, want)) if a != b)
            return (i,) + [(r, s) for r in range(1, n + 1) for s in range(r, n + 1)][p]
    return None


def congruence(a: SymMatrix, t: Matrix) -> SymMatrix:
    """Congruence transform T^T A T, computed exactly: the one-row case of
    `congruences`."""
    return congruences((a,), Matrix.identity(1), t)[0]
