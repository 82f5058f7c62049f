"""Dense exact linear algebra over finite fields.

Vectors and matrices are immutable.  Over GF(2) the entries are bit-packed
into Python integers (bit i of a vector mask = entry i; one mask per matrix
row), so row operations are single XORs; every other field stores canonical
integer entries in tuples.  Matrices are read by rows only; whoever needs
columns takes the rows of :meth:`FieldMatrix.transpose`, which over GF(2)
regroups the bits of the rows' binary strings.

Elimination is one routine per storage style, ``_reduce_gf2`` and
``_reduce_dense``, behind :class:`RowReduction`: the rows of [M | B] (B = I
or a right-hand side) are inserted one at a time and pivot on the M part
only, at their lowest non-zero column (scaled to 1); each new pivot column
is cleared from the other pivot rows, so the M parts end as the unique
reduced row echelon form of M.  Rank, kernel, left kernel, solving and
inversion all read off that one pass.  Arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldSpec, GF2


class NoSolutionError(ValueError):
    """Right-hand side outside the column space."""


class SingularMatrixError(ValueError):
    """Matrix is not invertible."""


def _check_same_field(a, b):
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

class FieldVector:
    """Immutable length-n vector over a finite field."""

    __slots__ = ("field", "n", "bits", "_entries")

    def __init__(self, field: FieldSpec, entries=None, *, n=None, bits=None):
        self.field = field
        if bits is not None:
            if field.p != 2 or field.m != 1:
                raise ValueError("bit masks are only valid over GF(2)")
            if n is None:
                raise ValueError("bit-mask construction requires n")
            if bits >> n:
                raise ValueError("mask has bits beyond length n")
            self.n = n
            self.bits = bits
            self._entries = None
            return
        entries = [int(e) for e in entries]
        for e in entries:
            field.check_element(e)
        self.n = len(entries)
        if field is GF2 or (field.p == 2 and field.m == 1):
            mask = 0
            for i, e in enumerate(entries):
                mask |= e << i
            self.bits = mask
            self._entries = None
        else:
            self.bits = None
            self._entries = tuple(entries)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, n: int) -> "FieldVector":
        if field.p == 2 and field.m == 1:
            return cls(field, n=n, bits=0)
        return cls(field, (0,) * n)

    @classmethod
    def from_support(cls, field: FieldSpec, n: int, support, values=None) -> "FieldVector":
        """Length-n vector with values[i] at position support[i] (Python
        ints) and zeros elsewhere; over GF(2) every value is 1 and values
        may be omitted."""
        if field.p == 2 and field.m == 1:
            mask = 0
            for j in support:
                mask |= 1 << j
            return cls(field, n=n, bits=mask)
        entries = [0] * n
        for j, v in zip(support, values):
            entries[j] = v
        return cls(field, entries)

    # -- accessors ------------------------------------------------------------

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            return tuple((self.bits >> i) & 1 for i in range(self.n))
        return self._entries

    def __len__(self):
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        if self.bits is not None:
            return (self.bits >> i) & 1
        return self._entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, FieldVector)
            and self.field == other.field
            and self.n == other.n
            and (self.bits == other.bits if self.bits is not None else self._entries == other._entries)
        )

    def __hash__(self):
        return hash((self.field, self.n, self.bits if self.bits is not None else self._entries))

    def __repr__(self):
        if self.bits is not None:
            body = "".join(str((self.bits >> i) & 1) for i in range(self.n))
        else:
            body = ",".join(str(e) for e in self._entries)
        return f"FieldVector({self.field!r}, [{body}])"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "FieldVector") -> "FieldVector":
        _check_same_field(self, other)
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        if self.bits is not None:
            return FieldVector(self.field, n=self.n, bits=self.bits ^ other.bits)
        f = self.field
        return FieldVector(f, tuple(f.add(a, b) for a, b in zip(self._entries, other._entries)))

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        _check_same_field(self, other)
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        if self.bits is not None:
            return FieldVector(self.field, n=self.n, bits=self.bits ^ other.bits)
        f = self.field
        return FieldVector(f, tuple(f.sub(a, b) for a, b in zip(self._entries, other._entries)))

    def __neg__(self) -> "FieldVector":
        if self.bits is not None:
            return self
        f = self.field
        return FieldVector(f, tuple(f.neg(a) for a in self._entries))

    def scale(self, c: int) -> "FieldVector":
        f = self.field
        f.check_element(c)
        if self.bits is not None:
            return self if c else FieldVector.zeros(f, self.n)
        return FieldVector(f, tuple(f.mul(c, a) for a in self._entries))

    def weight(self) -> int:
        if self.bits is not None:
            return self.bits.bit_count()
        return sum(1 for e in self._entries if e)


def hamming_distance(a: FieldVector, b: FieldVector) -> int:
    return (a - b).weight()


def random_vector(field: FieldSpec, n: int, rng) -> FieldVector:
    """Uniform element of F^n."""
    if field.p == 2 and field.m == 1:
        raw = rng.integers(0, 256, size=(n + 7) // 8)
        mask = int.from_bytes(bytes(int(x) for x in raw), "little") & ((1 << n) - 1)
        return FieldVector(field, n=n, bits=mask)
    return FieldVector(field, tuple(int(x) for x in rng.integers(0, field.q, size=n)))


def random_weight_vector(field: FieldSpec, n: int, w: int, rng) -> FieldVector:
    """Uniform vector of Hamming weight exactly w: uniform support, uniform
    non-zero values."""
    if w > n or w < 0:
        raise ValueError(f"weight {w} out of range for length {n}")
    support = sorted(int(i) for i in rng.choice(n, size=w, replace=False)) if w else []
    values = None if field.q == 2 else [int(rng.integers(1, field.q)) for _ in support]
    return FieldVector.from_support(field, n, support, values)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class FieldMatrix:
    """Immutable rows x cols matrix over a finite field.

    GF(2) storage is one integer mask per row (bit j = column j); other
    fields store a tuple of row tuples.
    """

    __slots__ = ("field", "rows", "cols", "row_masks", "row_entries")

    def __init__(self, field: FieldSpec, entries=None, *, cols=None, row_masks=None):
        self.field = field
        if row_masks is not None:
            if field.p != 2 or field.m != 1:
                raise ValueError("row masks are only valid over GF(2)")
            if cols is None:
                raise ValueError("mask construction requires cols")
            row_masks = tuple(row_masks)
            for r in row_masks:
                if r >> cols:
                    raise ValueError("row mask has bits beyond cols")
            self.rows = len(row_masks)
            self.cols = cols
            self.row_masks = row_masks
            self.row_entries = None
            return
        grid = [[int(e) for e in row] for row in entries]
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else (cols or 0)
        for row in grid:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for e in row:
                field.check_element(e)
        if field.p == 2 and field.m == 1:
            masks = []
            for row in grid:
                m = 0
                for j, e in enumerate(row):
                    m |= e << j
                masks.append(m)
            self.row_masks = tuple(masks)
            self.row_entries = None
        else:
            self.row_masks = None
            self.row_entries = tuple(tuple(row) for row in grid)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FieldMatrix":
        if field.p == 2 and field.m == 1:
            return cls(field, cols=n, row_masks=[1 << i for i in range(n)])
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "FieldMatrix":
        if field.p == 2 and field.m == 1:
            return cls(field, cols=cols, row_masks=[0] * rows)
        return cls(field, [[0] * cols for _ in range(rows)])

    # -- accessors ------------------------------------------------------------

    def row(self, i: int) -> FieldVector:
        if self.row_masks is not None:
            return FieldVector(self.field, n=self.cols, bits=self.row_masks[i])
        return FieldVector(self.field, self.row_entries[i])

    def to_grid(self) -> list[list[int]]:
        if self.row_masks is not None:
            return [[(r >> j) & 1 for j in range(self.cols)] for r in self.row_masks]
        return [list(row) for row in self.row_entries]

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and (self.row_masks == other.row_masks
                 if self.row_masks is not None else self.row_entries == other.row_entries)
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols,
                     self.row_masks if self.row_masks is not None else self.row_entries))

    def __repr__(self):
        return f"FieldMatrix({self.field!r}, {self.rows}x{self.cols})"

    # -- products -------------------------------------------------------------

    def transpose(self) -> "FieldMatrix":
        """Over GF(2) through the rows' binary strings: row j of the result
        reads character j from the right of every string, row 0 lowest."""
        if self.row_masks is not None:
            if not (self.rows and self.cols):
                return FieldMatrix.zeros(self.field, self.cols, self.rows)
            rows = [format(r, f"0{self.cols}b") for r in reversed(self.row_masks)]
            out = [int("".join(col), 2) for col in zip(*rows)]
            out.reverse()
            return FieldMatrix(self.field, cols=self.rows, row_masks=out)
        grid = [[row[j] for row in self.row_entries] for j in range(self.cols)]
        return FieldMatrix(self.field, grid, cols=self.rows)

    def mat_vec(self, v: FieldVector) -> FieldVector:
        _check_same_field(self, v)
        if v.n != self.cols:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} times length {v.n}")
        if self.row_masks is not None:
            out = 0
            vb = v.bits
            for i, r in enumerate(self.row_masks):
                out |= ((r & vb).bit_count() & 1) << i
            return FieldVector(self.field, n=self.rows, bits=out)
        f = self.field
        ve = v.entries
        out = []
        for row in self.row_entries:
            acc = 0
            for a, x in zip(row, ve):
                if a and x:
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return FieldVector(f, out)

    def mat_mul(self, other: "FieldMatrix") -> "FieldMatrix":
        _check_same_field(self, other)
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        if self.row_masks is not None:
            orows = other.row_masks
            out = []
            for r in self.row_masks:
                acc = 0
                rr = r
                while rr:
                    k = (rr & -rr).bit_length() - 1
                    acc ^= orows[k]
                    rr &= rr - 1
                out.append(acc)
            return FieldMatrix(self.field, cols=other.cols, row_masks=out)
        f = self.field
        ogrid = other.row_entries
        out = []
        for row in self.row_entries:
            acc = [0] * other.cols
            for k, a in enumerate(row):
                if a:
                    orow = ogrid[k]
                    for j in range(other.cols):
                        if orow[j]:
                            acc[j] = f.add(acc[j], f.mul(a, orow[j]))
            out.append(acc)
        return FieldMatrix(f, out, cols=other.cols)

    def __matmul__(self, other):
        if isinstance(other, FieldVector):
            return self.mat_vec(other)
        if isinstance(other, FieldMatrix):
            return self.mat_mul(other)
        return NotImplemented


def concat_cols(A: FieldMatrix, B: FieldMatrix) -> FieldMatrix:
    """Column-block concatenation (A|B)."""
    _check_same_field(A, B)
    if A.rows != B.rows:
        raise ValueError(f"row mismatch: {A.rows} vs {B.rows}")
    if A.row_masks is not None:
        masks = [a | (b << A.cols) for a, b in zip(A.row_masks, B.row_masks)]
        return FieldMatrix(A.field, cols=A.cols + B.cols, row_masks=masks)
    grid = [list(ra) + list(rb) for ra, rb in zip(A.row_entries, B.row_entries)]
    return FieldMatrix(A.field, grid)


def permuted_rows(M: FieldMatrix, index_map) -> FieldMatrix:
    """Matrix whose row i is row index_map[i] of M."""
    if len(index_map) != M.rows:
        raise ValueError("index map length must equal row count")
    if M.row_masks is not None:
        return FieldMatrix(M.field, cols=M.cols, row_masks=[M.row_masks[j] for j in index_map])
    return FieldMatrix(M.field, [M.row_entries[j] for j in index_map])


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _reduce_gf2(masks, ncols: int):
    """Reduce GF(2) row masks, inserting one row at a time.

    Only bits below ``ncols`` are pivoted on; higher bits (the B part of
    an augmented [M | B]) ride along.  Returns a dict pivot column -> fully
    reduced row, and the high parts of the rows that became zero.
    """
    low = (1 << ncols) - 1
    pivots: dict[int, int] = {}
    pmask = 0
    zero = []
    for a in masks:
        m = a & pmask
        while m:  # a pivot row is zero in every other pivot column
            a ^= pivots[(m & -m).bit_length() - 1]
            m &= m - 1
        g = a & low
        if not g:
            zero.append(a >> ncols)
            continue
        bit = g & -g
        for pc, row in pivots.items():
            if row & bit:
                pivots[pc] = row ^ a
        pivots[bit.bit_length() - 1] = a
        pmask |= bit
    return pivots, zero


def _reduce_dense(grid, ncols: int, f: FieldSpec):
    """:func:`_reduce_gf2` for rows of field elements; pivots are scaled to 1."""
    pivots: dict[int, list] = {}
    zero = []
    for row in grid:
        for pc, prow in pivots.items():
            c = row[pc]
            if c:
                row = [f.sub(e, f.mul(c, pe)) if pe else e for e, pe in zip(row, prow)]
        col = next((j for j in range(ncols) if row[j]), None)
        if col is None:
            zero.append(tuple(row[ncols:]))
            continue
        inv = f.inv(row[col])
        if inv != 1:
            row = [f.mul(inv, e) for e in row]
        for pc, prow in pivots.items():
            c = prow[col]
            if c:
                pivots[pc] = [f.sub(e, f.mul(c, pe)) if pe else e for e, pe in zip(prow, row)]
        pivots[col] = row
    return pivots, zero


class RowReduction:
    """One reduction of the rows of [M | B], pivoting on the M part only.

    B is the identity unless given.  ``pivot_rows`` (in ``pivot_cols``
    order) are the reduced row echelon form of M.  Row i of ``ops`` is the
    B part of pivot row i and ``left_kernel`` holds the B parts of the rows
    that became zero; with B = I they are the combinations of M's rows that
    give pivot row i, and a basis of {h : h M = 0}.
    """

    def __init__(self, M: FieldMatrix, B: FieldMatrix | None = None):
        self.field, self.cols = f, n = M.field, M.cols
        B = FieldMatrix.identity(f, M.rows) if B is None else B
        if M.row_masks is not None:
            pivots, left = _reduce_gf2([r | (b << n) for r, b in zip(M.row_masks, B.row_masks)], n)
            self.pivot_cols = pcs = sorted(pivots)
            self.pivot_rows = [pivots[c] & ((1 << n) - 1) for c in pcs]
            self.ops = FieldMatrix(f, cols=B.cols, row_masks=[pivots[c] >> n for c in pcs])
            self.left_kernel = FieldMatrix(f, cols=B.cols, row_masks=left)
            return
        pivots, left = _reduce_dense([list(r) + list(b)
                                      for r, b in zip(M.row_entries, B.row_entries)], n, f)
        self.pivot_cols = pcs = sorted(pivots)
        self.pivot_rows = [pivots[c][:n] for c in pcs]
        self.ops = FieldMatrix(f, [pivots[c][n:] for c in pcs], cols=B.cols)
        self.left_kernel = FieldMatrix(f, left, cols=B.cols)

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def null_space(self) -> FieldMatrix:
        """Columns spanning {x : M x = 0}, one per free column in ascending
        order: 1 in the free column, minus the RREF entries above it."""
        f, n = self.field, self.cols
        pivot_set = set(self.pivot_cols)
        free = [j for j in range(n) if j not in pivot_set]
        if f.p == 2 and f.m == 1:
            out = [0] * n
            for i, fc in enumerate(free):
                out[fc] = bit = 1 << i
                for pc, row in zip(self.pivot_cols, self.pivot_rows):
                    if (row >> fc) & 1:
                        out[pc] |= bit
            return FieldMatrix(f, cols=len(free), row_masks=out)
        grid = [[int(fc == j) for fc in free] for j in range(n)]
        for pc, row in zip(self.pivot_cols, self.pivot_rows):
            grid[pc] = [f.neg(row[fc]) for fc in free]
        return FieldMatrix(f, grid, cols=len(free))

    def particular(self, y: FieldVector) -> FieldVector:
        """The solution of M x = B y with every free variable 0: x at the
        i-th pivot column is row i of ``ops`` applied to y (one parity per
        pivot over GF(2)).  NoSolutionError if B y is outside the column
        space."""
        if (self.left_kernel @ y).weight():
            raise NoSolutionError("inconsistent linear system")
        t = self.ops @ y
        if t.bits is not None:
            return FieldVector(self.field, n=self.cols, bits=sum(
                ((t.bits >> i) & 1) << c for i, c in enumerate(self.pivot_cols)))
        xs = [0] * self.cols
        for c, v in zip(self.pivot_cols, t.entries):
            xs[c] = v
        return FieldVector(self.field, xs)


def rank(M: FieldMatrix) -> int:
    return RowReduction(M, FieldMatrix.zeros(M.field, M.rows, 0)).rank


def kernel_basis(M: FieldMatrix) -> FieldMatrix:
    """Matrix whose columns form a basis of {x : M x = 0}.

    Width is cols(M) - rank(M); a full-rank square M yields a matrix with
    zero columns.
    """
    return RowReduction(M, FieldMatrix.zeros(M.field, M.rows, 0)).null_space()


@dataclass(frozen=True)
class AffineSolutions:
    """Solution set {particular + span(kernel columns)} of a linear system."""

    particular: FieldVector
    kernel: FieldMatrix

    @property
    def count(self) -> int:
        return self.particular.field.q ** self.kernel.cols

    def __iter__(self):
        """Solution i is the particular solution plus the kernel columns
        weighted by the base-q digits of i (least significant first)."""
        q = self.particular.field.q
        Kt = self.kernel.transpose()
        basis = [Kt.row(j) for j in range(Kt.rows)]
        for index in range(self.count):
            x = self.particular
            for v in basis:
                index, c = divmod(index, q)
                if c:
                    x = x + v.scale(c)
            yield x


def solve_affine(M: FieldMatrix, y: FieldVector) -> AffineSolutions:
    """All solutions of M x = y, or NoSolutionError if y is outside the
    column space."""
    _check_same_field(M, y)
    if y.n != M.rows:
        raise ValueError(f"dimension mismatch: {M.rows}x{M.cols} vs rhs length {y.n}")
    # B = y as an n x 1 matrix, so the solver applied to the scalar 1 reads off x
    red = RowReduction(M, FieldMatrix(M.field, [[e] for e in y], cols=1))
    return AffineSolutions(red.particular(FieldVector(M.field, [1])), red.null_space())


def invert(M: FieldMatrix) -> FieldMatrix:
    """Inverse of a square full-rank matrix: the row combinations that
    reduce M to the identity."""
    if M.rows != M.cols:
        raise SingularMatrixError("only square matrices are invertible")
    red = RowReduction(M)
    if red.rank < M.rows:
        raise SingularMatrixError("matrix is singular")
    return red.ops
