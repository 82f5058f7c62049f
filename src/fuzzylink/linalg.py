"""Dense exact linear algebra over finite fields.

Vectors and matrices are immutable and stored one way over every field: a
vector, and each matrix row, is one Python integer whose slot j of s bits
holds entry j, with s = 1 over GF(2), 8 for q <= 256 and 16 above.  These
are the ``packed`` / ``packed_rows`` views (and, over GF(2) only,
``bits``); ``entries`` and ``row_entries`` unpack them through
``bytes`` or ``struct``.  Indexing, slicing, comparison, weight,
concatenation, row permutation and reading kernels and solutions off a
reduction act on the words, whatever the field.  Matrices are read by
rows; columns are the rows of :meth:`FieldMatrix.transpose`, which a
matrix computes once and keeps, as it keeps its row multiples, its rows
in reversed slot order and its reduction.  A matrix-vector product adds
the columns that the vector's entries weight, over GF(2) by XOR.  A
transpose, or a gather of every row's entries, is one numpy operation on
the array of slots (one bit per entry over GF(2)); a GF(2) matrix product
is the method of Four Russians in numpy (:func:`_gf2_product`), in two
halves, the left factor's picks and the right factor's tables, so that a
caller whose left factor is fixed keeps its half.

Arithmetic on words goes through one object per characteristic, both with
the same operations: a sum of two words, a combination sum c*w, a word
minus a combination, the q multiples of a word and the dot product of two
words.

* :class:`_Slots`, characteristic 2: addition is XOR, and multiplying
  every slot by x is a shift and one carry-free product, so a scalar
  multiple or a combination costs O(m) whole-word operations, whatever
  the length (the bit-sliced arithmetic of McBits, Bernstein, Chou and
  Schwabe, CHES 2013).
* :class:`_Entrywise`, odd characteristic: a call unpacks into one list
  of entries and uses :class:`~fuzzylink.fields.FieldSpec` arithmetic on
  it; a sum of two words over GF(p) stays whole.

:class:`RowReduction` inserts the rows of [M | I] one at a time into one
forward pass (``_reduce``), the same over every field: each row pivots on
the M part only, at its lowest non-zero column (scaled to 1), after it is
reduced against the echelon rows, which are never cleared above their
pivot.  The M part enters with its column order reversed (the rows that
:meth:`FieldMatrix.reversed_rows` keeps), so that column is the row's
highest set slot, read by one ``bit_length``; it is reversed back
(``_reversed``) only where it leaves the reduction.  Only the step
that subtracts a multiple of an echelon row depends on the field.  The
pivot columns and the left kernel are fixed by insertion order.  The
echelon rows are the reduction's one form: solving, the kernel and
inversion all back-substitute over them, one dot product per row, and
rank and the left kernel read off the same pass, which each matrix keeps
(:meth:`FieldMatrix.reduction`).  The reduction of [M1 | M2 | I], where
M1 and M2 are M with its rows permuted, is read off that of [M | I]
(:meth:`RowReduction.doubled`): its echelon rows carry over, and only the
rows of M's left kernel are reduced again, on the columns of M2; with
M1 = M2 nothing is.  Arithmetic is exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import repeat
from operator import itemgetter, mul, or_, xor

import numpy as np

from .fields import FieldSpec


class NoSolutionError(ValueError):
    """Right-hand side outside the column space."""


class SingularMatrixError(ValueError):
    """Matrix is not invertible."""


def _check_same_field(a, b):
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")


# ---------------------------------------------------------------------------
# packed words
# ---------------------------------------------------------------------------

def _slot(f: FieldSpec) -> int:
    """Slot width of the packed storage of f."""
    return 1 if f.q == 2 else 8 if f.q <= 256 else 16


@lru_cache(maxsize=1024)
def _ones(s: int, n: int) -> int:
    """Bit 0 of each of n slots of width s."""
    return ((1 << s * n) - 1) // ((1 << s) - 1)


def _valid_bits(f: FieldSpec, n: int) -> int:
    """The bits a packed length-n word over f, of characteristic 2, may
    have set."""
    return _ones(_slot(f), n) * ((1 << f.m) - 1)


def _pack(f: FieldSpec, row) -> int:
    """Packed word of a sequence of canonical entries (not checked)."""
    s = _slot(f)
    if s == 1:
        word = 0
        for i, e in enumerate(row):
            word |= e << i
        return word
    raw = bytes(row) if s == 8 else struct.pack(f"<{len(row)}H", *row)
    return int.from_bytes(raw, "little")


def _pack_rows(f: FieldSpec, grid) -> tuple:
    """Packed words of lists of canonical entries (checked here)."""
    rows = [row for row in grid if row]
    if rows and (min(map(min, rows)) < 0 or max(map(max, rows)) >= f.q):
        f.check_element(next(e for row in rows for e in row if not 0 <= e < f.q))
    return tuple(_pack(f, row) for row in grid)


def _unpack(f: FieldSpec, word: int, n: int) -> tuple:
    s = _slot(f)
    if s == 1:
        return tuple((word >> i) & 1 for i in range(n))
    raw = word.to_bytes(n * s // 8, "little")
    return tuple(raw) if s == 8 else struct.unpack(f"<{n}H", raw)


_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reversed(f: FieldSpec, word: int, n: int) -> int:
    """A packed length-n word over f with its slot order reversed: slot j
    moves to slot n - 1 - j.  Over GF(2) through its bytes with each byte's
    bits reversed, with 8-bit slots through its bytes in the other order."""
    s = _slot(f)
    if s == 16:
        return _pack(f, _unpack(f, word, n)[::-1])
    raw = word.to_bytes((s * n + 7) // 8, "little")
    if s == 8:
        return int.from_bytes(raw, "big")
    return int.from_bytes(raw.translate(_BIT_REVERSED), "big") >> (-n % 8)


class _Slots:
    """Whole-word arithmetic on packed words of ``width`` slots in
    characteristic 2, where a sum is an XOR (m = 1 included)."""

    __slots__ = ("s", "m", "mask", "ones", "keep", "red")
    add = xor

    def __init__(self, f: FieldSpec, width: int):
        self.s = _slot(f)
        self.m = m = f.m
        self.mask = (1 << m) - 1
        self.ones = _ones(self.s, width)
        self.keep = self.ones * ((1 << (m - 1)) - 1)  # bits 0 .. m-2 of each slot
        self.red = f.mul(1 << (m - 1), 2)             # x^m reduced by the modulus

    def times_x(self, w: int) -> int:
        """Every slot times x: shift the low m - 1 bits up and reduce the
        top bit plane, a product below 2^m that cannot carry."""
        return ((w & self.keep) << 1) ^ (((w >> (self.m - 1)) & self.ones) * self.red)

    def combine(self, pairs) -> int:
        """The sum of c*w over (c, w) pairs: each w is XORed into one
        accumulator per set bit of c, and the accumulators are joined by
        Horner's rule in x."""
        acc = [0] * self.m
        for c, w in pairs:
            while c:
                low = c & -c
                acc[low.bit_length() - 1] ^= w
                c ^= low
        out = acc[-1]
        for a in reversed(acc[:-1]):
            out = self.times_x(out) ^ a
        return out

    def minus(self, a: int, pairs) -> int:
        """a minus the sum of c*w over (c, w) pairs, which is a plus it."""
        return a ^ self.combine(pairs)

    def x_powers(self, w: int) -> list:
        """[w, x*w, ..., x^(m-1)*w]: c*w is the XOR of those selected by
        the bits of c."""
        out = [w]
        while len(out) < self.m:
            out.append(self.times_x(out[-1]))
        return out

    def multiples(self, w: int) -> list:
        """[c*w for c = 0 .. q-1], the list doubled once per x-power of w."""
        out = [0]
        for p in self.x_powers(w):
            out += [v ^ p for v in out]
        return out

    def dot(self, powers: list, z: int) -> int:
        """The sum of a_j * z_j over the slots, with powers = x_powers(a):
        bit k of z_j selects x^k * a_j, and the selected slots are folded
        into slot 0 by XOR."""
        ones, mask = self.ones, self.mask
        t = 0
        for k, p in enumerate(powers):
            t ^= p & ((z >> k) & ones) * mask
        shift = self.s
        while shift < t.bit_length():
            t ^= t >> shift
            shift <<= 1
        return t & mask


class _Entrywise:
    """The operations of :class:`_Slots` in odd characteristic.  A call
    adds each c*w, entry by entry, to one unpacked list and packs it once.
    Over GF(p) a sum of two words stays whole: every other slot sits in a
    lane of 2s bits, where two entries cannot carry, and each lane that
    reaches p loses p."""

    __slots__ = ("f", "width", "s", "lanes", "even", "off")

    def __init__(self, f: FieldSpec, width: int):
        self.f, self.width = f, width
        self.s = s = _slot(f)
        self.lanes = _ones(2 * s, (width + 1) // 2)
        self.even = self.lanes * ((1 << s) - 1)
        self.off = self.lanes * ((1 << (2 * s - 1)) - f.p)  # sets a lane's top bit at p

    def _sum(self, acc, pairs) -> int:
        """acc plus the sum of c*w over (c, w) pairs, packed."""
        f, n, p = self.f, self.width, self.f.p
        add, mul = f.add, f.mul
        for c, w in pairs:
            if c and w:
                ent = _unpack(f, w, n)
                acc = ([(x + c * y) % p for x, y in zip(acc, ent)] if f.m == 1 else
                       [add(x, mul(c, y)) if y else x for x, y in zip(acc, ent)])
        return _pack(f, acc)

    def add(self, a: int, b: int) -> int:
        if self.f.m > 1:
            return self._sum(_unpack(self.f, a, self.width), ((1, b),))
        s, even, off, lanes, p = self.s, self.even, self.off, self.lanes, self.f.p
        top = 2 * s - 1
        lo = (a & even) + (b & even)
        hi = ((a >> s) & even) + ((b >> s) & even)
        lo -= ((lo + off) >> top & lanes) * p
        hi -= ((hi + off) >> top & lanes) * p
        return lo | hi << s

    def combine(self, pairs) -> int:
        return self._sum([0] * self.width, pairs)

    def minus(self, a: int, pairs) -> int:
        neg = self.f.neg
        return self._sum(_unpack(self.f, a, self.width), [(neg(c), w) for c, w in pairs if c])

    def multiples(self, w: int) -> list:
        return [self.combine(((c, w),)) for c in range(self.f.q)]

    def dot(self, a: int, z: int) -> int:
        """The sum of a_j * z_j over the slots."""
        f, n = self.f, self.width
        if f.m == 1:
            return sum(map(mul, _unpack(f, a, n), _unpack(f, z, n))) % f.p
        return reduce(f.add, map(f.mul, _unpack(f, a, n), _unpack(f, z, n)), 0)


def word_arithmetic(f: FieldSpec, width: int):
    """The arithmetic of packed words of ``width`` slots over f: a
    :class:`_Slots` in characteristic 2 (its ``add`` is ``xor``), an
    :class:`_Entrywise` otherwise."""
    return (_Slots if f.p == 2 else _Entrywise)(f, width)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def _vec(f: FieldSpec, n: int, word: int) -> "FieldVector":
    """Packed vector from a word known to be valid (no check)."""
    v = object.__new__(FieldVector)
    v.field = f
    v.n = n
    v.packed = word
    v.bits = word if f.q == 2 else None
    return v


class FieldVector:
    """Immutable length-n vector over a finite field.

    ``bits=`` takes a GF(2) mask (bit i = entry i), ``packed=`` a packed
    word over any field of characteristic 2 (see the module docstring);
    both are checked once for bits outside the n slots or above m.
    """

    __slots__ = ("field", "n", "packed", "bits")

    def __init__(self, field: FieldSpec, entries=None, *, n=None, bits=None, packed=None):
        self.field = field
        if bits is not None:
            if field.q != 2:
                raise ValueError("bit masks are only valid over GF(2)")
            packed = bits
        if packed is not None:
            if field.p != 2:
                raise ValueError("packed words are only valid in characteristic 2")
            if n is None:
                raise ValueError("packed construction requires n")
            if packed & ~_valid_bits(field, n):  # a negative word fails too
                raise ValueError("packed word has bits outside its n slots of m bits")
            self.n = n
        else:
            entries = [int(e) for e in entries]
            self.n = len(entries)
            packed = _pack_rows(field, [entries])[0]
        self.packed = packed
        self.bits = packed if field.q == 2 else None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, n: int) -> "FieldVector":
        return _vec(field, n, 0)

    @classmethod
    def from_support(cls, field: FieldSpec, n: int, support, values=None) -> "FieldVector":
        """Length-n vector with values[i] at position support[i] (Python
        ints) and zeros elsewhere; over GF(2) values may be omitted, each
        then 1.  A position outside [0, n) or a value outside the field
        raises ValueError."""
        s, word = _slot(field), 0
        for j, v in zip(support, repeat(1) if values is None and field.q == 2 else values):
            if not (0 <= j < n and 0 <= v < field.q):
                raise ValueError(f"entry {v} at position {j} does not fit GF({field.q})^{n}")
            word |= v << (s * j)
        return _vec(field, n, word)

    # -- accessors ------------------------------------------------------------

    @property
    def entries(self) -> tuple:
        return _unpack(self.field, self.packed, self.n)

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        """Entry i, or for a slice with step 1 the sub-vector it selects."""
        s = _slot(self.field)
        if isinstance(i, slice):
            start, stop, step = i.indices(self.n)
            if step != 1:
                raise ValueError("vector slices take step 1")
            k = max(stop - start, 0)
            return _vec(self.field, k, (self.packed >> (s * start)) & ((1 << (s * k)) - 1))
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.packed >> (s * i)) & ((1 << s) - 1)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, FieldVector)
            and self.field == other.field
            and self.n == other.n
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.field, self.n, self.packed))

    def __repr__(self):
        if self.bits is not None:
            body = "".join(str((self.bits >> i) & 1) for i in range(self.n))
        else:
            body = ",".join(str(e) for e in self.entries)
        return f"FieldVector({self.field!r}, [{body}])"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "FieldVector") -> "FieldVector":
        _check_same_field(self, other)
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        f = self.field
        if f.p == 2:
            return _vec(f, self.n, self.packed ^ other.packed)
        return _vec(f, self.n, _Entrywise(f, self.n).add(self.packed, other.packed))

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        _check_same_field(self, other)
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        f = self.field
        if f.p == 2:
            return _vec(f, self.n, self.packed ^ other.packed)
        return _vec(f, self.n, _Entrywise(f, self.n).minus(self.packed, ((1, other.packed),)))

    def __neg__(self) -> "FieldVector":
        return self if self.field.p == 2 else self.scale(self.field.neg(1))

    def scale(self, c: int) -> "FieldVector":
        f = self.field
        f.check_element(c)
        return _vec(f, self.n, word_arithmetic(f, self.n).combine(((c, self.packed),)))

    def relabeled(self, table) -> "FieldVector":
        """Every entry e replaced by table[e], for a table of q field
        elements (not checked): with one byte per slot (2 < q <= 256) one
        ``bytes.translate`` of the word, otherwise entry by entry."""
        f = self.field
        if _slot(f) == 8:
            raw = self.packed.to_bytes(self.n, "little").translate(bytes(table).ljust(256, b"\0"))
            return _vec(f, self.n, int.from_bytes(raw, "little"))
        return _vec(f, self.n, _pack(f, [table[e] for e in self.entries]))

    def gathered(self, index) -> "FieldVector":
        """The vector whose entry i is entry index[i] of this one (index is
        not checked): over GF(2) one gather over the bit string, character
        i being entry i."""
        f = self.field
        if not index:
            return _vec(f, 0, 0)
        if self.bits is not None:
            bits = format(self.bits, f"0{self.n}b")[::-1]
            return _vec(f, len(index), int("".join(itemgetter(*index)(bits))[::-1], 2))
        e = self.entries
        return _vec(f, len(index), _pack(f, [e[j] for j in index]))

    def weight(self) -> int:
        # OR every slot's bits down into its bit 0, then count those
        w = self.packed
        top = (self.field.q - 1).bit_length()
        shift = 1
        while shift < top:
            w |= w >> shift
            shift *= 2
        return (w & _ones(_slot(self.field), self.n)).bit_count()


def hamming_distance(a: FieldVector, b: FieldVector) -> int:
    return (a - b).weight()


def random_vector(field: FieldSpec, n: int, rng) -> FieldVector:
    """Uniform element of F^n."""
    if field.q == 2:
        raw = rng.integers(0, 256, size=(n + 7) // 8)
        mask = int.from_bytes(bytes(int(x) for x in raw), "little") & ((1 << n) - 1)
        return FieldVector(field, n=n, bits=mask)
    raw = rng.integers(0, field.q, size=n).astype("u1" if _slot(field) == 8 else "<u2")
    return _vec(field, n, int.from_bytes(raw.tobytes(), "little"))


def random_weight_vector(field: FieldSpec, n: int, w: int, rng) -> FieldVector:
    """Uniform vector of Hamming weight exactly w: uniform support, uniform
    non-zero values."""
    if w > n or w < 0:
        raise ValueError(f"weight {w} out of range for length {n}")
    support = sorted(int(i) for i in rng.choice(n, size=w, replace=False)) if w else []
    s, word = _slot(field), 0
    for j in support:
        word |= (1 if field.q == 2 else int(rng.integers(1, field.q))) << (s * j)
    return _vec(field, n, word)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _mat(f: FieldSpec, cols: int, rows) -> "FieldMatrix":
    """Packed matrix from row words known to be valid (no check)."""
    M = object.__new__(FieldMatrix)
    M.field = f
    M.rows = len(rows)
    M.cols = cols
    M.packed_rows = tuple(rows)
    M._transposed = M._multiples = M._table = M._reduced = M._rev = None
    return M


def _join_rows(words, nbytes: int) -> bytes:
    return b"".join([w.to_bytes(nbytes, "little") for w in words])


def _split_rows(raw, nbytes: int, count: int) -> list:
    return [int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little") for i in range(count)]


def _byte_array(words, nbytes: int):
    """The words as a (len(words), nbytes) numpy array of their little-endian
    bytes."""
    return np.frombuffer(_join_rows(words, nbytes), np.uint8).reshape(len(words), nbytes)


def _u64_rows(words, n: int):
    """Packed GF(2) words of length n as a read-only (len(words),
    ceil(n / 64)) array of u8 words, the inverse of :func:`_u64_words`."""
    return _byte_array(words, 8 * ((n + 63) // 64)).view("<u8")


def _u64_words(words) -> list:
    """The rows of a 2-D array of u8 words as ints, word j of a row holding
    its bits 64j .. 64j + 63: one ``tolist`` per column, joined 64 bits at
    a time."""
    if not words.shape[1]:
        return [0] * len(words)
    *low, out = words.T.tolist()
    for col in reversed(low):
        out = [w << 64 | x for w, x in zip(out, col)]
    return out


def _slot_array(f: FieldSpec, words, n: int):
    """Packed length-n words over f as a (len(words), n) numpy array of
    their slots: over GF(2) one uint8 bit per entry (bit i of each byte is
    entry i, ``bitorder="little"``), otherwise uint8 or uint16 entries."""
    s = _slot(f)
    raw = _byte_array(words, (s * n + 7) // 8)
    if s == 1:
        return np.unpackbits(raw, axis=1, count=n, bitorder="little")
    return raw.view("<u2") if s == 16 else raw


def _from_slots(f: FieldSpec, slots) -> "FieldMatrix":
    """The matrix of a 2-D array of slots over f, keeping its transpose:
    both are packed (:func:`_slot_words`) from the one array."""
    rows, cols = slots.shape
    M = _mat(f, cols, _slot_words(f, slots))
    M._transposed = _mat(f, rows, _slot_words(f, slots.T))
    M._transposed._transposed = M
    return M


def _slot_words(f: FieldSpec, slots) -> list:
    """The packed words of the rows of a 2-D array of slots over f, the
    inverse of :func:`_slot_array`.  The rows are padded with zero slots to
    whole u8 words, so that over GF(2) one ``packbits`` of the flat array
    packs them all."""
    rows, n = slots.shape
    s = _slot(f)
    per = 64 // s  # slots per u8 word
    width = -(-n // per)
    padded = np.zeros((rows, width * per), "<u2" if s == 16 else np.uint8)
    padded[:, :n] = slots
    raw = np.packbits(padded.reshape(-1), bitorder="little") if s == 1 else padded
    return _u64_words(raw.view("<u8").reshape(rows, width))


class FieldMatrix:
    """Immutable rows x cols matrix over a finite field, one packed word per
    row.  ``packed_rows=`` takes rows over any field of characteristic 2;
    the rows are ORed together and checked once.
    Being immutable, a matrix keeps its transpose, its row multiples, the
    table of their negatives, its reversed rows and its reduction once
    computed.
    """

    __slots__ = ("field", "rows", "cols", "packed_rows", "_transposed", "_multiples",
                 "_table", "_reduced", "_rev")

    def __init__(self, field: FieldSpec, entries=None, *, cols=None, packed_rows=None):
        self.field = field
        if packed_rows is not None:
            if field.p != 2:
                raise ValueError("packed rows are only valid in characteristic 2")
            if cols is None:
                raise ValueError("packed construction requires cols")
            rows = tuple(packed_rows)
            if reduce(or_, rows, 0) & ~_valid_bits(field, cols):  # a negative row fails too
                raise ValueError("packed row has bits outside its cols slots of m bits")
        else:
            grid = [[int(e) for e in row] for row in entries]
            cols = len(grid[0]) if grid else (cols or 0)
            for row in grid:
                if len(row) != cols:
                    raise ValueError("ragged rows")
            rows = _pack_rows(field, grid)
        self.rows = len(rows)
        self.cols = cols
        self.packed_rows = rows
        self._transposed = self._multiples = self._table = self._reduced = self._rev = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FieldMatrix":
        s = _slot(field)
        return _mat(field, n, [1 << (s * i) for i in range(n)])

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "FieldMatrix":
        return _mat(field, cols, [0] * rows)

    # -- accessors ------------------------------------------------------------

    @property
    def row_entries(self):
        """Rows as tuples of canonical entries; None over GF(2)."""
        if self.field.q == 2:
            return None
        return tuple(_unpack(self.field, r, self.cols) for r in self.packed_rows)

    def row(self, i: int) -> FieldVector:
        return _vec(self.field, self.cols, self.packed_rows[i])

    def to_grid(self) -> list[list[int]]:
        return [list(_unpack(self.field, r, self.cols)) for r in self.packed_rows]

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.packed_rows == other.packed_rows
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.packed_rows))

    def __repr__(self):
        return f"FieldMatrix({self.field!r}, {self.rows}x{self.cols})"

    # -- products -------------------------------------------------------------

    def transpose(self) -> "FieldMatrix":
        """The transpose, computed on the first call and kept; it keeps
        this matrix as its own transpose."""
        if self._transposed is None:
            self._transposed = self._transpose()
            self._transposed._transposed = self
        return self._transposed

    def _transpose(self) -> "FieldMatrix":
        """One numpy transpose of the array of slots (:func:`_slot_array`),
        over GF(2) one bit per entry; ints go in and come out."""
        f = self.field
        if not (self.rows and self.cols):
            return FieldMatrix.zeros(f, self.cols, self.rows)
        return _mat(f, self.rows, _slot_words(f, _slot_array(f, self.packed_rows, self.cols).T))

    def scale(self, c: int) -> "FieldMatrix":
        """Every entry times the field element c."""
        f = self.field
        f.check_element(c)
        if f.q == 2:
            return self if c else FieldMatrix.zeros(f, self.rows, self.cols)
        # all rows at once, as one word of rows * cols slots
        nbytes = self.cols * _slot(f) // 8
        word = int.from_bytes(_join_rows(self.packed_rows, nbytes), "little")
        word = word_arithmetic(f, self.rows * self.cols).combine(((c, word),))
        raw = word.to_bytes(self.rows * nbytes, "little")
        return _mat(f, self.cols, _split_rows(raw, nbytes, self.rows))

    def row_multiples(self) -> list:
        """For each row w, the packed words c*w for c = 0 .. q-1 (list
        index c), computed on the first call and kept (callers must not
        modify the lists)."""
        if self._multiples is None:
            ar = word_arithmetic(self.field, self.cols)
            self._multiples = [ar.multiples(r) for r in self.packed_rows]
        return self._multiples

    def multiples_table(self) -> dict:
        """The words -v*row j, v != 0, each mapped to its entry index
        j*(q - 1) + v - 1; where words repeat (zero and proportional rows)
        every word maps to the ascending list of its entries instead.
        Computed on the first call and kept (callers must not modify it)."""
        if self._table is None:
            f = self.field
            negs = [f.neg(v) for v in range(1, f.q)]  # -v = v in characteristic 2
            keys = [mult[v] for mult in self.row_multiples() for v in negs]
            table = dict(zip(keys, range(len(keys))))
            if len(table) < len(keys):
                table = {}
                for i, key in enumerate(keys):
                    table.setdefault(key, []).append(i)
            self._table = table
        return self._table

    def reversed_rows(self) -> list:
        """Each row with its slot order reversed (``_reversed``), the form
        in which :class:`RowReduction` packs the M part, computed on the
        first call and kept (callers must not modify the list).
        :func:`permuted_rows` and :func:`concat_cols` derive their result's
        from their operands' kept ones."""
        if self._rev is None:
            f, n = self.field, self.cols
            self._rev = [_reversed(f, r, n) for r in self.packed_rows]
        return self._rev

    def reduction(self) -> "RowReduction":
        """The :class:`RowReduction` of [M | I], computed on the first call
        and kept."""
        if self._reduced is None:
            self._reduced = RowReduction(self)
        return self._reduced

    def row_scalars(self, v: FieldVector) -> list:
        """The pairs (j, c), c != 0, with c*row j = v, in (j, c) order.  A
        non-zero row has at most one such c, fixed by one division at its
        first non-zero entry; a zero row has every c when v = 0 and none
        otherwise."""
        f, n = self.field, self.cols
        s = _slot(f)
        mask, t = (1 << s) - 1, v.packed
        out = []
        for j, w in enumerate(self.packed_rows):
            if not w:
                if not t:
                    out += [(j, c) for c in range(1, f.q)]
                continue
            at = ((w & -w).bit_length() - 1) // s * s
            c = f.div((t >> at) & mask, (w >> at) & mask)
            if c and _vec(f, n, w).scale(c).packed == t:
                out.append((j, c))
        return out

    def mat_vec(self, v: FieldVector) -> FieldVector:
        _check_same_field(self, v)
        if v.n != self.cols:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} times length {v.n}")
        f = self.field
        # the columns (the rows of the kept transpose) weighted by the entries
        # of v: over GF(2) the XOR of those that v's set bits select
        cols = self.transpose().packed_rows
        if f.q == 2:
            out, vb = 0, v.packed
            while vb:
                low = vb & -vb
                out ^= cols[low.bit_length() - 1]
                vb ^= low
            return _vec(f, self.rows, out)
        return _vec(f, self.rows, word_arithmetic(f, self.rows).combine(zip(v.entries, cols)))

    def mat_mul(self, other: "FieldMatrix") -> "FieldMatrix":
        _check_same_field(self, other)
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        f = self.field
        if f.q == 2:
            left, inner, cols = self.packed_rows, self.cols, other.cols
            if not (left and inner and cols):
                return FieldMatrix.zeros(f, self.rows, cols)
            right = _u64_rows(other.packed_rows, cols)
            return _mat(f, cols, _gf2_product(_gf2_picks(left, inner), _gf2_tables(right)))
        # row i of the product weights the rows of other by row i of self
        ar = word_arithmetic(f, other.cols)
        orows = other.packed_rows
        return _mat(f, other.cols, [ar.combine(zip(_unpack(f, r, self.cols), orows))
                                    for r in self.packed_rows])

    def __matmul__(self, other):
        if isinstance(other, FieldVector):
            return self.mat_vec(other)
        if isinstance(other, FieldMatrix):
            return self.mat_mul(other)
        return NotImplemented


def _gf2_picks(left, inner: int):
    """The left half of :func:`_gf2_product`: for packed GF(2) rows of
    length inner, the (ceil(inner / 8), len(left)) array whose entry
    (c, i) is the row of the flattened tables that byte c of left row i
    picks, byte value * ceil(inner / 8) + c."""
    nbytes = (inner + 7) // 8
    return _byte_array(left, nbytes).T.astype(np.intp) * nbytes + np.arange(nbytes)[:, None]


def _gf2_tables(right):
    """The right half of :func:`_gf2_product`: for the right factor as an
    (inner, width) array of u8 words, the tables of all 256 sums of each 8
    consecutive rows, flattened so that row v * ceil(inner / 8) + c is the
    sum of the rows 8c + i, i in v.  All tables are built at once, entry v
    of every table side by side, by doubling."""
    inner, width = right.shape
    nbytes = (inner + 7) // 8
    rows = np.zeros((8 * nbytes, width), np.uint64)
    rows[:inner] = right
    rows = rows.reshape(nbytes, 8, width).transpose(1, 0, 2)  # rows[i, c] is row 8c + i
    sums = np.zeros((256, nbytes, width), np.uint64)  # sums[v, c]: the rows 8c + i, i in v
    for i in range(8):
        np.bitwise_xor(sums[:1 << i], rows[i], out=sums[1 << i:2 << i])
    return sums.reshape(256 * nbytes, width)


def _gf2_product(picks, tables) -> list:
    """The GF(2) product of a left factor, by its picks (:func:`_gf2_picks`),
    and a right factor, by its tables (:func:`_gf2_tables`), as packed rows:
    the method of Four Russians (Arlazarov, Dinic, Kronrod and Faradzev,
    1970) in numpy.  Row i of the product is the XOR, over the bytes c of
    left row i, of entry (byte c) of table c; all picks are one ``take``.
    Either half can be kept where its factor is fixed, as
    :meth:`RowReduction.doubled` keeps the left one.  No float arithmetic
    and no BLAS call."""
    return _u64_words(np.bitwise_xor.reduce(np.take(tables, picks, axis=0), axis=0))


def concat_cols(A: FieldMatrix, B: FieldMatrix) -> FieldMatrix:
    """Column-block concatenation (A|B).  When A and B both keep their
    reversed rows, so does (A|B): rev(A|B) = rev B | rev A << s*cols(B)."""
    _check_same_field(A, B)
    if A.rows != B.rows:
        raise ValueError(f"row mismatch: {A.rows} vs {B.rows}")
    s = _slot(A.field)
    width_a, width_b = s * A.cols, s * B.cols
    out = _mat(A.field, A.cols + B.cols,
               [a | (b << width_a) for a, b in zip(A.packed_rows, B.packed_rows)])
    if A._rev is not None and B._rev is not None:
        out._rev = [b | (a << width_b) for a, b in zip(A._rev, B._rev)]
    return out


def permuted_rows(M: FieldMatrix, index_map) -> FieldMatrix:
    """Matrix whose row i is row index_map[i] of M; it keeps its reversed
    rows, picked the same way, when M keeps M's."""
    if len(index_map) != M.rows:
        raise ValueError("index map length must equal row count")
    out = _mat(M.field, M.cols, [M.packed_rows[j] for j in index_map])
    if M._rev is not None:
        out._rev = [M._rev[j] for j in index_map]
    return out


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _reduce(words, ncols: int, ar, f: FieldSpec):
    """Reduce packed rows over f in one forward pass, inserting one row at
    a time.

    Only the first ``ncols`` slots are pivoted on; the others (the I part
    of an augmented [M | I]) ride along.  The pivot slots hold the columns
    of M in reverse order, column 0 in the highest (the order
    :class:`RowReduction` packs them in), so a row's lowest non-zero
    column is its highest set slot, found by one ``bit_length``.
    A new row is reduced against the echelon row at that slot until it has
    none.  An echelon row is 1 at its pivot and zero in every later column
    but is not cleared in earlier ones, so each step moves that highest
    slot down.  A row left non-zero is scaled to 1 at its highest slot and
    becomes the echelon row there.  A step subtracts c times an echelon
    row: over GF(2) one XOR, in characteristic 2 otherwise the XOR of the
    row's x-powers that the bits of c select (kept once per row), in odd
    characteristic one ``minus``.  Returns a list indexed by the first bit
    of each pivot slot (the echelon row pivoting there, or 0) and the high
    parts of the rows that became zero.
    """
    s, char2 = ar.s, f.p == 2
    mask, split, align = (1 << s) - 1, s * ncols, -s
    low = (1 << split) - 1
    pivots = [0] * split
    powers = {}
    pmask = 0
    zero = []
    for a in words:
        m = a & pmask
        if s == 1:
            while m:
                a ^= pivots[m.bit_length() - 1]
                m = a & pmask
        else:
            while m:
                at = (m.bit_length() - 1) & align
                c = (a >> at) & mask
                if char2:
                    pw = powers[at]
                    while c:
                        bit = c & -c
                        a ^= pw[bit.bit_length() - 1]
                        c ^= bit
                else:
                    a = ar.minus(a, ((c, pivots[at]),))
                m = a & pmask
        g = a & low
        if not g:
            zero.append(a >> split)
            continue
        at = (g.bit_length() - 1) & align
        if s > 1:  # a GF(2) pivot is 1 already and its only x-power is itself
            if (lead := (a >> at) & mask) != 1:
                a = ar.combine(((f.inv(lead), a),))
            if char2:
                powers[at] = ar.x_powers(a)
        pivots[at] = a
        pmask |= mask << at
    return pivots, zero


class RowReduction:
    """One reduction of the rows of [M | I], pivoting on the M part only.

    ``left_kernel`` holds the I parts of the rows that became zero, a basis
    of {h : h M = 0}.  The pivot rows are left in echelon form, each
    (E | u) with E = u M, and are the only form kept: ``particular``,
    ``null_space`` and :func:`invert` each back-substitute over them.  The
    M part of every row is kept with its slot order reversed (column c in
    slot n - 1 - c, see ``_reduce``); it is reversed back where it leaves
    the reduction, in ``particular`` and ``null_space``.  A reduction that
    :meth:`doubled` read off may hold its rows in a permuted order of the
    equations; ``particular`` then gathers its right-hand side into that
    order, and ``left_kernel`` is always in the order of M's rows.
    """

    def __init__(self, M: FieldMatrix):
        self.field, self.cols = f, n = M.field, M.cols
        s = _slot(f)
        self._split = split = s * n
        self._ar = ar = word_arithmetic(f, n + M.rows)
        words = [r | 1 << (split + s * i) for i, r in enumerate(M.reversed_rows())]
        pivots, left = _reduce(words, n, ar, f)
        by_col = pivots[::s][::-1]
        self.pivot_cols = [c for c, row in enumerate(by_col) if row]
        self._rows = [row for row in by_col if row]
        self.left_kernel = _mat(f, M.rows, left)
        self._m_rows = M.reversed_rows()  # what doubled() multiplies by
        self._parent = None  # the reduction of [M | I] that doubled() read this one off
        self._frame = None   # the gather that takes a right-hand side to the rows' order

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @cached_property
    def _dot_rows(self) -> list:
        """Each echelon row (E | u) as (-E | u), in the form ``dot`` reads,
        for q > 2: its x-powers in characteristic 2, where -E = E, the word
        itself otherwise."""
        ar, low = self._ar, (1 << self._split) - 1
        if self.field.p == 2:
            return [ar.x_powers(r) for r in self._rows]
        return [ar.minus(r & ~low, ((1, r & low),)) for r in self._rows]

    def _back_substitute(self, z: int) -> int:
        """z holds y in the I part and the free variables in the M part.
        Set the pivot variables of M x = y in descending pivot order: the
        echelon row (E | u) of pivot c has E x = u y, and E is zero below c
        and 1 at c, so x_c is the dot product of (-E | u) with z, over GF(2)
        the parity of the row AND z.  The M part of z is reversed, as the
        rows' is."""
        s, last = _slot(self.field), self.cols - 1
        pivots = reversed(self.pivot_cols)
        if s == 1:
            for c, row in zip(pivots, reversed(self._rows)):
                if (row & z).bit_count() & 1:
                    z |= 1 << (last - c)
            return z
        dot = self._ar.dot
        for c, row in zip(pivots, reversed(self._dot_rows)):
            if d := dot(row, z):
                z |= d << (s * (last - c))
        return z

    def null_space(self) -> FieldMatrix:
        """Columns spanning {x : M x = 0}, one per free column in ascending
        order: 1 in the free column and 0 in the other free columns, each
        one back-substitution."""
        f, n = self.field, self.cols
        s = _slot(f)
        pivot_set = set(self.pivot_cols)
        free = [j for j in range(n) if j not in pivot_set]
        return _mat(f, n, [_reversed(f, self._back_substitute(1 << (s * (n - 1 - fc))), n)
                           for fc in free]).transpose()

    def particular(self, y: FieldVector) -> FieldVector:
        """The solution of M x = y with every free variable 0, one
        back-substitution; NoSolutionError if y is outside the column
        space.  On a reduction that :meth:`doubled` read off with a row
        map, y is first gathered into the order of its rows; with equal
        maps the solution is that of the reduction it was read off, padded
        with zeros: the second copy of M is free."""
        parent = self._parent
        if parent is None and (self.left_kernel @ y).weight():
            raise NoSolutionError("inconsistent linear system")
        if self._frame is not None:
            y = y.gathered(self._frame)
        f, n = self.field, self.cols
        if parent is not None:
            return _vec(f, n, parent.particular(y).packed)
        split = self._split
        x = self._back_substitute(y.packed << split) & ((1 << split) - 1)
        return _vec(f, n, _reversed(f, x, n))

    def doubled(self, first=None, second=None) -> "RowReduction":
        """The reduction of [M1 | M2 | I], M1 and M2 the rows of M picked by
        the index maps ``first`` and ``second`` (as :func:`permuted_rows`
        picks them; None keeps M), read off this one of [M | I].

        Put row j of [M1 | M2] at position first[j]: the rows become
        [M | Q M], with Q = second after the inverse of first, one gather
        of M's rows.  Each row (E | u) of this reduction, the left-kernel
        rows (0 | u) included, has u M = E, so (E | u Q M | u) is a row of
        [M | Q M | I]; the n products u Q M, by M's kept reversed rows,
        come out reversed as the stored rows hold them.  Over GF(2) they
        are one :func:`_gf2_product` whose left factor U, the u of every
        row, depends only on M: this reduction keeps U's picks and M's
        reversed rows as an array (``_product_operands``), so a pair pays
        for gathering Q M's rows, their tables, one ``take`` and one XOR
        reduce.  Over q > 2 they are one :meth:`FieldMatrix.mat_mul`.
        The echelon rows keep their pivots in the M part, and only the
        left-kernel rows (0 | u Q M | u) enter ``_reduce``, pivoting on
        the Q M part: those that become zero, with their entries gathered
        back by ``first``, are the new left kernel, which keeps its
        transpose, both packed from the one array of gathered slots.
        ``particular`` gathers its right-hand side the other way.  The pivot columns depend only on the row
        space, so the rank, ``pivot_cols``, ``particular`` and
        ``null_space`` are those of :class:`RowReduction` of [M1 | M2]
        itself; only the left kernel's basis may differ.  Equal maps give
        Q = I and u Q M = E: neither the product nor ``_reduce`` runs, and
        ``particular`` is this reduction's solution padded with zeros.
        With both maps None, ``pivot_cols`` and ``left_kernel`` are this
        reduction's own objects."""
        f, k, split = self.field, self.cols, self._split
        K = self.left_kernel
        n = K.cols
        for index in (first, second):
            if index is not None and len(index) != n:
                raise ValueError("index map length must equal row count")
        out = object.__new__(RowReduction)
        out.field, out.cols, out._split = f, 2 * k, 2 * split
        out._ar = word_arithmetic(f, 2 * k + n)
        out._m_rows = out._parent = out._frame = None
        if first is not None:
            out._frame = frame = [0] * n
            for j, t in enumerate(first):
                frame[t] = j
        low = (1 << split) - 1
        if first == second:
            out._parent, out.pivot_cols = self, self.pivot_cols
            out._rows = [(row & low) | row << split for row in self._rows]
            zero = K.packed_rows
        else:
            order = range(n) if first is None else out._frame
            if second is not None:
                order = [second[j] for j in order]
            if f.q == 2:
                left, m_rows = self._product_operands
                tails = _gf2_product(left, _gf2_tables(m_rows[order]))
            else:
                tails = (_mat(f, n, self._left_factor())
                         @ _mat(f, k, [self._m_rows[j] for j in order])).packed_rows
            kept, zero = _reduce([t | h << split for t, h in zip(tails[self.rank:], K.packed_rows)],
                                 k, word_arithmetic(f, k + n), f)
            by_col = kept[::_slot(f)][::-1]
            out.pivot_cols = self.pivot_cols + [k + c for c, row in enumerate(by_col) if row]
            out._rows = ([t | row << split for t, row in zip(tails, self._rows)]
                         + [(a & low) | (a >> split) << 2 * split for a in by_col if a])
        if first is None and second is None:
            out.left_kernel = K
        else:  # back in the order of M's rows, with its transpose
            slots = _slot_array(f, zero, n)
            out.left_kernel = _from_slots(f, slots if first is None else slots[:, first])
        return out

    def _left_factor(self) -> list:
        """The left factor U of the products u Q M that :meth:`doubled`
        takes: the I parts of the echelon rows, then the left kernel."""
        split = self._split
        return [row >> split for row in self._rows] + list(self.left_kernel.packed_rows)

    @cached_property
    def _product_operands(self):
        """What the GF(2) product of :meth:`doubled` keeps of its operands,
        which depend only on M: the picks (:func:`_gf2_picks`) of its left
        factor U, n x n, and M's reversed rows as an (n, width) array of u8
        words, read-only, of which each pair gathers its right factor Q M."""
        left = _gf2_picks(self._left_factor(), self.left_kernel.cols)
        left.flags.writeable = False
        return left, _u64_rows(self._m_rows, self.cols)


def rank(M: FieldMatrix) -> int:
    return M.reduction().rank


def kernel_basis(M: FieldMatrix) -> FieldMatrix:
    """Matrix whose columns form a basis of {x : M x = 0}.

    Width is cols(M) - rank(M); a full-rank square M yields a matrix with
    zero columns.
    """
    return M.reduction().null_space()


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
        weighted by the base-q digits of i (least significant first).  The
        walk steps from solution i to i + 1: each digit the carry moves
        from c to c + 1 (mod q) adds (c + 1)*v - c*v for its column v.
        Over GF(p) that is v itself, also on the wrap q - 1 -> 0; over
        GF(p^m) it is read off the column's multiples."""
        f = self.particular.field
        q, n = f.q, self.particular.n
        Kt = self.kernel.transpose()
        ar = word_arithmetic(f, n)
        if f.m == 1:
            steps = [[v] * q for v in Kt.packed_rows]
        else:
            steps = [[ar.minus(mult[(c + 1) % q], ((1, mult[c]),)) for c in range(q)]
                     for mult in Kt.row_multiples()]
        digits = [0] * len(steps)
        x = self.particular.packed
        yield _vec(f, n, x)
        for _ in range(self.count - 1):
            for j, c in enumerate(digits):
                x = ar.add(x, steps[j][c])
                digits[j] = c = (c + 1) % q
                if c:
                    break
            yield _vec(f, n, x)


def solve_affine(M: FieldMatrix, y: FieldVector) -> AffineSolutions:
    """All solutions of M x = y, or NoSolutionError if y is outside the
    column space."""
    _check_same_field(M, y)
    if y.n != M.rows:
        raise ValueError(f"dimension mismatch: {M.rows}x{M.cols} vs rhs length {y.n}")
    red = M.reduction()
    return AffineSolutions(red.particular(y), red.null_space())


def invert(M: FieldMatrix) -> FieldMatrix:
    """Inverse of a square full-rank matrix: column i solves M x = e_i, one
    back-substitution over the echelon rows of the kept reduction; the
    columns are packed as rows and transposed once."""
    if M.rows != M.cols:
        raise SingularMatrixError("only square matrices are invertible")
    red = M.reduction()
    if red.rank < M.rows:
        raise SingularMatrixError("matrix is singular")
    ident = FieldMatrix.identity(M.field, M.rows)
    return _mat(M.field, M.rows, [red.particular(ident.row(i)).packed
                                  for i in range(M.rows)]).transpose()
