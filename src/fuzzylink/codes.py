"""Linear error-correcting codes with bounded-distance decoding.

Two constructions: narrow-sense primitive binary BCH codes built from
design parameters (m, t), and generic codes over any supported field from
a user-supplied generator matrix.  The generator convention is G in
F^(n x k) with codewords G.m (message on the right).

BCH codes decode algebraically on packed GF(2^m) words, one byte per
element: the syndromes are one XOR of table entries per 4-bit chunk of
the word, and Berlekamp-Massey and the Chien search work in whole-word
steps, each a ``bytes.translate`` through a multiply-by-c row of
:func:`~fuzzylink.fields.mul_rows`, a shift and an XOR.  The zero bytes
of the Chien values are the error positions.  Generic codes scan error
patterns.
Decoding is strictly bounded-distance: a codeword is returned only when
it lies within radius t = floor((d-1)/2) of the input, never farther,
even when the error-locator polynomial happens to factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import getitem, xor

from .fields import (FieldSpec, GF2, _poly_mul, exp_log_tables, field, field_from_json,
                     field_to_json, json_ints, mul_rows)
from .linalg import FieldMatrix, FieldVector, random_vector


@dataclass(frozen=True)
class BCHParams:
    """Design parameters of a narrow-sense primitive binary BCH code."""

    m: int
    t: int
    generator_polynomial: tuple  # ascending GF(2) coefficients


class LinearCode:
    """An (n, k, d) linear code with n x k generator G, check matrix H and a
    bounded-distance decoder: "bch-algebraic" for a BCH code (``bch`` set),
    "exhaustive-bounded" otherwise.

    d is the designed distance for BCH codes (the true minimal distance
    may be larger); only the decoding radius t = (d-1)//2 is relied on.

    H is the left kernel of the reduction of [G | I_n], which G keeps
    (:meth:`~fuzzylink.linalg.FieldMatrix.reduction`), so H G = 0 by
    construction; only the rank of G is checked.  Attacks whose
    two blocks are G read theirs off it with no further elimination.

    A BCH code also keeps, with alpha the primitive element, the 2t x n
    syndrome matrix V[i][j] = alpha^((i+1)j) over GF(2^m) and the t+1
    columns of the n x (t+1) Chien matrix C[j][l] = alpha^(-jl) as n-byte
    strings, so that the syndromes of a word v are V v and
    sigma(alpha^-j) = (C sigma)[j].  It reads V v off its syndrome tables,
    one per 4-bit chunk of the word, highest chunk first: entry e of a
    chunk is the packed 2t-slot word of the sum of the columns of V at the
    chunk's positions set in e.
    """

    __slots__ = ("field", "n", "k", "d", "G", "H", "bch", "_syndrome_matrix", "_chien_columns",
                 "_syndrome_tables")

    def __init__(self, G: FieldMatrix, d: int, bch: BCHParams | None = None):
        self.field = G.field
        self.n = n = G.rows
        self.k = k = G.cols
        self.d = d
        self.G = G
        red = G.reduction()
        self.H = red.left_kernel
        self.bch = bch
        if red.rank != k:
            raise ValueError("generator matrix must have full column rank k")
        if bch is None:
            self._syndrome_matrix = self._chien_columns = self._syndrome_tables = None
            return
        f2m = field(2, bch.m)
        exp = bytes(exp_log_tables(f2m)[0][:n])

        def powers(step):
            # alpha^(step*j), j < n, one byte each: every step-th byte of
            # step copies of the antilog table
            return (exp * step)[::step]

        self._syndrome_matrix = FieldMatrix(
            f2m, cols=n, packed_rows=[int.from_bytes(powers(i), "little")
                                      for i in range(1, 2 * bch.t + 1)])
        # column l of C holds alpha^((n - l)j) = alpha^(-jl)
        self._chien_columns = tuple(powers(n - l) for l in range(bch.t + 1))
        # the columns of V, padded with zero columns to a multiple of 4
        cols = list(self._syndrome_matrix.transpose().packed_rows) + [0] * (-n % 4)
        tables = []
        for c in range(len(cols) - 4, -1, -4):
            table = [0]
            for col in cols[c:c + 4]:
                table += [e ^ col for e in table]
            tables.append(table)
        self._syndrome_tables = tables

    @property
    def decoder(self) -> str:
        return "exhaustive-bounded" if self.bch is None else "bch-algebraic"

    @property
    def t(self) -> int:
        return (self.d - 1) // 2

    def __repr__(self):
        return f"LinearCode({self.field!r}, n={self.n}, k={self.k}, d={self.d})"


# ---------------------------------------------------------------------------
# BCH construction
# ---------------------------------------------------------------------------

def _cyclotomic_coset(s: int, n: int) -> tuple:
    out = []
    c = s % n
    while c not in out:
        out.append(c)
        c = (2 * c) % n
    return tuple(sorted(out))


def _minimal_polynomial(coset, f2m: FieldSpec):
    """prod over the coset of (x - alpha^i), computed in GF(2^m).  A
    cyclotomic coset is closed under squaring, so the product equals its
    own Frobenius image and its coefficients lie in GF(2)."""
    exp, _ = exp_log_tables(f2m)
    poly = [1]
    for i in coset:
        root = exp[i]
        nxt = [0] * (len(poly) + 1)
        for j, c in enumerate(poly):
            if c:
                nxt[j + 1] ^= c
                nxt[j] ^= f2m.mul(c, root)
        poly = nxt
    return tuple(poly)


@lru_cache(maxsize=None)
def bch_build(m: int, t: int) -> LinearCode:
    """Narrow-sense primitive binary BCH code of length n = 2^m - 1 that
    corrects t errors; reported d is the designed distance 2t + 1.

    The generator matrix columns are the shifts x^j * g(x) of the
    generator polynomial g = lcm of the minimal polynomials of
    alpha^1 .. alpha^2t; H is the left kernel of G.
    """
    if not 2 <= m <= 8:
        raise ValueError("supported extension degrees are 2..8")
    if t < 1:
        raise ValueError("t must be >= 1")
    n = (1 << m) - 1
    if 2 * t >= n:
        # s = n would add the root alpha^0 = 1 and leave k = 0; below it the
        # cosets of 1..2t miss 0, so g has degree below n and k >= 1
        raise ValueError(f"t={t} is too large for n={n}: degenerate code")
    f2m = field(2, m)
    seen = set()
    gen = (1,)
    for s in range(1, 2 * t + 1):
        coset = _cyclotomic_coset(s, n)
        if coset in seen:
            continue
        seen.add(coset)
        gen = _poly_mul(gen, _minimal_polynomial(coset, f2m), 2)
    k = n - (len(gen) - 1)
    # column j of G = coefficients of x^j g(x): transpose the shifted rows
    g_mask = FieldVector(GF2, gen).bits
    G = FieldMatrix(GF2, cols=n, packed_rows=[g_mask << j for j in range(k)]).transpose()
    params = BCHParams(m=m, t=t, generator_polynomial=gen)
    return LinearCode(G, 2 * t + 1, params)


def generic_code(G: FieldMatrix, d: int) -> LinearCode:
    """Code from a supplied generator matrix with exhaustive bounded-distance
    decoding (refused when its error-pattern scan exceeds the pattern
    budget)."""
    if d < 1:
        raise ValueError("distance must be >= 1")
    return LinearCode(G, d)


# ---------------------------------------------------------------------------
# encode / membership
# ---------------------------------------------------------------------------

def encode(code: LinearCode, msg: FieldVector) -> FieldVector:
    if msg.n != code.k:
        raise ValueError(f"message length {msg.n} != k = {code.k}")
    return code.G @ msg


def random_codeword(code: LinearCode, rng) -> FieldVector:
    return encode(code, random_vector(code.field, code.k, rng))


def is_codeword(code: LinearCode, v: FieldVector) -> bool:
    if v.n != code.n:
        raise ValueError(f"length {v.n} != block length {code.n}")
    return (code.H @ v).weight() == 0


# ---------------------------------------------------------------------------
# bounded-distance decoding
# ---------------------------------------------------------------------------

def _berlekamp_massey(synd, f2m: FieldSpec):
    """Minimal LFSR (error-locator polynomial) for the syndrome sequence
    S_1 .. S_2t of a binary word, given as 2t bytes (Massey, "Shift-register
    synthesis and BCH decoding", 1969).

    Returns (sigma, L): sigma is the ascending coefficient list, sigma[0] =
    1, of exactly L + 1 coefficients, the top ones possibly 0 (an update
    adds c x^shift prev, whose degree is at most the new L).  Binary
    syndromes have S_2j = S_j^2, so the discrepancy of every odd step i
    (the one that meets S_(i+1), i + 1 even) is 0 and the step only
    lengthens the shift (Berlekamp's binary simplification).

    Every step is whole-word, as in Sarwate and Shanbhag's reformulation
    (riBM, 2001): sigma is kept packed, one byte per coefficient, and with
    it A = sigma S mod x^2t, S = sum S_(i+1) x^i; prev and B = prev S are
    kept as bytes.  As sigma has L + 1 <= i + 1 coefficients at step i,
    the discrepancy of the step is byte i of A.  The update sigma += c
    x^shift prev is one translate of prev through the multiply-by-c row of
    :func:`~fuzzylink.fields.mul_rows`, a shift and an XOR, and A += c
    x^shift B the same on B, truncated to 2t bytes.
    """
    log, rows = f2m._log, mul_rows(f2m)
    t2 = len(synd)
    B = bytes(synd)
    A = int.from_bytes(B, "little")
    sigma, prev = 1, b"\x01"
    L = 0
    shift = 1
    log_b = 0
    for i in range(0, t2, 2):
        # each pass is an even step and the odd step after it
        delta = A >> 8 * i & 255
        if not delta:
            shift += 2
            continue
        # log c = log delta - log b mod q - 1: a negative index counts
        # from the end of the q - 1 rows
        row = rows[log[delta] - log_b]
        update = sigma ^ int.from_bytes(prev.translate(row), "little") << 8 * shift
        # shift <= i + 1 < 2t, so the slice keeps at least one byte
        A_update = A ^ int.from_bytes(B[:t2 - shift].translate(row), "little") << 8 * shift
        if 2 * L <= i:
            prev, B = sigma.to_bytes(L + 1, "little"), A.to_bytes(t2, "little")
            L = i + 1 - L
            log_b = log[delta]
            shift = 2
        else:
            shift += 2
        sigma, A = update, A_update
    return list(sigma.to_bytes(L + 1, "little")), L


_HEX_NIBBLES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _bch_syndromes(code: LinearCode, bits: int) -> int:
    """The packed word of S_i = v(alpha^i), i = 1..2t, of the GF(2) word
    with mask ``bits``: the XOR of one syndrome-table entry per 4-bit
    chunk, read off the word's hex digits (highest chunk first)."""
    tables = code._syndrome_tables
    chunks = format(bits, f"0{len(tables)}x").encode().translate(_HEX_NIBBLES)
    return reduce(xor, map(getitem, tables, chunks), 0)


def _chien_values(code: LinearCode, sigma) -> bytes:
    """sigma(alpha^-j), j < n, one byte each: the XOR, over the non-zero
    coefficients sigma_l, of column l of the Chien matrix translated
    through sigma_l's multiply-by-c row."""
    f2m = code._syndrome_matrix.field
    log, rows = f2m._log, mul_rows(f2m)
    values = 0
    for column, c in zip(code._chien_columns, sigma):
        if c:
            values ^= int.from_bytes(column.translate(rows[log[c]]), "little")
    return values.to_bytes(code.n, "little")


def _decode_bch(code: LinearCode, v: FieldVector):
    n, t = code.n, code.t
    synd = _bch_syndromes(code, v.bits)
    if not synd:
        return v
    sigma, L = _berlekamp_massey(synd.to_bytes(2 * t, "little"), code._syndrome_matrix.field)
    if L > t or len(sigma) - 1 > t:
        return None
    # Chien search: the error positions are the j with sigma(alpha^-j) = 0
    values = _chien_values(code, sigma)
    if values.count(0) != L:
        return None
    error, j = 0, -1
    for _ in range(L):
        j = values.find(0, j + 1)
        error |= 1 << j
    corrected = v.bits ^ error
    # strict bounded-distance semantics: accept only actual codewords, the
    # words whose syndromes S_1..S_2t all vanish (g is the lcm of the
    # minimal polynomials of alpha^1..alpha^2t)
    if _bch_syndromes(code, corrected):
        return None
    return FieldVector(code.field, n=n, bits=corrected)


def _decode_exhaustive(code: LinearCode, v: FieldVector):
    """Scan error patterns of weight <= t in weight order; return the first
    codeword hit.  A codeword is returned at once; any other word needs a
    scan within the pattern budget, else ResourceCapError before scanning.
    Usable on any code regardless of its configured decoder (serves as the
    reference decoder in tests)."""
    from .attacks import PATTERN_BUDGET, ResourceCapError, pattern_count, scan_syndrome_hits

    s = code.H @ v
    if not s.weight():
        return v
    total = pattern_count(code.field.q, code.n, code.t)
    if total > PATTERN_BUDGET:
        raise ResourceCapError(f"exhaustive decoding with t={code.t} scans up to {total} "
                               f"patterns (> {PATTERN_BUDGET})")
    hit = next(scan_syndrome_hits(code.H, s, code.t), None)
    if hit is None:
        return None
    e = hit.pattern(code.field, code.n)
    return v - e


def decode_bounded(code: LinearCode, v: FieldVector):
    """Unique codeword within radius t of v, or None when no codeword lies
    within the radius (or the locator polynomial is inconsistent)."""
    if v.n != code.n:
        raise ValueError(f"length {v.n} != block length {code.n}")
    if v.field != code.field:
        raise ValueError("field mismatch")
    if code.bch is not None:
        return _decode_bch(code, v)
    return _decode_exhaustive(code, v)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def bch_descriptor_params(desc: str) -> tuple[int, int]:
    """The n and t of the descriptor "bch:<n>:<t>".  Each must be spelled
    as a canonical ASCII decimal (digits only, no leading zero), so one
    code has one descriptor; anything else raises ValueError."""
    parts = desc.split(":")
    if (len(parts) != 3 or parts[0] != "bch"
            or not all(x.isascii() and x.isdigit() and x == str(int(x)) for x in parts[1:])):
        raise ValueError(f"unknown code descriptor {desc!r}; expected bch:<n>:<t>")
    return int(parts[1]), int(parts[2])


def parse_code_descriptor(desc) -> LinearCode:
    """Resolve a code descriptor: the string "bch:<n>:<t>" or an inline
    {"generator": row-major grid, "d": int, "field": {"p":..,"m":..}} mapping."""
    if isinstance(desc, str):
        n, t = bch_descriptor_params(desc)
        m = n.bit_length()
        if (1 << m) - 1 != n:
            raise ValueError(f"BCH block length must be 2^m - 1, got {n}")
        return bch_build(m, t)
    if isinstance(desc, dict):
        try:
            f = field_from_json(desc.get("field", {"p": 2, "m": 1}))
            G = FieldMatrix(f, [json_ints(row, "generator entries") for row in desc["generator"]])
            d, = json_ints([desc["d"]], "code distance d")
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed inline code ({type(exc).__name__}: {exc})") from None
        return generic_code(G, d)
    raise ValueError(f"unsupported code descriptor: {desc!r}")


def code_descriptor(code: LinearCode):
    """JSON-able descriptor: compact string for BCH codes, inline mapping
    for generic codes."""
    if code.bch is not None:
        return f"bch:{code.n}:{code.bch.t}"
    return {"field": field_to_json(code.field), "generator": code.G.to_grid(), "d": code.d}
