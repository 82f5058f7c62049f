"""Exact arithmetic over finite fields GF(p^m) with p^m <= 2^16.

Elements are canonical integers in [0, q).  For prime fields the integer
is the residue itself; for extension fields its base-p digits are the
coefficients of the polynomial representative (digit i = coefficient of
x^i, so for p = 2 the usual bit encoding).  Extension-field products go
through precomputed log/antilog tables built on a fixed generator.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, product
from operator import mul, xor

MAX_ORDER = 1 << 16

# Primitive polynomials over GF(2), bit i = coefficient of x^i.
# Fixed so that serialized records are reproducible across builds.
_PRIMITIVE_POLY_GF2 = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over GF(p), coefficients as ascending tuples
# ---------------------------------------------------------------------------

def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mul(a, b, p):
    """The product of two trimmed polynomials, trimmed: over GF(p) two
    non-zero leading coefficients have a non-zero product."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _poly_mod(a, mod, p):
    """The remainder of a divided by mod, by long division."""
    dm = len(mod) - 1
    if len(a) <= dm:
        return _poly_trim(a)
    a = list(a)
    inv_lead = pow(mod[-1], p - 2, p)
    for top in range(len(a) - 1, dm - 1, -1):
        if coef := a[top] * inv_lead % p:
            shift = top - dm
            for i, mi in enumerate(mod):
                a[shift + i] = (a[shift + i] - coef * mi) % p
    return _poly_trim(a[:dm])


def _poly_powmod(a, e, mod, p):
    """a^e modulo mod, by square-and-multiply from the top bit of e: every
    multiplication is by a itself, which is short when a is x."""
    base = _poly_mod(a, mod, p)
    result = base if e else (1,)
    for bit in f"{e:b}"[1:]:
        result = _poly_mod(_poly_mul(result, result, p), mod, p)
        if bit == "1":
            result = _poly_mod(_poly_mul(result, base, p), mod, p)
    return result


def _polys(p: int, m: int):
    """Every polynomial over GF(p) of degree < m as its m coefficients,
    lowest first, in the order of the integers whose base-p digits they
    are (lowest coefficient fastest)."""
    return (c[::-1] for c in product(range(p), repeat=m))


def _generates(g, mod, p: int) -> bool:
    """True when g has order p^m - 1 modulo mod of degree m: g^((p^m - 1)/r)
    != 1 for every prime r dividing p^m - 1 (the test most candidates fail)
    and g^(p^m - 1) = 1."""
    order = p ** (len(mod) - 1) - 1
    return (all(_poly_powmod(g, order // r, mod, p) != (1,) for r in _prime_factors(order))
            and _poly_powmod(g, order, mod, p) == (1,))


def is_irreducible(poly, p: int) -> bool:
    """Trial division of a monic polynomial by all monic polynomials of
    degree <= deg/2."""
    poly = _poly_trim(poly)
    deg = len(poly) - 1
    return deg >= 1 and all(_poly_mod(poly, low + (1,), p)
                            for d in range(1, deg // 2 + 1) for low in _polys(p, d))


def is_primitive(poly, p: int) -> bool:
    """True when x generates the multiplicative group of GF(p)[x]/(poly)."""
    poly = _poly_trim(poly)
    return is_irreducible(poly, p) and _generates((0, 1), poly, p)


def default_modulus(p: int, m: int):
    """Fixed primitive modulus for GF(p^m); deterministic across builds.

    GF(2^m) uses the published table above; other characteristics pick the
    lexicographically first monic primitive polynomial.
    """
    if m == 1:
        return None
    if p == 2:
        mask = _PRIMITIVE_POLY_GF2.get(m)
        if mask is None:
            raise ValueError(f"no default modulus for GF(2^{m})")
        return tuple((mask >> i) & 1 for i in range(m + 1))
    for low in _polys(p, m):
        if is_primitive(low + (1,), p):
            return low + (1,)
    raise ValueError(f"no primitive polynomial found for GF({p}^{m})")


class FieldSpec:
    """A finite field GF(p^m) with canonical integer element encoding.

    Do not instantiate directly; use :func:`field` so equal fields are
    shared and their tables built once.
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log", "_mul_rows")

    def __init__(self, p: int, m: int, modulus=None):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        # bound p and m before the primality test and the power, which a
        # hostile record could otherwise make arbitrarily slow
        if p > MAX_ORDER or m >= MAX_ORDER.bit_length() or p ** m > MAX_ORDER:
            raise ValueError(f"field order {p}^{m} exceeds supported maximum {MAX_ORDER}")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        q = p ** m
        self.p = p
        self.m = m
        self.q = q
        self._mul_rows = None
        if m == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            self.modulus = None
            self._exp = self._log = None
        else:
            modulus = _poly_trim(modulus) if modulus is not None else default_modulus(p, m)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if any(not (0 <= c < p) for c in modulus):
                raise ValueError("modulus coefficients must be canonical in GF(p)")
            if not is_irreducible(modulus, p):
                raise ValueError("modulus polynomial is not irreducible")
            self.modulus = tuple(modulus)
            self._build_tables()

    def _build_tables(self):
        p, m, q, mod = self.p, self.m, self.q, self.modulus
        # the first generator of the multiplicative group in integer order,
        # from x = p up: the default moduli are primitive, so normally x;
        # one exists because __init__ accepted the modulus as irreducible
        gen = next(_poly_trim(g) for g in islice(_polys(p, m), p, None) if _generates(g, mod, p))
        place = [p ** i for i in range(m)]
        powers = [1]
        if gen == (0, 1):
            # x^(i+1) = x * x^i on the integers: times p shifts the digits up
            # one place, and a digit t carried out past x^(m-1) is t*x^m,
            # which the monic modulus makes minus t times its lower digits
            wrap = [sum(((-t * c) % p) * e for c, e in zip(mod, place)) for t in range(p)]
            add = xor if p == 2 else self.add
            a = 1
            for _ in range(q - 2):
                t, a = divmod(a * p, q)
                if t:
                    a = add(a, wrap[t])
                powers.append(a)
        else:
            acc = (1,)
            for _ in range(q - 2):
                acc = _poly_mod(_poly_mul(acc, gen, p), mod, p)
                powers.append(sum(map(mul, acc, place)))
        log = [0] * q
        for i, a in enumerate(powers):
            log[a] = i
        self._exp = powers * 2
        self._log = log

    # -- element arithmetic ---------------------------------------------------

    def check_element(self, a: int) -> int:
        if not (0 <= a < self.q):
            raise ValueError(f"{a} is not a canonical element of GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        # digit by digit, not through _polys: coefficient tuples made this 2.5-3.5x slower
        out = 0
        mult = 1
        p = self.p
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self.mul(a, self.p - 1)  # -1 is the constant p - 1

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.m == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


@lru_cache(maxsize=None)
def _cached_field(p: int, m: int, modulus) -> FieldSpec:
    return FieldSpec(p, m, modulus)


def field(p: int, m: int = 1, modulus=None) -> FieldSpec:
    """Shared FieldSpec factory; equal parameters return the same object."""
    if modulus is not None:
        modulus = _poly_trim(tuple(modulus))
    return _cached_field(p, m, modulus)


def json_ints(values, what: str) -> list:
    """A JSON array's values, refused with ValueError unless every one is a
    JSON integer: a float, bool or numeric string is never rewritten."""
    out = list(values)
    if bad := [x for x in out if type(x) is not int]:
        raise ValueError(f"{what} must be JSON integers, got {bad[0]!r}")
    return out


def field_to_json(f: FieldSpec) -> dict:
    """The descriptor {"p", "m"[, "modulus"]} of f in records and inline codes."""
    desc = {"p": f.p, "m": f.m}
    if f.modulus is not None:
        desc["modulus"] = list(f.modulus)
    return desc


def field_from_json(desc) -> FieldSpec:
    """Inverse of :func:`field_to_json` (m defaults to 1); ValueError unless
    p, m and the modulus coefficients are JSON integers."""
    p, m = json_ints((desc["p"], desc.get("m", 1)), "field p and m")
    modulus = json_ints(desc["modulus"], "modulus coefficients") if "modulus" in desc else None
    return field(p, m, modulus)


GF2 = field(2)


def exp_log_tables(f: FieldSpec):
    """Antilog/log tables of an extension field (for table-driven decoders).

    The antilog table is doubled in length so that two raw logs can be
    added without a reduction mod q-1.
    """
    if f.m == 1:
        raise ValueError("log tables exist only for extension fields")
    return f._exp, f._log


def mul_rows(f: FieldSpec) -> list:
    """The multiply-by-c tables of GF(2^m), 2 <= m <= 8, indexed by log c:
    row k is a 256-byte ``bytes.translate`` table that maps each x < q to
    alpha^k x (and the unused bytes x >= q to 0), so one translate
    multiplies a packed word, one byte per element, by alpha^k.

    Built once per field, on first use, by chaining translates: row k is
    row k-1 translated through row 1.  q - 1 rows of 256 bytes, 64 KB at
    GF(2^8).
    """
    if f._mul_rows is None:
        if f.p != 2 or not 2 <= f.m <= 8:
            raise ValueError("multiply-by-c rows exist only for GF(2^m), 2 <= m <= 8")
        pad = bytes(256 - f.q)
        by_alpha = bytes(f.mul(f._exp[1], x) for x in range(f.q)) + pad
        rows = [bytes(range(f.q)) + pad]
        for _ in range(f.q - 2):
            rows.append(rows[-1].translate(by_alpha))
        f._mul_rows = rows
    return f._mul_rows
