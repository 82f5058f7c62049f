"""Public record-specific feature transforms.

Two families, both Hamming-distance preserving: bit permutations reorder
vector positions; field permutations relabel symbols coordinate-wise
through a bijection of the field.  Transforms are stored in records as
explicit index/value arrays (they are public data attached to the
record, not secrets), plus an identity variant.

Also here: the exhaustive oracles over tiny domains that count all
distance-preserving bijections of {0,1}^n (they are exactly the
permutation-plus-shift maps) and all affine bijections of small fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations as iter_permutations, product

from .fields import FieldSpec, json_ints
from .linalg import FieldMatrix, FieldVector, hamming_distance, permuted_rows, word_arithmetic

VARIANTS = ("identity", "bit-permutation", "field-permutation")


@dataclass(frozen=True)
class TransformDescriptor:
    """Serializable public transform attached to a record.  It keeps the
    inverse of its permutation or sigma once built."""

    kind: str
    n: int
    field: FieldSpec
    permutation: tuple | None = None
    sigma: tuple | None = None

    def __post_init__(self):
        if self.kind not in VARIANTS:
            raise ValueError(f"unknown transform variant {self.kind!r}")
        if self.kind == "bit-permutation":
            if self.permutation is None or sorted(self.permutation) != list(range(self.n)):
                raise ValueError("permutation must be a bijection on 0..n-1")
        elif self.kind == "field-permutation":
            if self.sigma is None or sorted(self.sigma) != list(range(self.field.q)):
                raise ValueError("sigma must be a bijection on the field")
        else:
            if self.permutation is not None or self.sigma is not None:
                raise ValueError("identity transform takes no tables")

    @cached_property
    def _inverse_table(self) -> tuple:
        return _inverse(self.permutation if self.kind == "bit-permutation" else self.sigma)

    def inverse_permutation(self) -> tuple:
        return self._inverse_table

    def to_json(self) -> dict:
        if self.kind == "bit-permutation":
            return {"type": "bit-permutation", "perm": list(self.permutation)}
        if self.kind == "field-permutation":
            return {"type": "field-permutation", "sigma": list(self.sigma)}
        return {"type": "identity"}


def transform_from_json(obj: dict, field: FieldSpec, n: int) -> TransformDescriptor:
    kind = obj.get("type")
    if kind == "identity":
        return TransformDescriptor("identity", n, field)
    if kind == "bit-permutation":
        return TransformDescriptor("bit-permutation", n, field,
                                   permutation=tuple(json_ints(obj["perm"], "perm")))
    if kind == "field-permutation":
        return TransformDescriptor("field-permutation", n, field,
                                   sigma=tuple(json_ints(obj["sigma"], "sigma")))
    raise ValueError(f"unknown transform type {kind!r}")


def identity_transform(field: FieldSpec, n: int) -> TransformDescriptor:
    return TransformDescriptor("identity", n, field)


def _inverse(table) -> tuple:
    """Inverse of a permutation given as its table of images."""
    inv = [0] * len(table)
    for i, p in enumerate(table):
        inv[p] = i
    return tuple(inv)


def _transform(T: TransformDescriptor, w: FieldVector, inverse: bool) -> FieldVector:
    if w.field != T.field or w.n != T.n:
        raise ValueError("vector does not match transform domain")
    if T.kind == "identity":
        return w
    if T.kind == "field-permutation":
        return w.relabeled(T._inverse_table if inverse else T.sigma)
    return w.gathered(T._inverse_table if inverse else T.permutation)


def apply(T: TransformDescriptor, w: FieldVector) -> FieldVector:
    """Transformed vector; for a bit permutation entry i of the output is
    entry permutation[i] of the input (the matrix form P w)."""
    return _transform(T, w, inverse=False)


def apply_inverse(T: TransformDescriptor, v: FieldVector) -> FieldVector:
    return _transform(T, v, inverse=True)


def as_matrix(T: TransformDescriptor) -> FieldMatrix:
    """Permutation matrix P with P w = apply(T, w); only bit permutations
    (and the identity) are linear maps with a matrix form."""
    if T.kind == "identity":
        return FieldMatrix.identity(T.field, T.n)
    if T.kind != "bit-permutation":
        raise ValueError("field permutations are non-linear and have no matrix form")
    return permuted_rows(FieldMatrix.identity(T.field, T.n), T.permutation)


def random_transform(kind: str, n: int, field: FieldSpec, rng) -> TransformDescriptor:
    """Uniform draw from the respective symmetric group."""
    if kind == "identity":
        return identity_transform(field, n)
    if kind == "bit-permutation":
        return TransformDescriptor(kind, n, field,
                                   permutation=tuple(int(i) for i in rng.permutation(n)))
    if kind == "field-permutation":
        return TransformDescriptor(kind, n, field,
                                   sigma=tuple(int(i) for i in rng.permutation(field.q)))
    raise ValueError(f"unknown transform variant {kind!r}")


# ---------------------------------------------------------------------------
# affine structure of a field bijection
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _field_line(field: FieldSpec):
    """The vector (0, 1, ..., q-1), the word of (1, ..., 1) and the word
    arithmetic of their length q."""
    q = field.q
    return FieldVector(field, range(q)), FieldVector(field, (1,) * q).packed, word_arithmetic(field, q)


def detect_affine(sigma, field: FieldSpec):
    """(a, b) with sigma(x) = a*x + b for all x, or None.

    The only possible pair is a = sigma(1) - sigma(0), b = sigma(0); it is
    verified on the whole field at once: the packed word of sigma, which is
    (0, 1, ..., q-1) relabeled through sigma, against a*(0, 1, ..., q-1) +
    b*(1, ..., 1).
    """
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(field.q)):
        raise ValueError("sigma must be a bijection on the field")
    b = sigma[0]
    a = field.sub(sigma[1], b)
    if a == 0:
        return None
    elements, ones, ar = _field_line(field)
    line = ar.combine(((a, elements.packed), (b, ones)))
    return (a, b) if line == elements.relabeled(sigma).packed else None


# ---------------------------------------------------------------------------
# exhaustive oracles on tiny domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistancePreservingMap:
    """A bijection of {0,1}^n preserving Hamming distance, with its
    decomposition into a position permutation followed by a constant
    XOR shift (the image of zero)."""

    n: int
    table: tuple          # image of mask v at index v
    permutation: tuple    # output bit i takes input bit permutation[i]
    shift: int            # table[0]

    def __call__(self, mask: int) -> int:
        return self.table[mask]


def enumerate_distance_preserving_bijections(n: int) -> list[DistancePreservingMap]:
    """All Hamming-distance-preserving bijections of {0,1}^n, by scanning
    every one of the (2^n)! bijections.  Each returned map is decomposed
    as permutation-then-shift and the decomposition is re-verified on the
    full domain.  n <= 3 keeps the scan at 8! = 40320 candidates."""
    if not 1 <= n <= 3:
        raise ValueError("exhaustive bijection scan supports n in 1..3")
    size = 1 << n
    dist = [[(i ^ j).bit_count() for j in range(size)] for i in range(size)]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    out = []
    for table in iter_permutations(range(size)):
        ok = True
        for i, j in pairs:
            if dist[table[i]][table[j]] != dist[i][j]:
                ok = False
                break
        if not ok:
            continue
        shift = table[0]
        # centered map: unit vectors must land on unit vectors
        perm = [0] * n
        valid = True
        for i in range(n):
            img = table[1 << i] ^ shift
            if img.bit_count() != 1:
                valid = False
                break
            perm[i] = img.bit_length() - 1
        if valid:
            pm = _inverse(perm)
            # verify the decomposition everywhere
            for v in range(size):
                acc = 0
                for i in range(n):
                    acc |= ((v >> pm[i]) & 1) << i
                if acc ^ shift != table[v]:
                    valid = False
                    break
        if not valid:
            raise AssertionError(
                "distance-preserving bijection without permutation-shift decomposition")
        out.append(DistancePreservingMap(n, table, pm, shift))
    return out


def check_distance_preserving(fn, field: FieldSpec, n: int):
    """Exhaustive distance-preservation check of an arbitrary total map
    F^n -> F^n over every pair of the q^n <= 4096 vectors; larger domains
    raise ValueError before fn is called.

    Returns (True, None) or (False, (v1, v2)) with a witness pair.
    """
    if field.q ** n > 4096:
        raise ValueError(f"exhaustive check needs q^n <= 4096, got {field.q}^{n}")
    # in the order of the integers whose base-q digits they are
    vectors = [FieldVector(field, entries[::-1]) for entries in product(range(field.q), repeat=n)]
    for i, v1 in enumerate(vectors):
        for v2 in vectors[i + 1:]:
            if hamming_distance(fn(v1), fn(v2)) != hamming_distance(v1, v2):
                return False, (v1, v2)
    return True, None
