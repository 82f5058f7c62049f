"""The fuzzy commitment scheme: enrollment, verification, record format.

A record publishes f = c + T(w) for a random codeword c, a public
record-specific transform T and a secret feature vector w, optionally
binding c with a cryptographic digest.  Enrollment can additionally flip
a few positions of the transformed feature vector as enrollment-time
noise; the flip positions are secret and never stored, so noisy records
are schema-identical to plain ones.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

from .codes import (LinearCode, bch_descriptor_params, code_descriptor, decode_bounded,
                    parse_code_descriptor, random_codeword)
from .fields import FieldSpec, field_from_json, field_to_json, json_ints
from .linalg import _BIT_REVERSED, FieldVector
from .transforms import VARIANTS, TransformDescriptor, apply, identity_transform, transform_from_json

RECORD_VERSION = 1


class RecordFormatError(ValueError):
    """Record bytes are not well-formed (bad JSON / bad encodings)."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at byte {position})")
        self.position = position


class MalformedRecordError(ValueError):
    """Structurally parseable record violating an invariant."""


HASH_ALGORITHMS = ("sha256", "sha512", "sha1")
# Supported digests differ in size, so a digest names its own algorithm.
HASH_BY_SIZE = {hashlib.new(name).digest_size: name for name in HASH_ALGORITHMS}
DEFAULT_HASH = "sha256"


def canonical_bytes(v: FieldVector) -> bytes:
    """Canonical byte encoding of a vector for hashing.

    GF(2): packed bits, big-endian within bytes (bit i of the vector is bit
    7 - i % 8 of byte i // 8), zero-padded to full bytes.  Other fields:
    fixed-width big-endian entries, one byte each up to q = 256 and two
    above.
    """
    if v.bits is not None:
        return v.bits.to_bytes((v.n + 7) // 8, "little").translate(_BIT_REVERSED)
    return struct.pack(f">{v.n}{'B' if v.field.q <= 256 else 'H'}", *v.entries)


def codeword_digest(c: FieldVector, hash_id: str = DEFAULT_HASH) -> bytes:
    return hashlib.new(hash_id, canonical_bytes(c)).digest()


@dataclass(frozen=True)
class Record:
    """Published protected record."""

    code_id: object               # "bch:n:t" or inline generator mapping
    commitment: FieldVector       # the value f
    transform: TransformDescriptor
    codeword_hash: bytes | None = None
    hash_id: str | None = None

    def __post_init__(self):
        if self.transform.n != self.commitment.n or self.transform.field != self.commitment.field:
            raise MalformedRecordError("transform does not match commitment domain")
        if (self.codeword_hash is None) != (self.hash_id is None):
            raise MalformedRecordError("hash digest and algorithm must come together")
        if self.hash_id is not None:
            if self.hash_id not in HASH_ALGORITHMS:
                raise MalformedRecordError(f"unknown hash algorithm {self.hash_id!r}")
            if HASH_BY_SIZE.get(len(self.codeword_hash)) != self.hash_id:
                raise MalformedRecordError("digest length does not match hash algorithm")


@dataclass(frozen=True)
class VerifyResult:
    """Accept carries the recovered codeword; hash_checked distinguishes a
    digest-verified accept from an "unverified" one, which rests on
    :func:`~fuzzylink.codes.decode_bounded` returning only codewords."""

    accepted: bool
    codeword: FieldVector | None = None
    hash_checked: bool = False


def enroll(w: FieldVector, code: LinearCode, transform: TransformDescriptor | None = None,
           *, with_hash: bool = False, noise_flips: int = 0, rng=None,
           hash_id: str = DEFAULT_HASH) -> Record:
    """Protect a feature vector: draw a random codeword c, transform w,
    optionally flip noise_flips random positions (binary fields only;
    positions are discarded), publish the sum."""
    if w.n != code.n or w.field != code.field:
        raise ValueError("feature vector does not match the code")
    if transform is None:
        transform = identity_transform(code.field, code.n)
    if transform.n != code.n or transform.field != code.field:
        raise ValueError("transform does not match the code")
    if noise_flips < 0:
        raise ValueError("noise flips must be >= 0")
    if noise_flips:
        if code.field.q != 2:
            raise ValueError("enrollment noise is defined for GF(2) only")
        if noise_flips > code.n:
            raise ValueError("more flips than positions")
    if rng is None:
        raise ValueError("enrollment draws randomness; pass an rng")
    c = random_codeword(code, rng)
    v = apply(transform, w)
    if noise_flips:
        flips = rng.choice(code.n, size=noise_flips, replace=False).tolist()
        v = v + FieldVector.from_support(code.field, code.n, flips)
    commitment = c + v
    digest = codeword_digest(c, hash_id) if with_hash else None
    return Record(code_descriptor(code), commitment, transform,
                  digest, hash_id if with_hash else None)


def verify(record: Record, code: LinearCode, w_prime: FieldVector) -> VerifyResult:
    """Accept when the residual commitment - T(w') decodes and, if the
    record has a digest, the decoded codeword matches it.  Without a
    digest, decoding alone accepts: :func:`~fuzzylink.codes.decode_bounded`
    returns only codewords, so the result is not checked again."""
    if w_prime.n != code.n or w_prime.field != code.field:
        raise ValueError("candidate feature vector does not match the code")
    if record.commitment.n != code.n or record.commitment.field != code.field:
        raise MalformedRecordError("record does not match the code")
    residual = record.commitment - apply(record.transform, w_prime)
    c = decode_bounded(code, residual)
    if c is None:
        return VerifyResult(False)
    if record.codeword_hash is not None:
        if codeword_digest(c, record.hash_id) == record.codeword_hash:
            return VerifyResult(True, c, hash_checked=True)
        return VerifyResult(False)
    return VerifyResult(True, c, hash_checked=False)


# ---------------------------------------------------------------------------
# record wire format
# ---------------------------------------------------------------------------


def _vector_to_json(v: FieldVector):
    if v.bits is not None:
        return canonical_bytes(v).hex()
    return list(v.entries)


def _vector_from_json(obj, f: FieldSpec, n: int | None = None) -> FieldVector:
    if isinstance(obj, str):
        if f.q != 2:
            raise MalformedRecordError("hex-packed vectors are valid only over GF(2)")
        if n is None:
            raise MalformedRecordError("packed vector needs an explicit length")
        try:
            raw = bytes.fromhex(obj)
        except ValueError as exc:
            raise RecordFormatError(f"bad hex vector: {exc}") from None
        if len(raw) != (n + 7) // 8:
            raise MalformedRecordError(f"packed vector has {len(raw)} bytes, expected {(n + 7) // 8}")
        # bit i of the vector is bit 7 - i % 8 of byte i // 8
        bits = int.from_bytes(raw.translate(_BIT_REVERSED), "little")
        if bits >> n:
            raise MalformedRecordError("non-zero padding bits in packed vector")
        return FieldVector(f, n=n, bits=bits)
    if not isinstance(obj, list):
        raise RecordFormatError("vector must be a hex string or an integer array")
    try:
        return FieldVector(f, json_ints(obj, "vector entries"))
    except ValueError as exc:
        raise MalformedRecordError(str(exc)) from None


def serialize_record(record: Record) -> bytes:
    """Canonical JSON encoding; byte-identical for identical records."""
    obj = {
        "version": RECORD_VERSION,
        "field": field_to_json(record.commitment.field),
        "code": record.code_id,
        "f": _vector_to_json(record.commitment),
        "transform": record.transform.to_json(),
    }
    if record.codeword_hash is not None:
        obj["hash"] = {"alg": record.hash_id, "digest": record.codeword_hash.hex()}
    return json.dumps(obj, separators=(",", ":")).encode()


def parse_record(data: bytes) -> Record:
    """Inverse of serialize_record; raises RecordFormatError (with byte
    position for JSON errors) or MalformedRecordError."""
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise RecordFormatError(exc.msg, position=exc.pos) from None
    except UnicodeDecodeError as exc:
        raise RecordFormatError(f"record is not text: {exc.reason}", position=exc.start) from None
    except RecursionError:
        raise RecordFormatError("record nests too deeply") from None
    if not isinstance(obj, dict):
        raise RecordFormatError("record must be a JSON object")
    version = obj.get("version")
    # a JSON integer: true and 1.0 compare equal to 1 but are other records
    if type(version) is not int or version != RECORD_VERSION:
        raise MalformedRecordError(f"unsupported record version {version!r}")
    for key in ("field", "code", "f", "transform"):
        if key not in obj:
            raise RecordFormatError(f"missing record key {key!r}")
    tdesc = obj["transform"]
    kind = tdesc.get("type") if isinstance(tdesc, dict) else None
    if kind not in VARIANTS:
        raise RecordFormatError(f"unknown transform type {kind!r}")
    try:
        f = field_from_json(obj["field"])
        code_id = obj["code"]
        commitment = _vector_from_json(obj["f"], f, _code_block_length(code_id))
        transform = transform_from_json(tdesc, f, commitment.n)
        digest = hash_id = None
        if "hash" in obj:
            hash_id = obj["hash"]["alg"]
            digest = bytes.fromhex(obj["hash"]["digest"])
        return Record(code_id, commitment, transform, digest, hash_id)
    except (RecordFormatError, MalformedRecordError):
        raise
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise MalformedRecordError(f"malformed record ({type(exc).__name__}: {exc})") from None


def _code_block_length(code_id) -> int | None:
    if isinstance(code_id, str):
        try:
            return bch_descriptor_params(code_id)[0]
        except ValueError as exc:
            raise MalformedRecordError(str(exc)) from None
    if isinstance(code_id, dict) and "generator" in code_id:
        return len(code_id["generator"])
    raise MalformedRecordError(f"unsupported code descriptor: {code_id!r}")


def resolve_code(record: Record) -> LinearCode:
    """Build the LinearCode a record refers to."""
    return parse_code_descriptor(record.code_id)


def vector_to_text(v: FieldVector) -> str:
    """Hex (GF(2), packed big-endian) or comma-separated entries."""
    if v.bits is not None:
        return canonical_bytes(v).hex()
    return ",".join(str(e) for e in v.entries)


def vector_from_text(text: str, f: FieldSpec, n: int) -> FieldVector:
    if f.q == 2 and "," not in text:
        return _vector_from_json(text, f, n)
    v = FieldVector(f, [int(x) for x in text.split(",")])
    if v.n != n:
        raise ValueError(f"vector has {v.n} entries, expected {n}")
    return v
