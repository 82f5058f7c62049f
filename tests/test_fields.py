import hashlib
from itertools import product

import pytest

from fuzzylink.fields import (
    GF2,
    default_modulus,
    exp_log_tables,
    field,
    is_irreducible,
    is_prime,
    is_primitive,
    mul_rows,
)


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (31, 1),
                                 (2, 2), (2, 4), (2, 5), (2, 8), (3, 2), (5, 2)])
def test_multiplicative_inverses(p, m):
    f = field(p, m)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 1), (7, 1)])
def test_ring_axioms_spot(p, m, rng):
    f = field(p, m)
    for _ in range(200):
        a, b, c = (int(x) for x in rng.integers(0, f.q, size=3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, b) == f.add(a, f.neg(b))


def test_gf2_add_is_xor():
    assert GF2.add(1, 1) == 0
    assert GF2.sub(0, 1) == 1


@pytest.mark.parametrize("m", range(2, 9))
def test_default_binary_moduli_are_primitive(m):
    assert is_primitive(default_modulus(2, m), 2)


def test_irreducibility_trial_division():
    assert is_irreducible((1, 1, 1), 2)          # x^2+x+1
    assert not is_irreducible((1, 0, 1), 2)      # x^2+1 = (x+1)^2
    assert is_irreducible((1, 0, 0, 1, 1), 2)    # x^4+x^3+1
    assert not is_irreducible((0, 0, 1), 2)      # x^2 = x*x


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        field(2, 2, modulus=(1, 0, 1))


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError):
        field(4, 1)


def test_field_too_large_rejected():
    # the order is bounded before the primality test, so a large prime
    # characteristic (trial division up to 2^30.5 otherwise) is refused at once
    for p, m in ((2, 17), (2 ** 61 - 1, 1)):
        with pytest.raises(ValueError):
            field(p, m)


def test_pow_and_log_tables():
    f = field(2, 5)
    exp, log = exp_log_tables(f)
    for a in range(1, f.q):
        assert exp[log[a]] == a
    for a in (3, 7, 19):
        acc = 1
        for e in range(10):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


@pytest.mark.parametrize("m", range(2, 9))
def test_mul_rows_match_field_products(m):
    """Row log c maps every x < q to c x, for every c != 0; the rows are
    built once per field."""
    f = field(2, m)
    log = exp_log_tables(f)[1]
    rows = mul_rows(f)
    assert len(rows) == f.q - 1 and all(len(row) == 256 for row in rows)
    for c in range(1, f.q):
        assert list(rows[log[c]][:f.q]) == [f.mul(c, x) for x in range(f.q)]
    assert mul_rows(f) is rows


def test_mul_rows_only_for_small_binary_fields():
    for f in (field(2), field(3, 2), field(2, 9)):
        with pytest.raises(ValueError):
            mul_rows(f)


def test_odd_prime_extension_field():
    f9 = field(3, 2)
    # characteristic 3: a + a + a = 0 for every element
    for a in range(9):
        assert f9.add(f9.add(a, a), a) == 0


def test_field_identity_per_parameters():
    assert field(2, 5) is field(2, 5)
    assert field(2) == GF2


# recorded before the construction routines were each stated once; the two
# user moduli are irreducible but not primitive, so their generator is not x
TABLE_DIGESTS = {
    (2, 5, None): "475c05f88d0947d038642b35065a1e17c0a88c74507783a47754f2312ca3c9d5",
    (2, 7, None): "c87db80addc553dbc15c3e3f0d9b876b77c6af09f112930a3a342caf237f7670",
    (2, 8, None): "f73d1a929245a3d43073fa584aa779294b871f61b13ec233e333d6c00b4b0d80",
    (2, 12, None): "5f760ac6a6c43a5c8f31c7bf77f9d519e6976faabadbadeb91de7e4f6efa390c",
    (2, 16, None): "3c72f997b9d11dad83ef08e4eee8fc3e418478fc3ff46551857ae3254d0c70ef",
    (3, 5, None): "5573672c4c2ce36483414717cd0e73a703a38695782e20e3c265ee2c76d71d78",
    (241, 2, None): "8570133303280e2312ff9e29d95b9b7356f8eb24a97d73d13744f50dd57ab690",
    (2, 4, (1, 1, 1, 1, 1)): "0b6bb3cc5a34dbc9d14291649db86c11f9475763a560b11e1625d5e225d8bf3e",
    (3, 2, (1, 0, 1)): "57ea7160f413b054da6f58d9392a6077449cfef4f17c94f9abb5ad58c8da4b06",
}
# recorded before the powers of x were stepped as integers
TABLE_DIGESTS.update({
    (2, 2, None): "c36b2ea91d944eb27105bb3a81deb6a6ac387c6bbb1c1a92e166a2bf603bed69",
    (2, 3, None): "b39ab7dab3c4cdbd3398fdb95434a477a7f1da34d227740255914d1c0e3e7fc5",
    (2, 4, None): "5f36bd43bc25fe904c59e5e00ca170653c96f10ee28e4759e0868a4cac5e3f2b",
    (2, 6, None): "9a14e50b6a19209d0240a400d730267a8eceb1ed5204f4e7b34754302d8cab47",
    (2, 9, None): "de99701554edcc06b95b9a13592053d3738c3c479f0e400be06d4c9ce8e47d97",
    (2, 10, None): "e2655e143b00abe6c35e0e13336a1cfe414ce70886ef4c442c10e61dc79518d5",
    (2, 11, None): "c0a317be44231f6c673b4e33abc344d45481bdb084fd8e85f1798cd3cc6e90f2",
    (2, 13, None): "42483af1ddae126ca7f1cb2cd47828a90ad23f46e65611a1927136b245eaede3",
    (2, 14, None): "c33bb5c50f71042bffb17335ea58f128689cd2067e2ab910349cfa0dac323bbc",
    (2, 15, None): "9fc46730fa2b44169b5ae08c51ae0284cdcfdda85b4de42eafc80d8667484682",
    (3, 2, None): "c494c6b506b88c08ea4f1b458bf66489bb8c1945c3b9c787a737cf1e6bfeddf4",
    (3, 9, None): "5f8e98ff53ac783c412b8221d6b4cf01d0aa9a0d362977ae73eab7f964a7c30e",
    (5, 3, None): "55c883ce54b7ecb7aa377ac0c7f941b5c8bf341570141236cf8a53a0fc4481ed",
    (7, 4, None): "aceb50e7c672088a1c6e2d08070ec5379a1e9518dcbe8894cded94b84658b2b7",
    (13, 2, None): "99e8da24255e01ee737ccd21175f1a977a06cae124ba5b3a1cbb4f1ed328ebf2",
    (251, 2, None): "2baf58f2ee2fa846ac07878fd68f5cfc363188f327585ffdfdd0fd2793166395",
})


@pytest.mark.parametrize("p,m,modulus", list(TABLE_DIGESTS))
def test_field_tables_pinned(p, m, modulus):
    f = field(p, m, modulus)
    assert _sha((f.modulus, f._exp, f._log)) == TABLE_DIGESTS[p, m, modulus]


def test_construction_predicates_pinned():
    """is_prime, is_irreducible, is_primitive and default_modulus on
    exhaustive small ranges, against values recorded before the routines
    were each stated once.  The polynomials include non-monic ones and
    ones with zero leading coefficients."""
    assert _sha([is_prime(n) for n in range(-2, 20000)]) == (
        "d4c9f3c8384a025c8c60d5403d8aff9a55b07dcb7b6ab6365a73354d6e944cf4")
    assert _sha([(is_irreducible(c, p), is_primitive(c, p))
                 for p, top in ((2, 9), (3, 6), (5, 4), (7, 3))
                 for length in range(top + 1) for c in product(range(p), repeat=length)]) == (
        "e8cfb9226349327d9917c6f211ddbb8096135afac174db02b302bcc324b4afdf")
    assert _sha([default_modulus(p, m) for p in (2, 3, 5, 7, 11, 13, 17, 31, 61, 251)
                 for m in range(1, 13) if p ** m <= 4096]) == (
        "dc5b2d5f3b4c58d76729c6af79a55603ef81a12a5b41811bfc5cf4dccb05ac6b")
    # x is irreducible, but x^1 = 0 mod x: it generates nothing
    assert is_primitive((0, 1), 2) is False
