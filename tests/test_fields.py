import pytest

from fuzzylink.fields import (
    GF2,
    default_modulus,
    exp_log_tables,
    field,
    is_irreducible,
    is_primitive,
)


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


def test_odd_prime_extension_field():
    f9 = field(3, 2)
    # characteristic 3: a + a + a = 0 for every element
    for a in range(9):
        assert f9.add(f9.add(a, a), a) == 0


def test_field_identity_per_parameters():
    assert field(2, 5) is field(2, 5)
    assert field(2) == GF2
