import pytest
from fractions import Fraction
import time

from kolchin import GF, QQ
from kolchin.fields import Field, is_prime


def test_rational_coercion():
    assert QQ.of(3) == 3
    assert QQ.of("3") == 3
    assert QQ.of("-7/2") == Fraction(-7, 2)
    assert QQ.of(Fraction(4, 2)) == 2
    assert isinstance(QQ.of(Fraction(4, 2)), int)


def test_prime_field_coercion():
    F5 = GF(5)
    assert F5.of(7) == 2
    assert F5.of(-1) == 4
    assert F5.of("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert F5.of("-7/2") == (-7 * 3) % 5


def test_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        QQ.of("1/0")


def test_inverse():
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.inv(4) == Fraction(1, 4)
    assert QQ.inv(1) == 1
    assert GF(7).inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ValueError):
        GF(7).inv(0)


def test_characteristic():
    assert QQ.characteristic() == 0
    assert GF(11).characteristic() == 11


def test_field_order_must_be_prime():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            Field(bad)
    for good in (2, 3, 5, 101, 1000003):
        Field(good)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == primes


def test_field_equality():
    assert QQ == Field()
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)


def test_is_prime_is_deterministic_miller_rabin():
    start = time.monotonic()
    assert is_prime(2**61 - 1)
    assert time.monotonic() - start < 1.0
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(1000003 * (2**61 - 1))
    for n in range(2, 3000):
        assert is_prime(n) == all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_refuses_above_the_deterministic_bound():
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)  # prime, but beyond what the fixed bases decide
    with pytest.raises(ValueError):
        Field(2**89 - 1)


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("value", [True, False, 1.0, None, [1]])
def test_of_refuses_bools_and_other_types(field, value):
    # bool is an int subclass, so only an explicit rule keeps true out
    with pytest.raises(TypeError):
        field.of(value)


def test_of_reads_an_int_first():
    # an int is the common entry and is read before any other type; a
    # bool is an int too, but still reaches the TypeError
    for field in (QQ, GF(5)):
        with pytest.raises(TypeError):
            field.of(True)

    class Count(int):
        pass

    assert QQ.of(Count(-7)) == -7
    assert GF(5).of(Count(-7)) == 3
    assert QQ.of(-7) == -7 and type(QQ.of(-7)) is int
    assert GF(5).of(-7) == 3 and GF(2).of(-1) == 1 and GF(7).of(-14) == 0
