"""Each public function refuses a bad integer argument with its own ValueError,
which names the argument and prints the value through `errors.size_text`:
its digits up to 64 bits, past that its sign and bit length.  Python's str()
of an int past 4300 digits raises a ValueError of its own, so a message
that printed the value with str() would not be the function's own."""

import pytest

from dimlab.alternating import a_circ, alternating_oracle, delta_circ, hat_m2
from dimlab.beta_sets import BetaSet, shift, t_core
from dimlab.binary_arith import (factorial_sign_parity, is_sparse, position_sum, sign_parity,
                                 top_two_bits, v2)
from dimlab.core_towers import combine, staircase
from dimlab.enumeration import (a2, a2_sparse, count_odd, delta, delta_sparse,
                                enumerate_odd_partitions, oracle_counts)
from dimlab.errors import size_text
from dimlab.parents import all_parents
from dimlab.partitions import Partition, enumerate_partitions

EMPTY = Partition(())

# every public function that takes an integer argument, as a call of that
# integer, and the start of its refusal of a value below the least it takes
CHECKS = {
    "count_odd": (count_odd, "n must be non-negative"),
    "delta": (delta, "n must be non-negative"),
    "a2": (a2, "n must be non-negative"),
    "oracle_counts": (oracle_counts, "n must be non-negative"),
    "enumerate_odd_partitions": (enumerate_odd_partitions, "n must be non-negative"),
    "delta_sparse": (delta_sparse, "n must be positive"),
    "a_circ": (a_circ, "n must be positive"),
    "hat_m2": (hat_m2, "n must be positive"),
    "delta_circ": (delta_circ, "n must be positive"),
    "alternating_oracle": (alternating_oracle, "n must be at least 3"),
    "enumerate_partitions": (enumerate_partitions, "n must be non-negative"),
    "Partition": (lambda n: Partition((n,)), "part 1 must be positive"),
    "position_sum": (position_sum, "n must be non-negative"),
    "v2": (v2, "n must be positive"),
    "is_sparse": (is_sparse, "n must be positive"),
    "sign_parity": (sign_parity, "n must be positive"),
    "factorial_sign_parity": (factorial_sign_parity, "n must be non-negative"),
    "top_two_bits": (top_two_bits, "n must be positive"),
    "staircase": (staircase, "height must be non-negative"),
    "BetaSet": (lambda n: BetaSet((n,)), "beta-set elements must be non-negative"),
    "shift": (lambda n: shift(BetaSet(), n), "shift amount must be non-negative"),
    "t_core": (lambda n: t_core(EMPTY, n), "hook size must be positive"),
    "all_parents": (lambda n: all_parents(EMPTY, n), "r_power must be positive"),
    "a2_sparse": (a2_sparse, "n must be positive"),
}


@pytest.mark.parametrize("value, text", [(-1, "-1"), (-10**4400, "minus a 14617-bit number")],
                         ids=["-1", "-10^4400"])
@pytest.mark.parametrize("name", CHECKS)
def test_each_integer_argument_is_refused_in_its_own_words(name, value, text):
    call, words = CHECKS[name]
    with pytest.raises(ValueError) as refusal:
        call(value)
    assert refusal.type is ValueError
    assert str(refusal.value) == f"{words}, got {text}"


@pytest.mark.parametrize("call", [delta_sparse, a2_sparse])
def test_a_number_that_is_not_sparse_is_named_by_its_size_text(call):
    with pytest.raises(ValueError, match="^6 is not sparse$"):
        call(6)
    with pytest.raises(ValueError, match="^a 15002-bit number is not sparse$"):
        call(3 << 15000)


def test_a_core_that_is_not_a_staircase_is_named_by_its_size():
    with pytest.raises(ValueError, match="^the core, of size 2, is not a staircase$"):
        combine(EMPTY, EMPTY, Partition((2,)))
    with pytest.raises(ValueError, match="^the core, of size a 14617-bit number, is not a "):
        combine(EMPTY, EMPTY, Partition((10**4400,)))


def test_a_bad_part_is_named_by_its_position_and_not_the_whole_tuple():
    with pytest.raises(ValueError, match="^part 2 must be positive, got 0$"):
        Partition((3, 0, 1))
    with pytest.raises(ValueError, match="^parts must be weakly decreasing, got 2 after 1 "
                                         "at part 100001$"):
        Partition((1,) * 100_000 + (2,))
    with pytest.raises(ValueError, match="^parts must be weakly decreasing, got a 14617-bit "
                                         "number after 1 at part 2$"):
        Partition((1, 10**4400))
    with pytest.raises(ValueError, match="^beta-set elements must be distinct, got 3 twice$"):
        BetaSet((3, 1, 3))


def test_size_text_keeps_the_sign_past_64_bits():
    assert [size_text(n) for n in (0, -1, 2**64 - 1, 1 - 2**64)] == [
        "0", "-1", str(2**64 - 1), str(1 - 2**64)]
    assert size_text(2**64) == "a 65-bit number"
    assert size_text(-2**64) == "minus a 65-bit number"
