import numpy as np
import pytest

from tecsim.rng import philox_generator


def test_same_path_gives_identical_streams():
    a = philox_generator(123, 4, 5).integers(0, 1 << 62, size=64)
    b = philox_generator(123, 4, 5).integers(0, 1 << 62, size=64)
    assert np.array_equal(a, b)


def test_distinct_paths_give_distinct_streams():
    base = philox_generator(123).integers(0, 1 << 62, size=64)
    for path in ((0,), (1,), (0, 0), (0, 1), (1, 0)):
        other = philox_generator(123, *path).integers(0, 1 << 62, size=64)
        assert not np.array_equal(base, other), path


def test_distinct_seeds_give_distinct_streams():
    a = philox_generator(1, 7).integers(0, 1 << 62, size=64)
    b = philox_generator(2, 7).integers(0, 1 << 62, size=64)
    assert not np.array_equal(a, b)


def test_path_order_matters():
    a = philox_generator(9, 1, 2).integers(0, 1 << 62, size=64)
    b = philox_generator(9, 2, 1).integers(0, 1 << 62, size=64)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("args", [(-1, 0, 0), (1, -1, 0), (1, 0, -3)])
def test_trial_generators_reject_negative_input(args):
    # a negative seed, point or trial index
    with pytest.raises(ValueError, match="expected non-negative integer"):
        philox_generator(*args)


@pytest.mark.parametrize("randoms", [1, 2, 3, 5])
def test_a_block_of_coins_is_the_scalar_coins_in_order(randoms):
    """A tableau block draws each copy's R coins as one int64 ``integers(0, 2, (trials, R))``;
    row t must be the R scalar ``integers(0, 2)`` calls of copy t, however the copies split."""
    scalar = philox_generator(8, 2, 1)
    expected = [[int(scalar.integers(0, 2)) for _ in range(randoms)] for _ in range(50)]
    block = philox_generator(8, 2, 1)
    got = [*block.integers(0, 2, (17, randoms)), *block.integers(0, 2, (33, randoms))]
    assert np.array(got).tolist() == expected
