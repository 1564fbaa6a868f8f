import numpy as np
import pytest

from tecsim.rng import philox_generator
from tecsim.tec import G8_CODE


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
    """The tests replay the coins of rows read in turn, R per row, as one int64 ``integers(0, 2, (rows, R))``;
    row t must be the R scalar ``integers(0, 2)`` calls of row t, however the rows split."""
    scalar = philox_generator(8, 2, 1)
    expected = [[int(scalar.integers(0, 2)) for _ in range(randoms)] for _ in range(50)]
    block = philox_generator(8, 2, 1)
    got = [*block.integers(0, 2, (17, randoms)), *block.integers(0, 2, (33, randoms))]
    assert np.array(got).tolist() == expected


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, 2**128 - 1])
@pytest.mark.parametrize("path", [(), (5,), (5, 1)])
def test_stream_is_philox_keyed_by_the_seed_sequence_state(seed, path):
    """A Philox built from the SeedSequence has the key, counter and draws of one keyed
    by that sequence's first two uint64 state words."""
    ours = philox_generator(seed, *path)
    key = np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
    keyed = np.random.Generator(np.random.Philox(key=key))
    assert repr(ours.bit_generator.state) == repr(keyed.bit_generator.state)
    assert ours.integers(0, 2, 100).tolist() == keyed.integers(0, 2, 100).tolist()
    assert ours.random(10).tolist() == keyed.random(10).tolist()


def g8_cell_counts(rng):
    """A sweep point's one draw: 10^9 trials over g8's 28 class x weight cell chances at p = 0.1, rarest first."""
    n, p = len(G8_CODE.faces), 0.1
    chances = (G8_CODE.cells * [p**w * (1.0 - p) ** (n - w) for w in range(n + 1)]).ravel()
    return rng.multinomial(10**9, chances[chances.argsort(kind="stable")])


# sampler -> (the call shape the product makes, or the tests replay its rows by, on a fixed philox_generator path;
# its values on numpy 2.4)
SAMPLER_PINS = {
    "multinomial": (
        lambda: g8_cell_counts(philox_generator(7, 0)),
        [0] * 12 + [951, 18006, 36199, 162245, 323405, 324012, 405981, 5829984, 8747235, 13129152, 26243241,
                    26250919, 32802917, 118104844, 236178239, 531442670],
    ),
    "random": (
        lambda: philox_generator(7, 0).random(4),  # a state engine's picks, the dense readout's doubles
        [0.048373749046626946, 0.8224166666374553, 0.09368511632803123, 0.10349355193634491],
    ),
    "integers block": (
        lambda: philox_generator(7, 0, 1).integers(0, 2, (3, 4)),  # the coins of rows read in turn, (rows, R)
        [[1, 0, 0, 1], [0, 1, 0, 0], [1, 0, 1, 0]],
    ),
    "integers": (
        lambda: philox_generator(1).integers(0, 2, 24),  # one tableau readout's R coins, in X or Z
        [0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0],
    ),
}


@pytest.mark.parametrize("sampler", SAMPLER_PINS)
def test_numpy_samplers_draw_the_pinned_values(sampler):
    """numpy promises only the raw Philox words across versions (NEP 19), not what its samplers make of
    them. Every seeded count, pick and readout rests on these four call shapes, so they are pinned here:
    a golden file or readout sha256 that moves with numpy shows its cause in this test first."""
    draw, expected = SAMPLER_PINS[sampler]
    got = draw()
    assert got.dtype == (np.float64 if sampler == "random" else np.int64)
    assert got.tolist() == expected, f"Generator.{sampler.split()[0]} draws other values on numpy {np.__version__}"
