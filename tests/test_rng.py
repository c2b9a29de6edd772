import numpy as np
import pytest

from faschan.rng import complex_standard_normal, derive, make_rng, philox_keys


def seed_sequence_key(entropy) -> np.ndarray:
    return np.random.Philox(np.random.SeedSequence(entropy)).state["state"]["key"]


SEEDS = [
    0,
    7,
    2**32 - 1,
    2**32,
    2**40 + 3,
    (11, 1),
    (3, 2**33, 5),
    # five and more words: past SeedSequence's 4-word pool
    (1, 2, 3, 4, 5),
    (9, 2**64 + 5, 0, 2**40),
    tuple(range(11)),
]


class TestPhiloxKeys:
    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_seed_itself_matches_seed_sequence(self, seed):
        entropy = seed if isinstance(seed, tuple) else (seed,)
        keys = philox_keys(seed)
        assert keys.shape == (1, 2) and keys.dtype == np.uint64
        np.testing.assert_array_equal(keys[0], seed_sequence_key(entropy))
        np.testing.assert_array_equal(keys[0], make_rng(seed).bit_generator.state["state"]["key"])

    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_derived_rows_match_seed_sequence(self, seed):
        rows = np.array([0, 1, 255, 256, 8191, 8192, 2**32 - 1, 2**32, 2**40 + 7])
        keys = philox_keys(seed, rows)
        assert keys.shape == (rows.size, 2)
        for key, row in zip(keys, rows):
            np.testing.assert_array_equal(key, seed_sequence_key(derive(seed, int(row))))

    def test_empty_and_negative_rows(self):
        assert philox_keys(5, np.arange(0)).shape == (0, 2)
        with pytest.raises(ValueError):
            philox_keys(5, [3, -1])
        with pytest.raises(ValueError):
            philox_keys((1, -2))


class TestComplexStandardNormal:
    @pytest.mark.parametrize("shape", [(), (7,), (3, 5), (4000, 200)], ids=str)
    def test_equals_the_division_formula_bit_for_bit(self, shape):
        got = complex_standard_normal(make_rng((12, 1)), shape)
        rng = make_rng((12, 1))
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        expected = (re + 1j * im) / np.sqrt(2.0)
        assert np.shape(got) == np.shape(expected) and np.asarray(got).dtype == np.complex128
        np.testing.assert_array_equal(
            np.asarray(got).reshape(-1).view(np.float64), np.asarray(expected).reshape(-1).view(np.float64)
        )
