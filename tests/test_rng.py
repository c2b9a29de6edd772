import numpy as np
import pytest

from faschan.rng import _philox_key, complex_standard_normal, derive, make_rng


def make_rng_key(seed) -> np.ndarray:
    return make_rng(seed).bit_generator.state["state"]["key"]


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
    # the generator re-keys one Philox per row with _philox_key; each key
    # must be the key of that row's make_rng stream

    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_seed_itself_matches_make_rng(self, seed):
        key = _philox_key(derive(seed))
        assert key.shape == (2,) and key.dtype == np.uint64
        np.testing.assert_array_equal(key, make_rng_key(seed))

    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_derived_rows_match_make_rng(self, seed):
        # row indices of 2**32 and above add a word to the entropy
        for row in (0, 1, 255, 256, 8191, 8192, 2**32 - 1, 2**32, 2**40 + 7):
            np.testing.assert_array_equal(_philox_key(derive(seed, row)), make_rng_key(derive(seed, row)))

    def test_negative_components_rejected(self):
        # the generator's row seeds come from derive, which checks them once
        with pytest.raises(ValueError):
            derive((1, -2))
        with pytest.raises(ValueError):
            make_rng((1, -2))


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
