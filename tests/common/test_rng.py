"""derive_seed / make_rng / make_np_rng: determinism and stream separation."""

import numpy as np
import pytest

from repro.common.rng import derive_seed, derive_seeds, make_np_rng, make_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert [derive_seed(7, s) for s in range(8)] == [
            derive_seed(7, s) for s in range(8)
        ]

    def test_distinct_across_streams(self):
        children = [derive_seed(123, s) for s in range(1000)]
        assert len(set(children)) == 1000

    def test_distinct_across_parents(self):
        # nearby parent seeds must not produce overlapping child streams
        a = {derive_seed(1, s) for s in range(256)}
        b = {derive_seed(2, s) for s in range(256)}
        assert not (a & b)

    def test_fits_in_uint64(self):
        for seed in (0, 1, 2**63, 2**64 - 1):
            child = derive_seed(seed, 5)
            assert 0 <= child < 2**64

    def test_child_differs_from_parent(self):
        assert derive_seed(42, 0) != 42


class TestDeriveSeeds:
    """The vector form is the scalar form, element for element."""

    @pytest.mark.parametrize(
        "seed",
        [0, 1, 0x7CB1E5, 0xC1A57E50 ^ 1, 0xC1A57E50 ^ 3, 2**63, 2**64 - 1, -5],
    )
    @pytest.mark.parametrize("first", [0, 1, 257, 2**63 - 2, 2**64 - 3, -4])
    def test_equals_derive_seed(self, seed, first):
        got = derive_seeds(seed, first, 6)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(seed, first + i) for i in range(6)]

    def test_long_block(self):
        assert derive_seeds(42, 1, 1000).tolist() == [
            derive_seed(42, s) for s in range(1, 1001)
        ]

    def test_empty(self):
        assert derive_seeds(42, 1, 0).tolist() == []


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a, b = make_rng(9), make_rng(9)
        assert [a.random() for _ in range(16)] == [b.random() for _ in range(16)]

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_none_gives_entropy_seeded(self):
        # two entropy-seeded generators almost surely differ
        assert make_rng(None).random() != make_rng(None).random()


class TestMakeNpRng:
    def test_same_seed_same_stream(self):
        a, b = make_np_rng(11), make_np_rng(11)
        np.testing.assert_array_equal(a.random(16), b.random(16))

    def test_derived_streams_are_independent(self):
        parent = 1234
        g0 = make_np_rng(derive_seed(parent, 0))
        g1 = make_np_rng(derive_seed(parent, 1))
        assert not np.array_equal(g0.random(16), g1.random(16))
