"""Tests for repro.mapreduce.partitioning."""
import numpy as np
import pytest

from repro.mapreduce.partitioning import MODES, make_pids


class TestContiguous:
    @pytest.mark.parametrize("n,ell", [(100, 4), (101, 4), (7, 7), (1000, 16)])
    def test_equal_sizes(self, n, ell):
        sizes = np.bincount(make_pids(n, ell, "contiguous"), minlength=ell)
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1

    def test_blocks_are_contiguous(self):
        pids = make_pids(100, 4, "contiguous")
        assert (np.diff(pids) >= 0).all()


class TestRandom:
    def test_all_partitions_in_range(self):
        pids = make_pids(1000, 8, "random", seed=0)
        assert pids.min() >= 0 and pids.max() < 8

    def test_roughly_balanced(self):
        sizes = np.bincount(make_pids(16000, 16, "random", seed=1), minlength=16)
        assert sizes.min() > 700 and sizes.max() < 1300

    def test_deterministic_in_seed(self):
        a = make_pids(500, 4, "random", seed=3)
        b = make_pids(500, 4, "random", seed=3)
        np.testing.assert_array_equal(a, b)
        c = make_pids(500, 4, "random", seed=4)
        assert not np.array_equal(a, c)


class TestAdversarial:
    def test_outliers_in_partition_zero(self):
        mask = np.zeros(100, dtype=bool)
        mask[[5, 50, 99]] = True
        pids = make_pids(100, 4, "adversarial", outlier_mask=mask)
        assert (pids[mask] == 0).all()

    def test_non_outliers_spread(self):
        mask = np.zeros(400, dtype=bool)
        mask[-20:] = True
        pids = make_pids(400, 4, "adversarial", outlier_mask=mask)
        sizes = np.bincount(pids[~mask], minlength=4)
        assert sizes.max() - sizes.min() <= 1

    def test_requires_mask(self):
        with pytest.raises(ValueError):
            make_pids(10, 2, "adversarial")

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            make_pids(10, 2, "adversarial", outlier_mask=np.zeros(5, bool))


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            make_pids(10, 2, "nope")

    def test_ell_too_small(self):
        with pytest.raises(ValueError):
            make_pids(10, 0)

    def test_n_smaller_than_ell(self):
        with pytest.raises(ValueError):
            make_pids(3, 4)

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "adversarial"])
    def test_every_mode_covers_all_partitions(self, mode):
        pids = make_pids(1000, 8, mode, seed=0)
        assert set(pids.tolist()) == set(range(8))
