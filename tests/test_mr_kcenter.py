"""Integration tests for the 2-round MapReduce k-center algorithm
(Section 3.1) on the session SparkSession."""
import uuid

import numpy as np
import pytest

from repro.core.gmm import gmm
from repro.core.metric import radius
from repro.data.datasets import to_spark
from repro.mapreduce.evaluate import radius_spark
from repro.mapreduce.kcenter import mr_kcenter
from repro.mapreduce.partitioning import make_pids
from repro.mapreduce.round1 import Round1Result, run_round1
from tests.brute_force import brute_force_kcenter, rule_tau
from tests.conftest import planted_clusters


@pytest.fixture(scope="module")
def blobs4():
    return planted_clusters(
        100, [(0, 0), (40, 0), (0, 40), (40, 40)], 0.5, seed=20
    )


class TestEndToEnd:
    def test_recovers_planted_clusters(self, spark, blobs4):
        res = mr_kcenter(spark, blobs4, k=4, ell=4, tau=8)
        assert res.radius < 5.0  # blob scale, not the 40-separation scale

    def test_radius_matches_local_recomputation(self, spark, blobs4):
        res = mr_kcenter(spark, blobs4, k=4, ell=4, tau=8)
        assert res.radius == pytest.approx(
            radius(blobs4, res.centers), rel=1e-9
        )

    def test_coreset_size_ell_times_tau(self, spark, blobs4):
        res = mr_kcenter(spark, blobs4, k=4, ell=4, tau=8)
        assert res.coreset_size == 4 * 8

    def test_part_sizes_balanced(self, spark, blobs4):
        res = mr_kcenter(spark, blobs4, k=4, ell=4, tau=8)
        assert sorted(res.part_sizes) == [0, 1, 2, 3]
        assert all(v == 100 for v in res.part_sizes.values())

    def test_theorem1_bound(self, spark):
        """(2+eps)-approximation against the brute-force optimum on a tiny
        instance, with tau the largest coreset size of the eps rule over
        the subsets: a larger tau only lowers a subset's radius, so
        Lemma 2 still holds for every subset."""
        g = np.random.default_rng(30)
        pts = g.uniform(-1, 1, (24, 2))
        k, eps, ell = 2, 0.5, 2
        opt, _ = brute_force_kcenter(pts, k)
        pids = make_pids(len(pts), ell)
        tau = max(rule_tau(pts[pids == i], k, eps) for i in range(ell))
        res = mr_kcenter(spark, pts, k=k, ell=ell, tau=tau)
        assert res.radius <= (2 + eps) * opt + 1e-9

    @pytest.mark.parametrize("ell", [1, 2, 4])
    def test_parallelism_sweep(self, spark, blobs4, ell):
        res = mr_kcenter(spark, blobs4, k=4, ell=ell, tau=8)
        assert res.radius < 5.0
        assert len(res.centers) == 4

    def test_ell1_equals_sequential_gmm(self, spark, blobs4):
        """With ell=1 and tau=n the coreset is all of S, so round 2's GMM
        must equal plain sequential GMM on S. The driver re-sorts the
        collected coreset lexicographically, so feed pre-sorted points to
        make the two GMM runs start from the same first center."""
        order = np.lexsort(blobs4.T[::-1])  # row-lexicographic
        Xs = blobs4[order]
        res = mr_kcenter(spark, Xs, k=4, ell=1, tau=len(Xs))
        seq = gmm(Xs, 4)
        np.testing.assert_allclose(
            np.sort(res.centers, axis=0),
            np.sort(seq.centers(Xs), axis=0),
        )

    def test_mu1_is_malkomes_baseline(self, spark, blobs4):
        """tau = k reproduces the [26] algorithm; larger tau must not be
        substantially worse (the Figure 2 trend at planted scale)."""
        r1 = mr_kcenter(spark, blobs4, k=4, ell=4, tau=4).radius
        r8 = mr_kcenter(spark, blobs4, k=4, ell=4, tau=32).radius
        assert r8 <= r1 + 1e-9

    def test_timings_populated(self, spark, blobs4):
        res = mr_kcenter(spark, blobs4, k=4, ell=2, tau=8)
        assert res.timings["round1"] > 0 and res.timings["round2"] >= 0


def _round1_reference(X, pids, ell, tau):
    """Round 1 without Spark: per pid, the subset in id order, its coreset,
    the coreset rows sorted lexicographically; concatenated by pid."""
    points, weights, out_pids, sizes = [], [], [], {}
    for pid in range(ell):
        S = X[np.flatnonzero(pids == pid)]
        sizes[pid] = len(S)
        if not len(S):
            continue
        res = gmm(S, tau)
        C, w = res.centers(S), res.weights()
        order = np.lexsort(C.T[::-1])
        points.append(C[order])
        weights.append(w[order])
        out_pids.append(np.full(len(C), pid, dtype=np.int64))
    return (np.concatenate(points), np.concatenate(weights),
            np.concatenate(out_pids), sizes)


def _assert_same_round1(a, b):
    for name in ("points", "weights", "pids"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.part_sizes == b.part_sizes


class TestRound1:
    @pytest.mark.parametrize("tau", [8, 100], ids=["fixed", "uneven"])
    def test_independent_of_row_order_and_partitioning(
        self, spark, blobs4, tau
    ):
        """Each reducer sorts its subset by id, so round 1 depends only on
        the pid assignment: not on the row order inside a block or on
        which block holds a subset, as long as each subset is whole in one
        block. At tau = 100 the subsets (93 to 108 points) give coresets
        of unequal sizes."""
        pids = make_pids(len(blobs4), 4, "random", seed=3)
        g = np.random.default_rng(5)
        moved = spark.sparkContext.parallelize(
            [
                (rows.astype(np.int64), pids[rows].astype(np.int32),
                 blobs4[rows])
                for rows in (
                    g.permutation(np.flatnonzero(np.isin(pids, group)))
                    for group in ([2], [0, 3], [], [1])
                )
            ],
            4,
        )
        a = run_round1(to_spark(spark, blobs4, pids=pids), 4, tau)
        b = run_round1(moved, 4, tau)
        _assert_same_round1(a, b)
        sizes = np.bincount(a.pids)
        assert (sizes == np.minimum(np.bincount(pids), tau)).all()

    def test_split_subset_rejected(self, spark, blobs4):
        """A subset cut across blocks would reach two reducers and come
        back twice: round 1 raises instead of returning both coresets."""
        pids = make_pids(len(blobs4), 4, "random", seed=3)
        perm = np.random.default_rng(5).permutation(len(blobs4))
        split = spark.sparkContext.parallelize(
            [
                (rows.astype(np.int64), pids[rows].astype(np.int32),
                 blobs4[rows])
                for rows in np.array_split(perm, 7)
            ],
            7,
        )
        with pytest.raises(ValueError, match="split across blocks"):
            run_round1(split, 4, 8)

    def test_one_stage_per_job(self, spark, blobs4):
        """Round 1 and the distributed radius each run one Spark job of a
        single stage (no shuffle), with one task per partition."""
        sc = spark.sparkContext
        tracker = sc.statusTracker()
        pids = make_pids(len(blobs4), 8, "random", seed=4)
        blocks = to_spark(spark, blobs4, pids=pids)

        def stages_of(fn):
            group = f"one-stage-{uuid.uuid4().hex}"
            sc.setJobGroup(group, group)
            try:
                out = fn()
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            jobs = tracker.getJobIdsForGroup(group)
            return out, [list(tracker.getJobInfo(j).stageIds) for j in jobs]

        r1, round1_jobs = stages_of(lambda: run_round1(blocks, 8, 8))
        _, radius_jobs = stages_of(lambda: radius_spark(blocks, r1.points))
        for jobs in (round1_jobs, radius_jobs):
            assert len(jobs) == 1 and len(jobs[0]) == 1, jobs
            stage = tracker.getStageInfo(jobs[0][0])
            assert stage.numTasks == sc.defaultParallelism

    @pytest.mark.parametrize("ell", [1, 3, 4, 8, 16])
    def test_matches_spark_free_reference(self, spark, ell):
        """Bit for bit the Spark-free reference, for ell below, equal to,
        above and not a multiple of the number of slots, with coresets of
        equal and of unequal sizes (integer points with repeats, some
        subsets smaller than tau), and with fewer points than splits
        (empty blocks, and most subsets empty)."""
        g = np.random.default_rng(70 + ell)
        splits = spark.sparkContext.defaultParallelism
        cases = [
            (planted_clusters(60, [(0, 0), (9, 2), (3, 8)], 1.0, seed=ell),
             6),
            (np.rint(g.normal(size=(150, 3)) * 4), 40),
            (g.normal(size=(max(1, splits - 1), 2)), 2),
        ]
        for X, tau in cases:
            pids = g.integers(0, ell, len(X)).astype(np.int32)
            got = run_round1(to_spark(spark, X, pids=pids), ell, tau)
            points, weights, ref_pids, sizes = _round1_reference(
                X, pids, ell, tau
            )
            _assert_same_round1(got, Round1Result(
                points=points, weights=weights, pids=ref_pids,
                part_sizes=sizes,
            ))

    def test_empty_subsets_reported(self, spark):
        """A subset that receives no point (random partition at tiny n)
        appears in part_sizes with 0, and the sizes add up to n."""
        X = planted_clusters(3, [(0, 0), (20, 0)], 0.5, seed=8)
        pids = make_pids(len(X), 6, "random", seed=1)
        counts = np.bincount(pids, minlength=6)
        assert (counts == 0).any()
        res = run_round1(to_spark(spark, X, pids=pids), 6, 2)
        assert res.part_sizes == {p: int(c) for p, c in enumerate(counts)}
        assert sum(res.part_sizes.values()) == len(X)

    def test_pid_outside_ell_rejected(self, spark, blobs4):
        """A block that holds a pid >= ell makes round 1 raise, instead of
        reporting a subset ell does not have in ``part_sizes``."""
        pids = make_pids(len(blobs4), 4, "random", seed=3)
        pids[:10] = 4
        with pytest.raises(ValueError, match="outside"):
            run_round1(to_spark(spark, blobs4, pids=pids), 4, 8)


class TestValidation:
    def test_bad_k(self, spark, blobs4):
        with pytest.raises(ValueError):
            mr_kcenter(spark, blobs4, k=0, ell=2, tau=4)

    def test_tau_below_k(self, spark, blobs4):
        with pytest.raises(ValueError):
            mr_kcenter(spark, blobs4, k=4, ell=2, tau=3)
