import hashlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from helpers import NUMBER_FIELDS, float_or_none, same_float
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amner import resample
from amner.corpus import FormatError
from amner.resample import (
    MATCH_MAJORITY,
    FeatureRow,
    Provenance,
    SmoteConfig,
    SyntheticSet,
    balance_token_dataset,
    class_counts,
    knn_minority,
    parse_feature_rows,
    populate_synthetic,
    smote,
    write_feature_rows,
)


def rows_from(points, label="PER"):
    return [FeatureRow(np.array(p, dtype=float), label) for p in points]


def knn(samples, i, k):
    return knn_minority(np.stack([row.values for row in samples]), k)[i].tolist()


def restacking_knn(samples, i, k):
    """The neighbour search as it was before smote stacked the rows once."""
    matrix = np.stack([row.values for row in samples])
    diffs = matrix - matrix[i]
    order = np.argsort(np.einsum("ij,ij->i", diffs, diffs), kind="stable")
    return [int(idx) for idx in order if idx != i][:k]


def per_row_smote(minority, config):
    """smote as it was before it worked on one matrix: one neighbour search
    and one interpolated row per source row (with the subset size floor(N T / 100))."""
    rng = np.random.default_rng(config.seed)
    n_percent = config.n_percent
    selected = list(range(len(minority)))
    if n_percent < 100:
        keep = n_percent * len(minority) // 100
        selected = [int(idx) for idx in rng.permutation(len(minority))[:keep]]
        n_percent = 100
    subset = [minority[idx] for idx in selected]
    out = SyntheticSet()
    for local_i, orig_i in enumerate(selected):
        neighbors = restacking_knn(subset, local_i, config.k)
        for _ in range(n_percent // 100):
            nn_local = neighbors[int(rng.integers(config.k))]
            gap = float(rng.random())
            sample, neighbor = subset[local_i].values, subset[nn_local].values
            out.rows.append(FeatureRow(sample + gap * (neighbor - sample), subset[local_i].label))
            out.provenance.append(Provenance(orig_i, selected[nn_local], gap))
    return out


def per_round_draws(rng, k, count):
    """smote's draws as it made them before one array pass: a neighbour pick,
    then a gap, per synthetic row."""
    pick, gap = np.empty(count, dtype=np.int64), np.empty(count)
    for n in range(count):
        pick[n] = rng.integers(k)
        gap[n] = rng.random()
    return pick, gap


def digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(row.label.encode() + b"\0" + row.values.tobytes())
    return h.hexdigest()


class TestFromMatrix:
    def test_equals_rows_built_one_at_a_time(self):
        rng = np.random.default_rng(8)
        matrix = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-300, 300, size=(7, 1))
        labels = ["O", "PER", "O", "LOC", "ORG", "PER", "O"]
        rows = FeatureRow.from_matrix(matrix, labels)
        assert [row.label for row in rows] == labels
        assert digest(rows) == digest([FeatureRow(v, label) for v, label in zip(matrix, labels)])
        assert all(row.values.base is matrix for row in rows)

    def test_no_rows(self):
        assert FeatureRow.from_matrix(np.empty((0, 3)), []) == []

    @pytest.mark.parametrize("matrix, labels, message", [
        ([[1.0, np.nan], [0.0, 0.0]], ["A", "B"], "feature row contains non-finite values"),
        ([[1.0, 2.0], [np.inf, 0.0]], ["A", "B"], "feature row contains non-finite values"),
        ([[1.0, 2.0], [-np.inf, 0.0]], ["A", "B"], "feature row contains non-finite values"),
        ([[1.0, 2.0], [3.0, 4.0]], ["A", ""], "feature row needs a label"),
        ([[1.0, 2.0], [3.0, 4.0]], ["A"], "1 labels for 2 feature rows"),
        ([1.0, 2.0], ["A", "B"], r"must be 2-D, got shape \(2,\)"),
    ], ids=["nan", "inf", "-inf", "empty-label", "label-count", "1-D"])
    def test_refuses_what_a_row_refuses(self, matrix, labels, message):
        with pytest.raises(ValueError, match=message):
            FeatureRow.from_matrix(np.array(matrix), labels)


class TestKnn:
    def test_nearest_by_euclidean_distance(self):
        samples = rows_from([(0, 0), (1, 0), (5, 5)])
        assert knn(samples, 0, 1) == [1]

    def test_duplicate_point_is_nearest(self):
        samples = rows_from([(2, 2), (2, 2)])
        assert knn(samples, 0, 1) == [1]

    def test_k_equal_to_count_rejected(self):
        samples = rows_from([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            knn(samples, 0, 2)

    def test_tie_breaks_to_lower_index(self):
        samples = rows_from([(0, 0), (1, 0), (-1, 0), (0, 1)])
        assert knn(samples, 0, 2) == [1, 2]

    def test_width_mismatch_rejected(self):
        samples = [FeatureRow(np.zeros(2), "PER"), FeatureRow(np.zeros(3), "PER")]
        with pytest.raises(ValueError, match="width"):
            smote(samples, SmoteConfig(n_percent=100, k=1))

    def test_neighbours_equal_restacking_search(self):
        # small integer coordinates, with duplicate rows: many exact distance ties
        rng = np.random.default_rng(4)
        for trial in range(20):
            points = rng.integers(-2, 3, size=(int(rng.integers(2, 30)), 3)).astype(float)
            points[rng.integers(len(points), size=3)] = points[0]
            samples = rows_from(points)
            matrix = np.stack([row.values for row in samples])
            for k in range(1, min(len(samples), 6)):
                neighbours = knn_minority(matrix, k)
                for i in range(len(samples)):
                    assert neighbours[i].tolist() == restacking_knn(samples, i, k)

    def test_overflowed_dot_product_equals_restacking_search(self):
        # |a|^2 is just below MAX / 2 for rows 0, 1 and 3; with OpenBLAS the
        # product of rows 0 and 3 rounds above it, so -2 a.b is -inf while
        # |a|^2 + |b|^2 is finite, and that bound must not set the cut
        samples = rows_from([
            (-7.834903161577715e+153, 4.287198403732128e+153, -3.181018553679311e+153),
            (-7.83490316157765e+153, 4.2871984037320924e+153, -3.1810185536792846e+153),
            (-5.618954654352739e+149, -2.4247706137281647e+149, -1.4810726805358105e+150),
            (-7.834903161577677e+153, 4.287198403732202e+153, -3.1810185536793028e+153),
        ])
        for i in range(len(samples)):
            assert knn(samples, i, 1) == restacking_knn(samples, i, 1)

    def test_wide_class_in_many_blocks_equals_restacking_search(self):
        # the perfbench row shape: width 300, values on a 0.001 grid around a centre
        rng = np.random.default_rng(8)
        centre = rng.integers(-700, 700, size=300) / 1000
        samples = rows_from(np.round(centre + rng.integers(-300, 301, size=(150, 300)) / 1000, 3))
        matrix = np.stack([row.values for row in samples])
        with mock.patch.object(resample, "_BLOCK_ELEMENTS", 40 * len(samples)):
            neighbours = knn_minority(matrix, 5)
        assert neighbours.shape == (150, 5)
        for i in range(len(samples)):
            assert neighbours[i].tolist() == restacking_knn(samples, i, 5)

    def test_equal_rows_rank_by_index_in_bounded_memory(self):
        # every row is a candidate of every row: 2,000 x 2,000 pairs of width 300
        matrix = np.ones((2000, 300))
        tracemalloc.start()
        try:
            neighbours = knn_minority(matrix, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        lowest = np.arange(6)
        for i, row in enumerate(neighbours):
            assert row.tolist() == lowest[lowest != i][:5].tolist()


def _knn_matrices():
    """Matrices whose neighbour search is easy to get wrong: exact ties from
    duplicate grid rows, cancellation under a large common offset, and
    magnitudes whose squared distances overflow or underflow."""
    grid = st.tuples(st.integers(2, 24), st.integers(1, 5), st.integers(0, 2**32 - 1)).map(
        lambda a: np.random.default_rng(a[2]).integers(-2, 3, size=a[:2]).astype(float)
    )
    scaled = st.tuples(
        st.integers(2, 24), st.integers(1, 5), st.integers(0, 2**32 - 1),
        st.sampled_from([(1.0, 0.0), (1.0, 1e6), (1e200, 0.0), (1e153, 0.0), (1e-160, 0.0)]),
    ).map(lambda a: a[3][0] * np.random.default_rng(a[2]).normal(size=a[:2]) + a[3][1])
    return st.one_of(grid, scaled)


class TestKnnProperties:
    @settings(max_examples=300, deadline=None)
    @given(matrix=_knn_matrices(), duplicates=st.lists(st.integers(0, 23), max_size=4),
           block=st.integers(1, 600))
    def test_every_row_equals_restacking_search(self, matrix, duplicates, block):
        for idx in duplicates:
            matrix[idx % len(matrix)] = matrix[0]
        samples = rows_from(matrix)
        with mock.patch.object(resample, "_BLOCK_ELEMENTS", block):
            for k in range(1, len(samples)):
                neighbours = knn_minority(matrix, k)
                for i in range(len(samples)):
                    assert neighbours[i].tolist() == restacking_knn(samples, i, k)


class TestDrawProperties:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           k=st.sampled_from([1, 2, 3, 5, 7, 100, 2**31 + 11, 2**32]),
           rounds=st.one_of(st.integers(0, 5), st.integers(0, 400)),
           permutations=st.integers(0, 2))
    @example(seed=7, k=5, rounds=25, permutations=1)  # leaves half a word behind
    @example(seed=7, k=2**31 + 11, rounds=1, permutations=1)
    @example(seed=4, k=2**31 + 11, rounds=5, permutations=0)  # only the last pick is rejected
    @example(seed=0, k=3, rounds=0, permutations=0)
    def test_equals_per_round_calls(self, seed, k, rounds, permutations):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (want_rng, got_rng):
            for _ in range(permutations):
                rng.permutation(48)
        if (seed, permutations) == (7, 1):
            assert got_rng.bit_generator.state["has_uint32"] == 1
        want = per_round_draws(want_rng, k, rounds)
        pick, gap = resample._draw_picks_and_gaps(got_rng, k, rounds)
        assert pick.tolist() == want[0].tolist()
        assert gap.tobytes() == want[1].tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    # at the default k a pick is rejected with chance 2**-32, so these draws
    # come from the array pass alone, with or without a kept half to start
    @pytest.mark.parametrize("permutations", [0, 1])
    def test_default_k_reads_only_raw_words(self, permutations):
        want_rng, got_rng = np.random.default_rng(7), np.random.default_rng(7)
        for rng in (want_rng, got_rng):
            for _ in range(permutations):
                rng.permutation(48)
        assert got_rng.bit_generator.state["has_uint32"] == permutations
        want = per_round_draws(want_rng, 5, 10_000)
        pick, gap = resample._draw_picks_and_gaps(RawWordsOnly(got_rng), 5, 10_000)
        assert pick.tolist() == want[0].tolist()
        assert gap.tobytes() == want[1].tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class RawWordsOnly:
    """A generator whose own draws raise; only its bit generator can be read."""

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator

    def integers(self, *args):
        raise AssertionError("drew with the generator's own calls")

    random = integers


class TestPopulate:
    def test_gap_zero_returns_sample(self):
        matrix = np.array([(1.5, -2.0), (3.0, 4.0)])
        out = populate_synthetic(matrix, np.array([0]), np.array([1]), np.array([0.0]))
        assert np.array_equal(out[0], matrix[0])

    def test_gap_near_one_approaches_neighbor(self):
        matrix = np.array([(0.0, 0.0), (2.0, 4.0)])
        out = populate_synthetic(matrix, np.array([0]), np.array([1]), np.array([1.0 - 1e-12]))
        assert np.allclose(out[0], matrix[1], atol=1e-10)

    def test_midpoint(self):
        matrix = np.array([(1.0, 1.0), (3.0, 5.0)])
        out = populate_synthetic(matrix, np.array([0]), np.array([1]), np.array([0.5]))
        assert np.array_equal(out[0], np.array([2.0, 3.0]))

    @pytest.mark.parametrize("gap", [1.0, -0.25, float("nan")])
    def test_gap_outside_unit_interval_rejected(self, gap):
        matrix = np.array([(0.0,), (1.0,)])
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            populate_synthetic(matrix, np.array([0, 1]), np.array([1, 0]), np.array([0.5, gap]))

    @pytest.mark.parametrize("source, neighbor", [([0, 2], [1, 0]), ([0, 1], [1, -1])],
                             ids=["source-past-end", "neighbor-negative"])
    def test_row_index_outside_matrix_rejected(self, source, neighbor):
        matrix = np.array([(0.0,), (1.0,)])
        with pytest.raises(ValueError, match=r"row index outside \[0, 2\)"):
            populate_synthetic(matrix, np.array(source), np.array(neighbor), np.array([0.5, 0.5]))

    def test_equals_per_row_interpolation_across_chunks(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(9, 7)) * 10.0 ** rng.integers(-3, 4, size=(9, 1))
        source, neighbor = rng.integers(9, size=50), rng.integers(9, size=50)
        gap = rng.random(50)
        with mock.patch.object(resample, "_BLOCK_ELEMENTS", 20):
            out = populate_synthetic(matrix, source, neighbor, gap)
        for row, s, n, g in zip(out, source, neighbor, gap.tolist()):
            assert row.tobytes() == (matrix[s] + g * (matrix[n] - matrix[s])).tobytes()


class TestPopulateProperties:
    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(1, 6), width=st.integers(1, 5), synthetic=st.integers(0, 40),
           block=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_equals_formula_in_every_block(self, count, width, synthetic, block, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(count, width)) * 10.0 ** rng.integers(-300, 300, size=(count, 1))
        source, neighbor = rng.integers(count, size=synthetic), rng.integers(count, size=synthetic)
        gap = rng.random(synthetic)
        with mock.patch.object(resample, "_BLOCK_ELEMENTS", block), np.errstate(all="ignore"):
            out = populate_synthetic(matrix, source, neighbor, gap)
            want = matrix[source] + gap[:, None] * (matrix[neighbor] - matrix[source])
        assert out.shape == (synthetic, width)
        assert out.tobytes() == want.tobytes()


class TestSmote:
    def test_amount_200_doubles(self):
        out = smote(rows_from([(0, 0), (1, 0), (0, 1), (1, 1)]), SmoteConfig(200, k=1, seed=7))
        assert len(out.rows) == 8
        assert len(out.provenance) == 8

    def test_amount_50_subsamples(self):
        out = smote(rows_from([(0, 0), (1, 0), (0, 1), (1, 1)]), SmoteConfig(50, k=1, seed=7))
        assert len(out.rows) == 2
        assert len({p.source for p in out.provenance}) == 2

    def test_identical_rows_give_identical_synthetics(self):
        out = smote(rows_from([(3, 3)] * 4), SmoteConfig(100, k=2, seed=0))
        for row in out.rows:
            assert np.array_equal(row.values, np.array([3.0, 3.0]))

    def test_segment_bound(self):
        rng = np.random.default_rng(5)
        minority = rows_from(rng.normal(size=(10, 4)))
        out = smote(minority, SmoteConfig(300, k=3, seed=11))
        assert len(out.rows) == 30
        for row, prov in zip(out.rows, out.provenance):
            lo = np.minimum(minority[prov.source].values, minority[prov.neighbor].values)
            hi = np.maximum(minority[prov.source].values, minority[prov.neighbor].values)
            assert np.all(row.values >= lo - 1e-12)
            assert np.all(row.values <= hi + 1e-12)

    def test_provenance_consistent_with_rows(self):
        minority = rows_from([(0, 0), (2, 0), (0, 2), (4, 4)])
        out = smote(minority, SmoteConfig(200, k=2, seed=3))
        for row, prov in zip(out.rows, out.provenance):
            sample, neighbor = minority[prov.source].values, minority[prov.neighbor].values
            assert np.array_equal(row.values, sample + prov.gap * (neighbor - sample))

    def test_deterministic_given_seed(self):
        minority = rows_from(np.random.default_rng(1).normal(size=(6, 3)))
        a = smote(minority, SmoteConfig(200, k=2, seed=42))
        b = smote(minority, SmoteConfig(200, k=2, seed=42))
        assert a.provenance == b.provenance
        for ra, rb in zip(a.rows, b.rows):
            assert np.array_equal(ra.values, rb.values)

    @pytest.mark.parametrize("n_percent, count", [(29, 100), (57, 100), (35, 180)])
    def test_amount_below_100_keeps_floor_of_n_t_over_100_rows(self, n_percent, count):
        # floor(0.29 * 100) in floating point is 28, one row short of floor(29)
        minority = rows_from(np.random.default_rng(count).normal(size=(count, 2)))
        out = smote(minority, SmoteConfig(n_percent, k=1, seed=0))
        assert len(out.rows) == n_percent * count // 100
        assert len({p.source for p in out.provenance}) == n_percent * count // 100

    @pytest.mark.parametrize("n_percent", [1, 29, 50, 99, 100, 200, 700])
    @pytest.mark.parametrize("seed", [0, 3, 12])
    def test_equals_per_row_loop(self, n_percent, seed):
        rng = np.random.default_rng(seed)
        minority = rows_from(np.round(rng.normal(size=(int(rng.integers(200, 260)), 6)), 2))
        config = SmoteConfig(n_percent, k=int(rng.integers(1, 6)), seed=seed)
        if n_percent * len(minority) // 100 <= config.k:
            config = SmoteConfig(n_percent, k=1, seed=seed)
        got, want = smote(minority, config), per_row_smote(minority, config)
        assert digest(got.rows) == digest(want.rows)
        assert got.provenance == want.provenance

    def test_overflowing_interpolation_rejected(self):
        minority = rows_from([(1e308, -1e308), (-1e308, 1e308)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="feature row contains non-finite values"):
                smote(minority, SmoteConfig(300, k=1, seed=0))

    def test_empty_minority_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            smote([], SmoteConfig(100, k=1))

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="k="):
            smote(rows_from([(0,), (1,)]), SmoteConfig(100, k=2))

    def test_k_too_large_after_subsample_rejected(self):
        with pytest.raises(ValueError, match="k="):
            smote(rows_from([(0,), (1,), (2,), (3,)]), SmoteConfig(50, k=2))

    def test_labels_never_change(self):
        out = smote(rows_from([(0,), (1,), (2,)], label="ORG"), SmoteConfig(100, k=1, seed=0))
        assert {row.label for row in out.rows} == {"ORG"}

    @pytest.mark.parametrize("n_percent", [150, 101, 250, 1099])
    def test_amount_over_100_must_be_a_multiple_of_100(self, n_percent):
        # Chawla et al. oversample by whole multiples of 100% above 100%
        with pytest.raises(ValueError, match="multiple of 100"):
            SmoteConfig(n_percent, k=1)
        for valid in (1, 50, 99, 100, 200, 300, 1000):
            assert SmoteConfig(valid, k=1).n_percent == valid

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SmoteConfig(100, k=1, seed=-1)


class TestBalance:
    def test_match_majority_expands_minority(self):
        rows = rows_from([(float(i), 0.0) for i in range(10)], label="O")
        rows += rows_from([(0.0, 1.0), (0.0, 2.0)], label="PER")
        balanced = balance_token_dataset(rows, MATCH_MAJORITY, SmoteConfig(100, k=1, seed=9))
        assert class_counts(balanced) == {"O": 10, "PER": 10}

    def test_numeric_target_undersamples_majority(self):
        rows = rows_from([(float(i),) for i in range(10)], label="O")
        rows += rows_from([(20.0,), (21.0,), (22.0,)], label="PER")
        balanced = balance_token_dataset(rows, 3, SmoteConfig(100, k=1, seed=9))
        assert class_counts(balanced) == {"O": 3, "PER": 3}

    def test_already_balanced_is_permutation_of_input(self):
        rows = rows_from([(0.0,), (1.0,)], label="A") + rows_from([(2.0,), (3.0,)], label="B")
        balanced = balance_token_dataset(rows, 2, SmoteConfig(100, k=1, seed=4))
        key = lambda r: (r.label, tuple(r.values))
        assert sorted(balanced, key=key) == sorted(rows, key=key)

    def test_tiny_class_rejected_with_name(self):
        rows = rows_from([(float(i),) for i in range(10)], label="O")
        rows += rows_from([(99.0,)], label="PER")
        with pytest.raises(ValueError, match="'PER'"):
            balance_token_dataset(rows, MATCH_MAJORITY, SmoteConfig(100, k=1, seed=0))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        rows = rows_from(rng.normal(size=(12, 2)), label="O")
        rows += rows_from(rng.normal(size=(4, 2)), label="LOC")
        config = SmoteConfig(100, k=2, seed=77)
        a = balance_token_dataset(rows, MATCH_MAJORITY, config)
        b = balance_token_dataset(rows, MATCH_MAJORITY, config)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.label == rb.label and np.array_equal(ra.values, rb.values)


    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("target", [MATCH_MAJORITY, 45, 130])
    def test_equals_per_row_smote(self, seed, target):
        rng = np.random.default_rng(seed)
        rows = []
        for label, count in (("O", 60), ("ORG", 23), ("LOC", 9), ("PER", 6)):
            rows += rows_from(rng.normal(loc=rng.integers(-3, 4), size=(count, 5)), label=label)
        config = SmoteConfig(100, k=int(rng.integers(1, 6)), seed=seed)

        def recorded(function, provenance):
            def wrapped(minority, config):
                result = function(minority, config)
                provenance.append(result.provenance)
                return result
            return wrapped

        got_provenance, want_provenance = [], []
        with mock.patch.object(resample, "smote", recorded(smote, got_provenance)):
            got = balance_token_dataset(rows, target, config)
        with mock.patch.object(resample, "smote", recorded(per_row_smote, want_provenance)):
            want = balance_token_dataset(rows, target, config)
        assert digest(got) == digest(want)
        assert got_provenance == want_provenance and got_provenance


class TestFeatureRowFormat:
    def test_round_trip(self):
        rows = rows_from([(0.5, -1.25), (3.0, 2.0)], label="LOC") + rows_from(
            [(0.1, 0.2)], label="O"
        )
        text = write_feature_rows(rows)
        back = parse_feature_rows(text)
        assert len(back) == 3
        for ra, rb in zip(rows, back):
            assert ra.label == rb.label and np.array_equal(ra.values, rb.values)

    def test_header_width_enforced(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_feature_rows("3\nPER\t1.0 2.0\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_feature_rows("1\nPER\tnope\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_feature_rows("width\nPER\t1.0\n")

    def test_row_narrower_than_one_value_rejected(self):
        with pytest.raises(ValueError, match="attribute count must be at least 1, got 0"):
            write_feature_rows([FeatureRow(np.array([]), "O")])

    @pytest.mark.parametrize("label", ["#PER", "P\tER", "PER\n", "PER\r"])
    def test_label_that_would_not_read_back_rejected(self, label):
        rows = rows_from([(1.0, 2.0)], label="O") + rows_from([(3.0, 4.0)], label=label)
        with pytest.raises(ValueError, match="row 1: label"):
            write_feature_rows(rows)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\nO\t1 2\n\t1 2\n", "line 3: feature row needs a label"),
            ("2\nX\t1e999 1\n", "line 2: feature row contains non-finite values"),
        ],
    )
    def test_row_errors_carry_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_feature_rows(text)


# labels the writer accepts: it refuses a leading '#', a tab and a line break
_LABELS = st.text(min_size=1, max_size=5)


def _writable(label: str) -> bool:
    return not label.startswith("#") and not set(label) & {"\t", "\r", "\n"}


class TestFeatureRowProperties:
    @settings(max_examples=300, deadline=None)
    @given(field=NUMBER_FIELDS.filter(lambda f: f and not any(c.isspace() for c in f)))
    def test_values_read_as_float_reads_them(self, field):
        text = f"2\nA\t1 2\nB\t{field} 0.25\n"
        expected = float_or_none(field)
        if expected is None:
            with pytest.raises(ValueError, match="line 3: non-numeric value"):
                parse_feature_rows(text)
        elif not np.isfinite(expected):
            with pytest.raises(ValueError, match="line 3: feature row contains non-finite"):
                parse_feature_rows(text)
        else:
            assert same_float(parse_feature_rows(text)[1].values[0], expected)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_write_then_parse_round_trips(self, data):
        width = data.draw(st.integers(1, 4), label="width")
        values = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=width, max_size=width)
        rows = [FeatureRow(np.array(v), label)
                for label, v in data.draw(st.lists(st.tuples(_LABELS, values), min_size=1,
                                                   max_size=5), label="rows")]
        if not all(_writable(row.label) for row in rows):
            with pytest.raises(ValueError, match="label"):
                write_feature_rows(rows)
            return
        back = parse_feature_rows(write_feature_rows(rows))
        assert [row.label for row in back] == [row.label for row in rows]
        for got, want in zip(back, rows):
            assert got.values.tobytes() == want.values.tobytes()


# one value: valid spellings, spellings only float() reads, non-finite and non-numeric ones
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0.0", "+.5", "5.", "1e-400", "0.1000000000000000055511151231257827"]),
    st.sampled_from(["1_0", "\u0661", "\uff11"]),
    st.sampled_from(["nan", "1e999", "-inf"]),
    st.sampled_from(["nope", "1,5", "0x10", "#1", "\"1\""]),
)
# between values: ASCII, Unicode and control-character whitespace, and a bare carriage return
_GAPS = st.sampled_from([" ", "  ", "\x1c", "\u00a0", " \u3000", "\x0b", "\r"])


@st.composite
def _data_line(draw, width: int) -> str:
    kind = draw(st.sampled_from(["row"] * 6 + ["comment", "blank", "no-tab", "two-tabs"]))
    if kind == "comment":
        return "# " + draw(st.text(alphabet="ab \t", max_size=4))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    count = draw(st.sampled_from([width] * 8 + [max(0, width - 1), width + 1]))
    values = draw(st.lists(_VALUES, min_size=count, max_size=count))
    text = values[0] if values else ""
    for value in values[1:]:
        text += draw(_GAPS) + value
    text = draw(st.sampled_from(["", " ", "\u00a0"])) + text + draw(st.sampled_from(["", " "]))
    label = draw(st.sampled_from(["O", "PER", "B-LOC", "", " ", "ሰው"]))
    if kind == "no-tab":
        return label + " " + text
    if kind == "two-tabs":
        return label + "\t" + text + "\t"
    return label + "\t" + text


@st.composite
def _feature_file(draw) -> str | bytes:
    width = draw(st.integers(0, 4))
    header = draw(st.sampled_from([str(width), f" {width} ", "w"] if width else ["0"]))
    lines = [header] + draw(st.lists(_data_line(width), max_size=8))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return text.encode() if draw(st.booleans()) else text


def _read(rows):
    return [(row.label, row.values.tobytes()) for row in rows]


class TestBulkReader:
    """parse_feature_rows reads a file in one bulk parse and leaves every file
    that parse refuses to the line reader, which stays the reference."""

    @settings(max_examples=500, deadline=None)
    @given(text=_feature_file())
    def test_equals_line_reader(self, text):
        try:
            bulk = resample._parse_matrix(text)
        except ValueError:
            bulk = None
        try:
            want = resample._parse_lines(text)
        except FormatError as exc:
            assert bulk is None  # the bulk parse never reads a file the line reader refuses
            with pytest.raises(FormatError) as err:
                parse_feature_rows(text)
            assert str(err.value) == str(exc) and err.value.line == exc.line
            return
        if bulk is not None:
            assert _read(bulk) == _read(want)
        assert _read(parse_feature_rows(text)) == _read(want)

    def test_clean_file_is_one_matrix(self):
        rows = parse_feature_rows("2\nO\t1 2\r\n# c\n\nPER\t3\u00a0\x1c4\n")
        assert _read(rows) == _read([FeatureRow(np.array([1.0, 2.0]), "O"),
                                     FeatureRow(np.array([3.0, 4.0]), "PER")])
        assert rows[0].values.base is rows[1].values.base is not None

    @pytest.mark.parametrize("text", ["3\n", "3\n# only a comment\n\n"])
    def test_no_rows_reads_without_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_feature_rows(text) == []

    @pytest.mark.parametrize("text, count", [
        ("0\nO\t\nPER\t \n", 0), ("-2\nO\t1 2\n", -2),
    ], ids=["0", "-2"])
    def test_attribute_count_below_one_refused(self, text, count):
        message = f"line 1: attribute count must be at least 1, got {count}"
        for read in (resample._parse_matrix, resample._parse_lines, parse_feature_rows):
            with pytest.raises(FormatError, match=message):
                read(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\nO\t1 2\nO\tnope 1\nO\t1\n", "line 3: non-numeric value"),
            ("2\nO\t1 2\nO\t1\nO\tnope 1\n", "line 3: expected 2 values, got 1"),
            ("2\nO\t1_0 2\nO\tnan 1\n\t1 2\n", "line 3: feature row contains non-finite"),
            ("1\nO\t1\r2\n", "line 2: expected 1 values, got 2"),
            ("1\nO\t1\nO\t\n", "line 3: expected 1 values, got 0"),
            ("2\nO\t1 2 #3\n", "line 2: expected 2 values, got 3"),
        ],
    )
    def test_first_bad_line_named(self, text, message):
        with pytest.raises(FormatError, match=message):
            parse_feature_rows(text)

    def test_float_only_spellings_read(self):
        rows = parse_feature_rows("2\nO\t1_0 \u0661\nO\t10 1\n")
        assert rows[0].values.tobytes() == rows[1].values.tobytes()
