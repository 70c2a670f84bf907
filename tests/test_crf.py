import itertools
import math

import numpy as np
import pytest
from helpers import path_score

from amner.corpus import Sentence, TagScheme, Token, tag_from_str, validate_tags
from amner.crf import (
    CrfParams,
    build_iob2_mask,
    default_tagset,
    nll_loss_and_grad,
    viterbi_decode,
)


def enumerate_legal_paths(params, length, masks=None):
    """Brute-force oracle: every path that ``masks`` (trans_mask, start_mask) allows."""
    k = params.num_tags
    for path in itertools.product(range(k), repeat=length):
        if masks is not None:
            trans_mask, start_mask = masks
            if not start_mask[path[0]] or any(not trans_mask[a, b] for a, b in zip(path, path[1:])):
                continue
        yield list(path)


def brute_force_log_partition(params, emissions, masks=None):
    scores = [
        path_score(params, emissions, path)
        for path in enumerate_legal_paths(params, emissions.shape[0], masks)
    ]
    return np.logaddexp.reduce(scores)


def log_partition(params, emissions, masks=None):
    """log Z of one sequence: the loss of its all-O gold path plus that path's score."""
    outside = [0] * len(emissions)
    loss = nll_loss_and_grad(params, emissions, outside, [len(emissions)], masks)[0]
    return loss + path_score(params, emissions, outside)


def brute_force_viterbi(params, emissions, masks=None):
    best_path, best_score = None, -np.inf
    for path in enumerate_legal_paths(params, emissions.shape[0], masks):
        score = path_score(params, emissions, path)
        if score > best_score or (score == best_score and path < best_path):
            best_path, best_score = path, score
    return best_path, best_score


def random_instance(rng, max_len=4, max_tags=5):
    length = int(rng.integers(1, max_len + 1))
    k = int(rng.integers(1, max_tags + 1))
    emissions = rng.uniform(-3, 3, size=(length, k))
    params = CrfParams(
        rng.uniform(-3, 3, size=(k, k)),
        rng.uniform(-3, 3, size=k),
        rng.uniform(-3, 3, size=k),
    )
    return params, emissions


EM_2X2 = np.array([[1.0, 2.0], [3.0, 4.0]])


class TestScoreSequence:
    """A gold path's score, as the loss reads it: loss = log Z - score, so
    the losses of two gold paths differ by the difference of their scores."""

    def test_zero_transition_path(self):
        # [0, 0] scores 1 + 3 = 4, and [1, 1] scores 2 + 4 = 6
        params = CrfParams.zeros(2)
        first, second = (nll_loss_and_grad(params, EM_2X2, gold, [2])[0] for gold in ([0, 0], [1, 1]))
        assert first - second == 6.0 - 4.0

    def test_single_token(self):
        # [0] scores 0.5 + 2 + 0.25 = 2.75, and [1] scores 0
        params = CrfParams(np.zeros((2, 2)), np.array([0.5, 0.0]), np.array([0.25, 0.0]))
        emissions = np.array([[2.0, 0.0]])
        first, second = (nll_loss_and_grad(params, emissions, [tag], [1])[0] for tag in (0, 1))
        assert second - first == 2.75

    def test_masked_start_rejected(self):
        masks = np.ones((2, 2), bool), np.array([True, False])
        with pytest.raises(ValueError, match="tag 1 at position 0 is masked out"):
            nll_loss_and_grad(CrfParams.zeros(2), EM_2X2, [1, 0], [2], masks)


class TestLogPartition:
    def test_two_by_two_analytic(self):
        # paths score 4, 5, 5, 6 -> logZ = 4 + 2*log(1 + e)
        log_z = log_partition(CrfParams.zeros(2), EM_2X2)
        assert abs(log_z - (4.0 + 2.0 * math.log(1.0 + math.e))) < 1e-12

    def test_trivial_instance(self):
        assert log_partition(CrfParams.zeros(1), np.array([[0.0]])) == 0.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            params, emissions = random_instance(rng)
            expected = brute_force_log_partition(params, emissions)
            assert abs(log_partition(params, emissions) - expected) <= 1e-8

    def test_path_probabilities_sum_to_one(self):
        # a path's probability is exp(-loss) with that path as the gold one
        rng = np.random.default_rng(55)
        for _ in range(20):
            params, emissions = random_instance(rng, max_len=3, max_tags=4)
            mass = sum(
                math.exp(-nll_loss_and_grad(params, emissions, p, [len(emissions)])[0])
                for p in enumerate_legal_paths(params, emissions.shape[0])
            )
            assert abs(mass - 1.0) < 1e-10

    def test_column_shift_property(self):
        rng = np.random.default_rng(7)
        params, emissions = random_instance(rng, max_len=4, max_tags=4)
        shifted = emissions.copy()
        shifted[0] += 2.5
        before = log_partition(params, emissions)
        after = log_partition(params, shifted)
        assert abs(after - (before + 2.5)) < 1e-9
        lengths = [len(emissions)]
        assert viterbi_decode(params, emissions, lengths)[0] == viterbi_decode(params, shifted, lengths)[0]

    def test_over_constrained_mask_rejected(self):
        # no path is legal, so neither is the gold one
        masks = np.ones((2, 2), bool), np.zeros(2, bool)
        with pytest.raises(ValueError, match="tag 0 at position 0 is masked out"):
            log_partition(CrfParams.zeros(2), EM_2X2, masks)

    def test_masked_matches_enumeration(self):
        rng = np.random.default_rng(103)
        masks = build_iob2_mask(IOB2_TAGS)
        for _ in range(30):
            params = CrfParams(*(rng.uniform(-3, 3, shape) for shape in ((5, 5), 5, 5)))
            emissions = rng.uniform(-3, 3, size=(int(rng.integers(1, 5)), 5))
            expected = brute_force_log_partition(params, emissions, masks)
            assert abs(log_partition(params, emissions, masks) - expected) <= 1e-8
            expected_path, expected_score = brute_force_viterbi(params, emissions, masks)
            (path,), (score,) = viterbi_decode(params, emissions, [len(emissions)], masks)
            assert path == expected_path
            assert abs(score - expected_score) < 1e-9


class TestViterbi:
    def test_two_by_two(self):
        (path,), (score,) = viterbi_decode(CrfParams.zeros(2), EM_2X2, [2])
        assert path == [1, 1]
        assert score == 6.0

    def test_single_tag(self):
        (path,), (score,) = viterbi_decode(CrfParams.zeros(1), np.array([[1.0], [2.0]]), [2])
        assert path == [0, 0]
        assert score == 3.0

    def test_matches_enumeration_with_tie_break(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            params, emissions = random_instance(rng)
            expected_path, expected_score = brute_force_viterbi(params, emissions)
            (path,), (score,) = viterbi_decode(params, emissions, [len(emissions)])
            assert path == expected_path
            assert abs(score - expected_score) < 1e-9

    def test_exact_tie_breaks_lexicographic(self):
        # all paths score 0; the smallest sequence must win
        (path,), (score,) = viterbi_decode(CrfParams.zeros(3), np.zeros((3, 3)), [3])
        assert path == [0, 0, 0]
        assert score == 0.0

    def test_over_constrained_mask_rejected(self):
        masks = np.ones((2, 2), bool), np.zeros(2, bool)
        with pytest.raises(ValueError, match="no legal path"):
            viterbi_decode(CrfParams.zeros(2), EM_2X2, [2], masks)

    # unmasked, the best score and the partition overflow to +inf; masked,
    # +inf meets a forbidden -inf as NaN; neither may warn before the error
    @pytest.mark.parametrize("nll, masked", [
        (False, False), (False, True), (True, False), (True, True),
    ], ids=["False", "True", "nll-False", "nll-True"])
    def test_overflowed_scores_rejected_without_warning(self, nll, masked):
        params = CrfParams(np.full((5, 5), 1e308), np.zeros(5), np.zeros(5))
        masks = build_iob2_mask(IOB2_TAGS) if masked else None
        message = "the partition computation" if nll else "Viterbi decoding"
        with pytest.raises(ValueError, match=f"non-finite scores in {message}"):
            if nll:
                log_partition(params, np.zeros((3, 5)), masks)
            else:
                viterbi_decode(params, np.zeros((3, 5)), [3], masks)

    def test_overflowed_gold_score_rejected_without_warning(self):
        # log_z is 1e308, but the gold path's score sums to +inf left to right
        params = CrfParams(np.array([[1e308]]), np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="non-finite gold path score"):
            nll_loss_and_grad(params, np.array([[-1e308], [1e308]]), [0, 0], [2])

    def test_masked_decoding_avoids_forbidden_transitions(self):
        tags = default_tagset(["LOC", "ORG"])
        params = CrfParams.zeros(len(tags))
        rng = np.random.default_rng(3)
        o_idx = tags.index("O")
        for _ in range(50):
            emissions = rng.uniform(-3, 3, size=(5, len(tags)))
            (path,), _ = viterbi_decode(params, emissions, [5], build_iob2_mask(tags))
            for prev, cur in zip(path, path[1:]):
                if tags[cur].startswith("I-"):
                    assert tags[prev].endswith(tags[cur][2:])
                    assert prev != o_idx
            assert not tags[path[0]].startswith("I-")


class TestLoss:
    def test_worked_example(self):
        params = CrfParams.zeros(2)
        loss, d_em, _ = nll_loss_and_grad(params, EM_2X2, [1, 1], [2])
        expected = (4.0 + 2.0 * math.log(1.0 + math.e)) - 6.0
        assert abs(loss - expected) < 1e-12
        assert d_em.shape == EM_2X2.shape

    def test_unique_legal_path_has_zero_loss(self):
        # start {0} and the one transition 0 -> 1 leave one path of length 2
        masks = np.array([[False, True], [False, False]]), np.array([True, False])
        loss, d_em, grads = nll_loss_and_grad(CrfParams.zeros(2), EM_2X2, [0, 1], [2], masks)
        assert abs(loss) < 1e-12
        assert np.max(np.abs(d_em)) < 1e-12

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            params, emissions = random_instance(rng)
            paths = list(enumerate_legal_paths(params, emissions.shape[0]))
            gold = paths[int(rng.integers(len(paths)))]
            loss, _, _ = nll_loss_and_grad(params, emissions, gold, [len(emissions)])
            assert loss >= -1e-12

    def test_illegal_gold_rejected(self):
        masks = np.array([[True, False], [True, True]]), np.ones(2, bool)
        with pytest.raises(ValueError, match="tag 1 at position 1 is masked out"):
            nll_loss_and_grad(CrfParams.zeros(2), EM_2X2, [0, 1], [2], masks)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        step = 1e-5
        for _ in range(20):
            params, emissions = random_instance(rng, max_len=4, max_tags=4)
            paths = list(enumerate_legal_paths(params, emissions.shape[0]))
            gold = paths[int(rng.integers(len(paths)))]
            _, d_em, grads = nll_loss_and_grad(params, emissions, gold, [len(emissions)])

            def loss_at(em, pr):
                return nll_loss_and_grad(pr, em, gold, [len(emissions)])[0]

            for idx in np.ndindex(emissions.shape):
                bumped = emissions.copy()
                bumped[idx] += step
                up = loss_at(bumped, params)
                bumped[idx] -= 2 * step
                down = loss_at(bumped, params)
                numeric = (up - down) / (2 * step)
                assert abs(numeric - d_em[idx]) <= 1e-6 * max(1.0, abs(numeric))

            for name, array in params.tensors().items():
                grad = grads[name]
                for idx in np.ndindex(array.shape):
                    original = array[idx]
                    array[idx] = original + step
                    up = loss_at(emissions, params)
                    array[idx] = original - step
                    down = loss_at(emissions, params)
                    array[idx] = original
                    numeric = (up - down) / (2 * step)
                    assert abs(numeric - grad[idx]) <= 1e-6 * max(1.0, abs(numeric)), name


class TestIob2Mask:
    TAGS = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]

    def test_i_reachable_only_from_same_type(self):
        trans_mask, start_mask = build_iob2_mask(self.TAGS)
        idx = {t: i for i, t in enumerate(self.TAGS)}
        assert not trans_mask[idx["O"], idx["I-PER"]]
        assert trans_mask[idx["B-PER"], idx["I-PER"]]
        assert trans_mask[idx["I-PER"], idx["I-PER"]]
        assert not trans_mask[idx["B-LOC"], idx["I-PER"]]
        assert not trans_mask[idx["I-ORG"] if "I-ORG" in idx else idx["I-LOC"], idx["I-PER"]]

    def test_start_at_i_forbidden(self):
        _, start_mask = build_iob2_mask(self.TAGS)
        idx = {t: i for i, t in enumerate(self.TAGS)}
        assert not start_mask[idx["I-PER"]]
        assert start_mask[idx["B-PER"]]
        assert start_mask[idx["O"]]

    def test_everything_else_allowed(self):
        trans_mask, _ = build_iob2_mask(self.TAGS)
        idx = {t: i for i, t in enumerate(self.TAGS)}
        assert trans_mask[idx["O"], idx["O"]]
        assert trans_mask[idx["O"], idx["B-PER"]]
        assert trans_mask[idx["I-PER"], idx["B-PER"]]

    def test_masks_agree_with_validate_tags(self):
        # one legality rule: a mask entry is true exactly when the sequence's
        # last token validates
        tags = default_tagset(["LOC", "PER"])
        trans_mask, start_mask = build_iob2_mask(tags)
        parsed = [tag_from_str(text, TagScheme.IOB2) for text in tags]

        def last_valid(*sequence):
            sentence = Sentence(tuple(Token("w", tag) for tag in sequence))
            return all(v.index != len(sequence) - 1 for v in validate_tags(sentence, TagScheme.IOB2))

        for j, tag in enumerate(parsed):
            assert start_mask[j] == last_valid(tag), tags[j]
            for i, prev in enumerate(parsed):
                assert trans_mask[i, j] == last_valid(prev, tag), (tags[i], tags[j])

    def test_orphan_i_rejected(self):
        with pytest.raises(ValueError, match="I-ORG"):
            build_iob2_mask(["O", "B-PER", "I-ORG"])

    def test_default_tagset_layout(self):
        assert default_tagset(["ORG", "PER", "LOC"]) == [
            "O", "B-LOC", "I-LOC", "B-ORG", "I-ORG", "B-PER", "I-PER",
        ]


IOB2_TAGS = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]


def concatenated_batch(rng, trial, skewed=False):
    """Random parameters, masks, and 1..5 emission matrices of lengths 1..4
    concatenated into (R, K) rows, plus the lengths.  Odd trials use zero
    scores, the IOB2 masks and small integer emissions, so that masked
    entries and exact ties occur; even trials have no masks.  A skewed
    batch instead holds 3..6 rows of length 1, two of length 3 and one
    of 8..12, shuffled."""
    masked = trial % 2 == 1
    k = len(IOB2_TAGS) if masked else int(rng.integers(1, 5))
    params = CrfParams(
        rng.uniform(-3, 3, size=(k, k)), rng.uniform(-3, 3, size=k), rng.uniform(-3, 3, size=k),
    )
    masks = None
    if masked:
        params, masks = CrfParams.zeros(k), build_iob2_mask(IOB2_TAGS)
    if skewed:
        lengths = rng.permutation([1] * int(rng.integers(3, 7)) + [3, 3, int(rng.integers(8, 13))])
    else:
        lengths = rng.integers(1, 5, size=int(rng.integers(1, 6)))
    emissions = np.concatenate([
        rng.integers(-1, 2, size=(length, k)) if masked else rng.uniform(-3, 3, (length, k))
        for length in lengths
    ]).astype(np.float64)
    return params, masks, emissions, lengths


def sequence_slices(lengths):
    """The slice of the concatenated rows that each sequence owns."""
    ends = np.cumsum(lengths)
    return [slice(end - length, end) for end, length in zip(ends, lengths)]


class TestBatches:
    def test_loss_and_gradients_sum_over_rows(self):
        rng = np.random.default_rng(5)
        for trial in range(34):
            skewed = trial >= 30
            params, masks, emissions, lengths = concatenated_batch(rng, trial, skewed)
            gold = np.zeros(len(emissions), dtype=np.int64)
            if skewed:  # legal paths without enumerating the long row's: Viterbi's on other scores
                other = rng.uniform(-3, 3, emissions.shape)
                gold[:] = np.concatenate(viterbi_decode(params, other, lengths, masks=masks)[0])
            else:
                for here, length in zip(sequence_slices(lengths), lengths):
                    paths = list(enumerate_legal_paths(params, length, masks))
                    gold[here] = paths[int(rng.integers(len(paths)))]
            rows = [
                nll_loss_and_grad(params, emissions[here], gold[here], [length], masks)
                for here, length in zip(sequence_slices(lengths), lengths)
            ]
            loss, d_em, grads = nll_loss_and_grad(params, emissions, gold, lengths, masks=masks)
            assert abs(loss - sum(row[0] for row in rows)) <= 1e-12 * max(1.0, abs(loss))
            assert d_em.shape == emissions.shape
            for here, row in zip(sequence_slices(lengths), rows):
                assert np.max(np.abs(d_em[here] - row[1])) <= 1e-12
            for name, grad in grads.items():
                assert np.max(np.abs(grad - sum(row[2][name] for row in rows))) <= 1e-12, name

    def test_viterbi_rows_match_single_decoding(self):
        rng = np.random.default_rng(6)
        for trial in range(44):
            params, masks, emissions, lengths = concatenated_batch(rng, trial, skewed=trial >= 40)
            paths, scores = viterbi_decode(params, emissions, lengths, masks=masks)
            for n, (here, length) in enumerate(zip(sequence_slices(lengths), lengths)):
                (path,), (score,) = viterbi_decode(params, emissions[here], [length], masks)
                assert paths[n] == path
                assert scores[n] == score

    def test_legal_unmasked_path_is_the_masked_path(self):
        # the best of all paths, when legal, is the best legal path: with the
        # same tie-break both decoders return it, with the same score
        tags = default_tagset(["LOC", "PER"])
        masks = trans_mask, start_mask = build_iob2_mask(tags)
        k = len(tags)
        rng = np.random.default_rng(8)
        legal = total = 0
        for _ in range(150):
            params = CrfParams(rng.uniform(-2, 2, (k, k)), rng.uniform(-2, 2, k), rng.uniform(-2, 2, k))
            lengths = rng.integers(1, 7, size=int(rng.integers(1, 5)))
            emissions = np.concatenate([rng.uniform(-2, 2, (length, k)) for length in lengths])
            free_rows = zip(*viterbi_decode(params, emissions, lengths))
            masked_rows = zip(*viterbi_decode(params, emissions, lengths, masks=masks))
            rows = zip(free_rows, masked_rows, sequence_slices(lengths))
            for batch_free, batch_masked, here in rows:
                single = emissions[here]
                (free_path,), (free_score,) = viterbi_decode(params, single, [len(single)])
                (masked_path,), (masked_score,) = viterbi_decode(params, single, [len(single)], masks)
                singles = (free_path, free_score), (masked_path, masked_score)
                for got, want in ((batch_free, batch_masked), singles):
                    path = got[0]
                    total += 1
                    if start_mask[path[0]] and all(trans_mask[a, b] for a, b in zip(path, path[1:])):
                        legal += 1
                        assert (got[0], got[1]) == (want[0], want[1])
        assert 0 < legal < total

    def test_lengths_checked(self):
        emissions = np.zeros((6, 2))
        # a zero or negative length, sums other than the 6 rows, no length, a 2-D array
        for lengths in ([0, 6], [7, -1], [1, 4], [3, 4], [5], [], [[3, 3]]):
            with pytest.raises(ValueError, match="lengths must be at least 1 and sum to the 6"):
                viterbi_decode(CrfParams.zeros(2), emissions, np.array(lengths))
            with pytest.raises(ValueError, match="lengths must be at least 1 and sum to the 6"):
                nll_loss_and_grad(CrfParams.zeros(2), emissions, np.zeros(6, int), lengths)
        with pytest.raises(ValueError, match="gold paths"):
            nll_loss_and_grad(CrfParams.zeros(2), EM_2X2, [0, 1, 1], [2])
        with pytest.raises(ValueError, match="gold paths"):  # gold as (N, T) is not (R,)
            nll_loss_and_grad(CrfParams.zeros(2), emissions, np.zeros((2, 3), int), [3, 3])
