"""Linear-chain CRF over per-token emission scores.

A path through an L x K emission matrix is scored as

    start[t_1] + sum_l emissions[l][t_l] + sum_l transitions[t_l][t_{l+1}] + end[t_L]

The parameters are these three score tensors.  A tagging scheme's
legality rule is a call argument: ``masks=(trans_mask, start_mask)``
(True = allowed, as :func:`build_iob2_mask` returns them).  Each call
turns the masked-out entries into -inf scores once, so illegal paths
carry exactly zero probability.  The partition function and the
marginals behind the loss gradient are computed in the log domain.

The loss and Viterbi decoding take the (R, K) emissions of N sequences
concatenated in order, plus each sequence's length; a single (L, K)
matrix without lengths is one sequence.  Only the recursions see
padding: they zero-pad to (N, T, K) and step all N sequences at once,
with the same per-sequence operations as on one, never reading past an end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import O_TAG, OUTSIDE, Tag, TagScheme, tag_from_str, tag_violation

NEG_INF = -np.inf


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-sum-exp that tolerates all-(-inf) slices (they stay -inf)."""
    peak = np.max(a, axis=axis, keepdims=True)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - safe_peak), axis=axis))
    return out + np.squeeze(safe_peak, axis=axis)


@dataclass
class CrfParams:
    """Transition and boundary scores."""

    transitions: np.ndarray  # (K, K): score of tag j following tag i
    start_scores: np.ndarray  # (K,)
    end_scores: np.ndarray  # (K,)

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.start_scores = np.asarray(self.start_scores, dtype=np.float64)
        self.end_scores = np.asarray(self.end_scores, dtype=np.float64)
        k = self.num_tags
        if self.transitions.shape != (k, k):
            raise ValueError(f"transitions must be square, got {self.transitions.shape}")
        if self.end_scores.shape != (k,):
            raise ValueError("start/end score lengths disagree")

    @property
    def num_tags(self) -> int:
        return self.start_scores.shape[0]

    @classmethod
    def zeros(cls, num_tags: int) -> "CrfParams":
        return cls(
            np.zeros((num_tags, num_tags)), np.zeros(num_tags), np.zeros(num_tags)
        )

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "crf.transitions": self.transitions,
            "crf.start": self.start_scores,
            "crf.end": self.end_scores,
        }


def _scores(params: CrfParams, masks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(transitions, start, end) with the entries ``masks`` forbid set to -inf."""
    if masks is None:
        return params.transitions, params.start_scores, params.end_scores
    trans_mask, start_mask = masks
    trans = np.where(trans_mask, params.transitions, NEG_INF)
    return trans, np.where(start_mask, params.start_scores, NEG_INF), params.end_scores


def _as_batch(params: CrfParams, emissions: np.ndarray, lengths):
    """(emissions zero-padded to (N, T, K), lengths (N,), valid (N, T)) of (R, K) emissions."""
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 2 or not len(emissions) or emissions.shape[1] != params.num_tags:
        raise ValueError(f"emissions must be (R, {params.num_tags}) with R >= 1, got {emissions.shape}")
    lengths = np.asarray(emissions.shape[:1] if lengths is None else lengths, dtype=np.int64)
    if lengths.ndim != 1 or (lengths < 1).any() or lengths.sum() != len(emissions):
        raise ValueError(f"lengths must be at least 1 and sum to the {len(emissions)} emission rows")
    valid = np.arange(lengths.max()) < lengths[:, None]
    padded = np.zeros(valid.shape + emissions.shape[1:])
    padded[valid] = emissions
    return padded, lengths, valid


def _path_scores(scores, emissions: np.ndarray, tags: np.ndarray, lengths) -> np.ndarray:
    """Score (N,) of each row's tag path over its first lengths[n]
    positions under ``scores`` from :func:`_scores`; raises if a path
    crosses a masked entry."""
    trans, start, end = scores
    rows = np.arange(len(lengths))
    total = np.zeros(len(lengths))
    for pos in range(emissions.shape[1]):
        live, cur = pos < lengths, tags[:, pos]
        score = start[cur] if pos == 0 else trans[tags[:, pos - 1], cur]
        bad = np.flatnonzero(live & (score == NEG_INF))
        if bad.size:
            raise ValueError(f"row {bad[0]}: tag {cur[bad[0]]} at position {pos} is masked out")
        total = np.where(live, total + (score + emissions[rows, pos, cur]), total)
    return total + end[tags[rows, lengths - 1]]


def score_sequence(params: CrfParams, emissions: np.ndarray, tags, masks=None) -> float:
    """Score of one tag path; raises if the path crosses a masked entry."""
    emissions, lengths, _ = _as_batch(params, emissions, None)
    tags = np.array([list(tags)], dtype=np.int64)
    if tags.shape[1] != emissions.shape[1]:
        raise ValueError(f"path length {tags.shape[1]} != sequence length {emissions.shape[1]}")
    return float(_path_scores(_scores(params, masks), emissions, tags, lengths)[0])


def _forward(scores, emissions: np.ndarray, lengths: np.ndarray):
    """(alpha (N, T, K), log_z (N,)): alpha[n, l, k] is the log-sum of the
    scores of all legal prefixes of row n that end at position l with tag k."""
    trans, start, end = scores
    alpha = np.empty_like(emissions)
    alpha[:, 0] = start + emissions[:, 0]
    for pos in range(1, emissions.shape[1]):
        alpha[:, pos] = emissions[:, pos] + _logsumexp(alpha[:, pos - 1, :, None] + trans, axis=1)
    log_z = _logsumexp(alpha[np.arange(len(lengths)), lengths - 1] + end, axis=1)
    if np.isnan(log_z).any():
        raise ValueError("non-finite scores in the partition computation")
    if (log_z == NEG_INF).any():
        raise ValueError("no legal path: the constraint mask excludes every sequence")
    return alpha, log_z


def forward_log_partition(params: CrfParams, emissions: np.ndarray, masks=None) -> float:
    """log sum over all mask-legal paths of exp(path score)."""
    emissions, lengths, _ = _as_batch(params, emissions, None)
    return float(_forward(_scores(params, masks), emissions, lengths)[1][0])


def _backward(scores, emissions: np.ndarray, lengths: np.ndarray, reduce):
    """The backward recursion under ``reduce``: np.max gives Viterbi's
    suffix table, _logsumexp the marginals' beta.  Returns (inner, table),
    both (N, T, K).  inner[n, t, i] reduces the scores of the legal
    continuations of row n after tag i at position t, end score included;
    it is ``end`` from the row's last position on.  table = emissions + inner.
    """
    trans, _, end = scores
    last = (lengths - 1)[:, None]
    inner, table = np.empty_like(emissions), np.empty_like(emissions)
    inner[:, -1] = end
    table[:, -1] = emissions[:, -1] + end
    for pos in range(emissions.shape[1] - 2, -1, -1):
        rest = reduce(trans + table[:, pos + 1, None, :], axis=2)
        inner[:, pos] = np.where(pos >= last, end, rest)
        table[:, pos] = emissions[:, pos] + inner[:, pos]
    return inner, table


def viterbi_decode(params: CrfParams, emissions: np.ndarray, lengths=None, masks=None):
    """Highest-scoring legal path of each sequence, as (paths, scores); for
    a single (L, K) matrix without lengths, (path, score).  Ties break to
    the lexicographically smallest tag sequence (via a suffix table and
    greedy reconstruction).  Each score is the recursion's maximum, not a
    rescoring of the path.
    """
    single = lengths is None
    emissions, lengths, _ = _as_batch(params, emissions, lengths)
    scores = _scores(params, masks)
    trans, start, _ = scores
    size, steps, _ = emissions.shape
    _, suffix = _backward(scores, emissions, lengths, np.max)

    totals = start + suffix[:, 0]
    best = np.max(totals, axis=1)
    if np.isnan(best).any():
        raise ValueError("non-finite scores in Viterbi decoding")
    if (best == NEG_INF).any():
        raise ValueError("no legal path: the constraint mask excludes every sequence")
    paths = np.zeros((size, steps), dtype=np.int64)
    paths[:, 0] = np.argmax(totals, axis=1)  # argmax picks the smallest index on ties
    for pos in range(1, steps):
        paths[:, pos] = np.argmax(trans[paths[:, pos - 1]] + suffix[:, pos], axis=1)
    out = [paths[n, :length].tolist() for n, length in enumerate(lengths)]
    return (out[0], float(best[0])) if single else (out, best)


def _posteriors(scores, emissions: np.ndarray, lengths: np.ndarray, valid: np.ndarray):
    """Forward-backward pass; returns (log_z (N,), unary (N, T, K),
    pairwise (N, T-1, K, K)), both zero outside ``valid`` (N, T)."""
    alpha, log_z = _forward(scores, emissions, lengths)
    beta, table = _backward(scores, emissions, lengths, _logsumexp)

    norm = log_z[:, None, None]
    # padded positions may overflow or meet -inf - -inf; they are zeroed below
    with np.errstate(invalid="ignore", over="ignore"):
        unary = np.exp(alpha + beta - norm)
        pairwise = alpha[:, :-1, :, None] + scores[0] + table[:, 1:, None, :]
        pairwise = np.exp(pairwise - norm[..., None])
    unary[~valid] = 0.0
    pairwise[~valid[:, 1:]] = 0.0
    np.nan_to_num(unary, copy=False, nan=0.0)
    np.nan_to_num(pairwise, copy=False, nan=0.0)
    return log_z, unary, pairwise


def nll_loss_and_grad(
    params: CrfParams, emissions: np.ndarray, gold, lengths=None, masks=None
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Summed negative log-likelihood of the gold paths plus all gradients.

    ``gold`` is the (R,) tag ids beside the (R, K) ``emissions`` of the
    sequences ``lengths`` (one sequence without lengths).  Returns (loss,
    d_emissions (R, K), crf gradient dict keyed like tensors()).
    Gradients are marginal expectations minus gold indicators, summed
    over the sequences.
    """
    emissions, lengths, valid = _as_batch(params, emissions, lengths)
    flat_gold = np.asarray(gold, dtype=np.int64)
    if flat_gold.shape != (lengths.sum(),):
        raise ValueError(f"gold paths {flat_gold.shape} do not match {lengths.sum()} emission rows")
    gold = np.zeros(valid.shape, dtype=np.int64)
    gold[valid] = flat_gold
    scores = _scores(params, masks)
    gold_score = _path_scores(scores, emissions, gold, lengths)  # also validates legality
    log_z, unary, pairwise = _posteriors(scores, emissions, lengths, valid)
    loss = float(np.sum(log_z - gold_score))

    rows = np.arange(len(lengths))
    d_emissions = unary[valid]
    d_start = unary[:, 0].sum(axis=0)
    d_end = unary[rows, lengths - 1].sum(axis=0)
    d_trans = pairwise.sum(axis=(0, 1))
    d_emissions[np.arange(len(flat_gold)), flat_gold] -= 1.0
    np.subtract.at(d_start, gold[:, 0], 1.0)
    np.subtract.at(d_end, gold[rows, lengths - 1], 1.0)
    pairs = valid[:, 1:]
    np.subtract.at(d_trans, (gold[:, :-1][pairs], gold[:, 1:][pairs]), 1.0)
    grads = CrfParams(d_trans, d_start, d_end).tensors()
    return loss, d_emissions, grads


def build_iob2_mask(tagset: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Legality masks (trans_mask, start_mask) for an ordered IOB2 tag vocabulary.

    ``trans_mask[i, j]`` allows tag j after tag i and ``start_mask[j]``
    allows tag j first, as :func:`corpus.tag_violation` rules under IOB2;
    every tag may end a sequence.  Raises if a tag is not IOB2 or an
    I tag's type has no B tag.
    """
    parsed = [tag_from_str(text, TagScheme.IOB2) for text in tagset]
    b_types = {tag.etype for tag in parsed if tag.position == "B"}
    for tag in parsed:
        if tag.position == "I" and tag.etype not in b_types:
            raise ValueError(f"tagset has I-{tag.etype} without B-{tag.etype}")

    def allowed_after(prev: Tag) -> list[bool]:
        return [tag_violation(prev, tag, TagScheme.IOB2) is None for tag in parsed]

    k = len(parsed)
    trans_mask = np.array([allowed_after(prev) for prev in parsed], dtype=bool).reshape(k, k)
    start_mask = np.array(allowed_after(O_TAG), dtype=bool)
    return trans_mask, start_mask


def default_tagset(entity_types: list[str]) -> list[str]:
    """Tag vocabulary for a set of entity types: O first, then B/I pairs."""
    tags = [OUTSIDE]
    for etype in sorted(set(entity_types)):
        tags.append(f"B-{etype}")
        tags.append(f"I-{etype}")
    return tags
