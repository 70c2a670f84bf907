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
matrix without lengths is one sequence.  No array of the CRF or of the
model holds padding: the recursions step all N sequences at once in the
packed layout of :func:`_pack`, which the BiLSTM kernel of
:mod:`amner.model` shares, with the same per-sequence operations as on
one, and scatter their tables back to the concatenated rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import O_TAG, OUTSIDE, Tag, TagScheme, all_finite, tag_from_str, tag_violation

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


def _pack(lengths: np.ndarray):
    """(counts, starts, fwd, rev, prev, order): the packed, step-major
    layout of sequences with ``lengths``, concatenated in order.

    Rows are taken longest first, ties in row order; ``order`` lists them
    so.  The rows still running at step t are then the first counts[t]
    of them, and step t owns the packed positions starts[t] .. starts[t]
    + counts[t], the row order[s] at starts[t] + s.  ``fwd`` and ``rev``
    give each packed position's index into the concatenated sequences as
    the forward and the reverse direction read it.  prev[p] is the state
    that position p starts from, in state arrays whose first counts[0]
    rows are zero.
    """
    order = np.argsort(-lengths, kind="stable")
    counts = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]  # rows longer than t
    starts = np.cumsum(counts) - counts
    step = np.repeat(np.arange(len(counts)), counts)
    slot = np.arange(counts.sum()) - starts[step]
    rows = order[slot]
    # step 0 reads the zero states, step t > 0 the states step t - 1 wrote
    reads = np.concatenate([[0], counts[0] + starts[:-1]])
    ends = np.cumsum(lengths)[rows]
    fwd, rev = ends - lengths[rows] + step, ends - 1 - step
    return counts.tolist(), starts.tolist(), fwd, rev, reads[step] + slot, order


def _unpack(packed: np.ndarray, fwd: np.ndarray) -> np.ndarray:
    """A packed array's rows in the concatenated layout."""
    out = np.empty_like(packed)
    out[fwd] = packed
    return out


def _layout(params: CrfParams, emissions: np.ndarray, lengths):
    """(packed (R, K), lengths (N,), pack) of checked (R, K) emissions:
    ``pack`` is :func:`_pack` of the lengths, ``packed`` the emissions in
    its layout."""
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 2 or not len(emissions) or emissions.shape[1] != params.num_tags:
        raise ValueError(f"emissions must be (R, {params.num_tags}) with R >= 1, got {emissions.shape}")
    lengths = np.asarray(emissions.shape[:1] if lengths is None else lengths, dtype=np.int64)
    if lengths.ndim != 1 or (lengths < 1).any() or lengths.sum() != len(emissions):
        raise ValueError(f"lengths must be at least 1 and sum to the {len(emissions)} emission rows")
    pack = _pack(lengths)
    return emissions[pack[2]], lengths, pack


def _path_scores(scores, packed: np.ndarray, tags: np.ndarray, lengths, pack) -> np.ndarray:
    """Score (N,) of each sequence's path in the concatenated ``tags``
    (R,) under ``scores`` from :func:`_scores`; raises if a path crosses
    a masked entry."""
    trans, start, end = scores
    counts, starts, fwd, _, _, order = pack
    steps = tags[fwd]
    total = np.zeros(counts[0])
    for pos, (n, lo, prev) in enumerate(zip(counts, starts, [0] + starts)):
        cur = steps[lo:lo + n]
        score = start[cur] if pos == 0 else trans[steps[prev:prev + n], cur]
        bad = np.flatnonzero(score == NEG_INF)
        if bad.size:
            slot = bad[np.argmin(order[bad])]
            raise ValueError(f"row {order[slot]}: tag {cur[slot]} at position {pos} is masked out")
        total[:n] += score + packed[np.arange(lo, lo + n), cur]
    return total[np.argsort(order)] + end[tags[np.cumsum(lengths) - 1]]


def score_sequence(params: CrfParams, emissions: np.ndarray, tags, masks=None) -> float:
    """Score of one tag path; raises if the path crosses a masked entry."""
    packed, lengths, pack = _layout(params, emissions, None)
    tags = np.array(list(tags), dtype=np.int64)
    if len(tags) != len(packed):
        raise ValueError(f"path length {len(tags)} != sequence length {len(packed)}")
    return float(_path_scores(_scores(params, masks), packed, tags, lengths, pack)[0])


def _forward(scores, packed: np.ndarray, lengths: np.ndarray, pack):
    """(alpha (R, K), log_z (N,)): alpha[r, k] is the log-sum of the scores
    of all legal prefixes of r's sequence that end at row r with tag k,
    in the concatenated layout."""
    trans, start, end = scores
    counts, starts, fwd = pack[:3]
    alpha = packed.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite log_z is refused below
        alpha[:counts[0]] += start
        for n, lo, prev in zip(counts[1:], starts[1:], starts):
            alpha[lo:lo + n] += _logsumexp(alpha[prev:prev + n, :, None] + trans, axis=1)
        alpha = _unpack(alpha, fwd)
        log_z = _logsumexp(alpha[np.cumsum(lengths) - 1] + end, axis=1)
    if not (log_z < np.inf).all():  # NaN or +inf; -inf is the no-legal-path case
        raise ValueError("non-finite scores in the partition computation")
    if (log_z == NEG_INF).any():
        raise ValueError("no legal path: the constraint mask excludes every sequence")
    return alpha, log_z


def forward_log_partition(params: CrfParams, emissions: np.ndarray, masks=None) -> float:
    """log sum over all mask-legal paths of exp(path score)."""
    packed, lengths, pack = _layout(params, emissions, None)
    return float(_forward(_scores(params, masks), packed, lengths, pack)[1][0])


def _backward(scores, packed: np.ndarray, pack, reduce):
    """The backward recursion under ``reduce``: np.max gives Viterbi's
    suffix table, _logsumexp the marginals' beta.  Returns (inner, table),
    both (R, K) in the packed layout.  inner[p, i] reduces the scores of
    the legal continuations of p's sequence after tag i at position p,
    end score included; it is ``end`` at the sequence's last position.
    table = packed + inner.
    """
    trans, _, end = scores
    counts, starts = pack[:2]
    inner, table = np.broadcast_to(end, packed.shape).copy(), packed.copy()
    n_next = lo_next = 0  # step t's first n_next rows run on at step t + 1, from lo_next
    for n, lo in zip(reversed(counts), reversed(starts)):
        inner[lo:lo + n_next] = reduce(trans + table[lo_next:lo_next + n_next, None, :], axis=2)
        table[lo:lo + n] += inner[lo:lo + n]
        n_next, lo_next = n, lo
    return inner, table


def viterbi_decode(params: CrfParams, emissions: np.ndarray, lengths=None, masks=None):
    """Highest-scoring legal path of each sequence, as (paths, scores); for
    a single (L, K) matrix without lengths, (path, score).  Ties break to
    the lexicographically smallest tag sequence (via a suffix table and
    greedy reconstruction).  Each score is the recursion's maximum, not a
    rescoring of the path.
    """
    single = lengths is None
    packed, lengths, pack = _layout(params, emissions, lengths)
    counts, starts, fwd, _, _, order = pack
    scores = _scores(params, masks)
    trans, start, _ = scores
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite best score is refused below
        _, suffix = _backward(scores, packed, pack, np.max)
        totals = start + suffix[:counts[0]]
    best = np.max(totals, axis=1)[np.argsort(order)]
    if not (best < np.inf).all():  # NaN or +inf; -inf is the no-legal-path case
        raise ValueError("non-finite scores in Viterbi decoding")
    if (best == NEG_INF).any():
        raise ValueError("no legal path: the constraint mask excludes every sequence")
    paths = np.empty(len(fwd), dtype=np.int64)
    paths[:counts[0]] = np.argmax(totals, axis=1)  # argmax picks the smallest index on ties
    for n, lo, prev in zip(counts[1:], starts[1:], starts):
        paths[lo:lo + n] = np.argmax(trans[paths[prev:prev + n]] + suffix[lo:lo + n], axis=1)
    out = [path.tolist() for path in np.split(_unpack(paths, fwd), np.cumsum(lengths)[:-1])]
    return (out[0], float(best[0])) if single else (out, best)


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
    packed, lengths, pack = _layout(params, emissions, lengths)
    gold = np.asarray(gold, dtype=np.int64)
    if gold.shape != packed.shape[:1]:
        raise ValueError(f"gold paths {gold.shape} do not match {len(packed)} emission rows")
    scores = _scores(params, masks)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite gold score is refused below
        gold_score = _path_scores(scores, packed, gold, lengths, pack)  # also validates legality
    alpha, log_z = _forward(scores, packed, lengths, pack)
    if not all_finite(gold_score):  # checked after the partition, whose errors come first
        raise ValueError("non-finite gold path score")
    loss = float(np.sum(log_z - gold_score))

    # the marginals: of each row's tag, and of each tag pair of a row and the one before it
    ends = np.cumsum(lengths)
    heads, lasts = ends - lengths, ends - 1
    pairs = np.delete(np.arange(len(gold)), heads)
    norm = np.repeat(log_z, lengths)[:, None]
    # a non-finite gradient is left to the training step's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        beta, table = (_unpack(a, pack[2]) for a in _backward(scores, packed, pack, _logsumexp))
        d_emissions = np.exp(alpha + beta - norm)
        pairwise = np.exp(alpha[pairs - 1, :, None] + scores[0] + table[pairs, None, :] - norm[pairs, :, None])
    d_start = d_emissions[heads].sum(axis=0)
    d_end = d_emissions[lasts].sum(axis=0)
    d_trans = pairwise.sum(axis=0)
    d_emissions[np.arange(len(gold)), gold] -= 1.0
    np.subtract.at(d_start, gold[heads], 1.0)
    np.subtract.at(d_end, gold[lasts], 1.0)
    np.subtract.at(d_trans, (gold[pairs - 1], gold[pairs]), 1.0)
    return loss, d_emissions, CrfParams(d_trans, d_start, d_end).tensors()


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
