"""Linear-chain CRF over per-token emission scores.

A path through an L x K emission matrix is scored as

    start[t_1] + sum_l emissions[l][t_l] + sum_l transitions[t_l][t_{l+1}] + end[t_L]

Boolean masks mark scheme-illegal transitions and boundary tags; masked
entries contribute -inf, so illegal paths carry exactly zero probability.
The partition function and the marginals behind the loss gradient are
computed in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import OUTSIDE, TagScheme, tag_from_str

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
    """Transition/boundary scores plus legality masks (True = allowed)."""

    transitions: np.ndarray  # (K, K): score of tag j following tag i
    start_scores: np.ndarray  # (K,)
    end_scores: np.ndarray  # (K,)
    trans_mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    start_mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    end_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.start_scores = np.asarray(self.start_scores, dtype=np.float64)
        self.end_scores = np.asarray(self.end_scores, dtype=np.float64)
        k = self.num_tags
        if self.transitions.shape != (k, k):
            raise ValueError(f"transitions must be square, got {self.transitions.shape}")
        if self.end_scores.shape != (k,):
            raise ValueError("start/end score lengths disagree")
        if self.trans_mask is None:
            self.trans_mask = np.ones((k, k), dtype=bool)
        if self.start_mask is None:
            self.start_mask = np.ones(k, dtype=bool)
        if self.end_mask is None:
            self.end_mask = np.ones(k, dtype=bool)
        self.trans_mask = np.asarray(self.trans_mask, dtype=bool)
        self.start_mask = np.asarray(self.start_mask, dtype=bool)
        self.end_mask = np.asarray(self.end_mask, dtype=bool)

    @property
    def num_tags(self) -> int:
        return self.start_scores.shape[0]

    @classmethod
    def zeros(cls, num_tags: int) -> "CrfParams":
        return cls(
            np.zeros((num_tags, num_tags)), np.zeros(num_tags), np.zeros(num_tags)
        )

    def with_masks(self, trans_mask, start_mask, end_mask) -> "CrfParams":
        return CrfParams(
            self.transitions, self.start_scores, self.end_scores,
            trans_mask, start_mask, end_mask,
        )

    def tensors(self, prefix: str = "crf") -> dict[str, np.ndarray]:
        return {
            f"{prefix}.transitions": self.transitions,
            f"{prefix}.start": self.start_scores,
            f"{prefix}.end": self.end_scores,
        }

    def effective(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scores with masked-out entries replaced by -inf."""
        trans = np.where(self.trans_mask, self.transitions, NEG_INF)
        start = np.where(self.start_mask, self.start_scores, NEG_INF)
        end = np.where(self.end_mask, self.end_scores, NEG_INF)
        return trans, start, end


def _check_emissions(params: CrfParams, emissions: np.ndarray) -> np.ndarray:
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 2 or emissions.shape[0] < 1:
        raise ValueError(f"emissions must be (L, K) with L >= 1, got {emissions.shape}")
    if emissions.shape[1] != params.num_tags:
        raise ValueError(
            f"emissions have {emissions.shape[1]} tags, params have {params.num_tags}"
        )
    return emissions


def score_sequence(params: CrfParams, emissions: np.ndarray, tags) -> float:
    """Score of one tag path; raises if the path crosses a masked entry."""
    emissions = _check_emissions(params, emissions)
    tags = list(tags)
    if len(tags) != emissions.shape[0]:
        raise ValueError(f"path length {len(tags)} != sequence length {emissions.shape[0]}")
    if not params.start_mask[tags[0]]:
        raise ValueError(f"start at tag {tags[0]} is masked out")
    if not params.end_mask[tags[-1]]:
        raise ValueError(f"end at tag {tags[-1]} is masked out")
    total = params.start_scores[tags[0]] + emissions[0, tags[0]]
    for pos in range(1, len(tags)):
        prev, cur = tags[pos - 1], tags[pos]
        if not params.trans_mask[prev, cur]:
            raise ValueError(f"transition {prev} -> {cur} at position {pos} is masked out")
        total += params.transitions[prev, cur] + emissions[pos, cur]
    return float(total + params.end_scores[tags[-1]])


def _forward(params: CrfParams, emissions: np.ndarray) -> tuple[np.ndarray, float]:
    """(alpha (L, K), log_z): alpha[l, k] is the log-sum of the scores of
    all legal prefixes that end at position l with tag k."""
    trans, start, end = params.effective()
    alpha = np.empty_like(emissions)
    alpha[0] = start + emissions[0]
    for pos in range(1, emissions.shape[0]):
        alpha[pos] = emissions[pos] + _logsumexp(alpha[pos - 1][:, None] + trans, axis=0)
    log_z = float(_logsumexp(alpha[-1] + end, axis=0))
    if np.isnan(log_z):
        raise ValueError("non-finite scores in the partition computation")
    if log_z == NEG_INF:
        raise ValueError("no legal path: the constraint mask excludes every sequence")
    return alpha, log_z


def forward_log_partition(params: CrfParams, emissions: np.ndarray) -> float:
    """log sum over all mask-legal paths of exp(path score)."""
    return _forward(params, _check_emissions(params, emissions))[1]


def viterbi_decode(params: CrfParams, emissions: np.ndarray) -> tuple[list[int], float]:
    """Highest-scoring legal path; ties break to the lexicographically
    smallest tag sequence (via a suffix table and greedy reconstruction).
    """
    emissions = _check_emissions(params, emissions)
    trans, start, end = params.effective()
    length = emissions.shape[0]

    # suffix[t][i]: best score of a legal path over positions t..L-1 starting at tag i
    suffix = np.empty_like(emissions)
    suffix[-1] = emissions[-1] + end
    for pos in range(length - 2, -1, -1):
        suffix[pos] = emissions[pos] + np.max(trans + suffix[pos + 1][None, :], axis=1)

    totals = start + suffix[0]
    best = np.max(totals)
    if np.isnan(best):
        raise ValueError("non-finite scores in Viterbi decoding")
    if best == NEG_INF:
        raise ValueError("no legal path: the constraint mask excludes every sequence")
    path = [int(np.argmax(totals))]  # argmax picks the smallest index on ties
    for pos in range(1, length):
        options = trans[path[-1]] + suffix[pos]
        path.append(int(np.argmax(options)))
    return path, score_sequence(params, emissions, path)


def _posteriors(params: CrfParams, emissions: np.ndarray):
    """Forward-backward pass; returns (log_z, unary (L,K), pairwise (L-1,K,K))."""
    alpha, log_z = _forward(params, emissions)
    trans, _, end = params.effective()
    beta = np.empty_like(emissions)
    beta[-1] = end
    for pos in range(emissions.shape[0] - 2, -1, -1):
        beta[pos] = _logsumexp(trans + (emissions[pos + 1] + beta[pos + 1])[None, :], axis=1)

    with np.errstate(invalid="ignore"):
        unary = np.exp(alpha + beta - log_z)
        pairwise = alpha[:-1, :, None] + trans + (emissions[1:] + beta[1:])[:, None, :]
        pairwise = np.exp(pairwise - log_z)
    return log_z, np.nan_to_num(unary, nan=0.0), np.nan_to_num(pairwise, nan=0.0)


def nll_loss_and_grad(
    params: CrfParams, emissions: np.ndarray, gold
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Negative log-likelihood of the gold path plus all gradients.

    Returns (loss, d_emissions, crf gradient dict keyed like tensors()).
    Gradients are marginal expectations minus gold indicators.
    """
    emissions = _check_emissions(params, emissions)
    gold = list(gold)
    gold_score = score_sequence(params, emissions, gold)  # also validates legality
    log_z, unary, pairwise = _posteriors(params, emissions)
    loss = log_z - gold_score

    d_emissions = unary.copy()
    d_start = unary[0].copy()
    d_end = unary[-1].copy()
    d_trans = pairwise.sum(axis=0)
    d_emissions[np.arange(len(gold)), gold] -= 1.0
    d_start[gold[0]] -= 1.0
    d_end[gold[-1]] -= 1.0
    for prev, cur in zip(gold, gold[1:]):
        d_trans[prev, cur] -= 1.0
    grads = {"crf.transitions": d_trans, "crf.start": d_start, "crf.end": d_end}
    return float(loss), d_emissions, grads


def build_iob2_mask(tagset: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Legality masks for an ordered IOB2 tag vocabulary.

    A transition into I-X is allowed only from B-X or I-X, and no
    sequence may start at I-X.  Everything else is allowed.
    """
    parsed = [tag_from_str(text, TagScheme.IOB2) for text in tagset]
    b_types = {tag.etype for tag in parsed if tag.position == "B"}
    for tag in parsed:
        if tag.position == "I" and tag.etype not in b_types:
            raise ValueError(f"tagset has I-{tag.etype} without B-{tag.etype}")

    k = len(tagset)
    trans_mask = np.ones((k, k), dtype=bool)
    start_mask = np.ones(k, dtype=bool)
    end_mask = np.ones(k, dtype=bool)
    for j, to_tag in enumerate(parsed):
        if to_tag.position != "I":
            continue
        start_mask[j] = False
        for i, from_tag in enumerate(parsed):
            compatible = from_tag.position in ("B", "I") and from_tag.etype == to_tag.etype
            trans_mask[i, j] = compatible
    return trans_mask, start_mask, end_mask


def default_tagset(entity_types: list[str]) -> list[str]:
    """Tag vocabulary for a set of entity types: O first, then B/I pairs."""
    tags = [OUTSIDE]
    for etype in sorted(set(entity_types)):
        tags.append(f"B-{etype}")
        tags.append(f"I-{etype}")
    return tags
