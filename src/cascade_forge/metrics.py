"""Edit-distance machinery and evaluation measures.

All distances operate on phone tokens, never on codepoints, so a
multi-codepoint IPA segment counts as one unit.  The reward compares how
much of the original source-to-target distance a prediction removes:

    reward = 1 - dist(preds, targets) / dist(sources, targets)

It is 1 exactly when the predictions equal the targets and can go
negative when a prediction moves words further from the targets than the
sources already were.  When the sources already equal the targets the
denominator is replaced by 1, keeping "perfect implies 1" while still
penalizing regressions.

Distances are computed with bit-parallel Levenshtein (Myers 1999, in
Hyyrö's 2001 formulation): a target becomes one phone -> bitmask table
and each prediction phone then costs a handful of integer operations.  A
``Scorer`` holds those tables and each pair's source distance for one
fixed set of pairs: a proposal request owns one, which single-law
induction also ranks on when the request holds every pair, and a beam
search builds one.  Its ``report`` re-measures only the predictions that
changed: a prediction that *is* the prior form of its pair (the source
itself unless a prior is given) reuses that pair's known distance, which
is what ``apply_rule`` returning its input object unchanged makes common.
``reward_report`` is a one-off ``Scorer``, so every reward goes through
the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from cascade_forge.phonology import TokenizedWord
from cascade_forge.rule_engine import WordListText


@dataclass(frozen=True)
class ExamplePair:
    """One aligned protoform/reflex pair."""

    source: TokenizedWord
    target: TokenizedWord
    id: str

    def __post_init__(self) -> None:
        for side, word in (("source", self.source), ("target", self.target)):
            if not isinstance(word, TokenizedWord):
                raise TypeError(
                    f"pair {self.id!r}: {side} is a {type(word).__name__}, not a TokenizedWord"
                )


@dataclass(frozen=True)
class Dataset:
    """An ordered, named collection of example pairs."""

    pairs: tuple[ExamplePair, ...]
    name: str = ""

    def __init__(self, pairs, name=""):
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "name", name)
        if not self.pairs:
            raise ValueError("dataset has no pairs")
        for i, pair in enumerate(self.pairs):
            if not isinstance(pair, ExamplePair):
                raise TypeError(f"dataset item {i} is a {type(pair).__name__}, not an ExamplePair")
        ids = [p.id for p in self.pairs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate pair ids")

    @property
    def sources(self) -> list[TokenizedWord]:
        return [p.source for p in self.pairs]

    @property
    def targets(self) -> list[TokenizedWord]:
        return [p.target for p in self.pairs]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class RewardReport:
    """Aggregate reward plus the per-pair prediction/target distances."""

    per_pair: tuple[int, ...]
    dist_source_target: int
    dist_pred_target: int
    reward: float
    passed: bool


def edit_distance(a: TokenizedWord, b: TokenizedWord) -> int:
    """Levenshtein distance over phone tokens with unit costs."""
    return _Target(b.phones).distance(a.phones)


class _Target:
    """One target's phone -> bitmask table for bit-parallel Levenshtein.

    Bit ``i`` of ``masks[phone]`` is set where the target's phone ``i`` is
    ``phone``.  Python integers have no width limit, so targets of any
    length take the same path.
    """

    __slots__ = ("length", "masks")

    def __init__(self, phones: Sequence[str]) -> None:
        masks: dict[str, int] = {}
        for i, phone in enumerate(phones):
            masks[phone] = masks.get(phone, 0) | (1 << i)
        self.length = len(phones)
        self.masks = masks

    def distance(self, phones: Sequence[str]) -> int:
        """Levenshtein distance from ``phones`` to this target.

        Runs one column of the DP per phone of ``phones``, keeping the
        vertical deltas (+1/-1) of the column as the bit vectors ``vp``/``vn``
        and the score of the target's last row.
        """
        m = self.length
        if m == 0:
            return len(phones)
        full = (1 << m) - 1
        last = 1 << (m - 1)
        masks = self.masks
        vp, vn, score = full, 0, m
        for phone in phones:
            eq = masks.get(phone, 0)
            xv = eq | vn
            xh = (((eq & vp) + vp) ^ vp) | eq
            hp = vn | ~(xh | vp)
            hn = vp & xh
            if hp & last:
                score += 1
            elif hn & last:
                score -= 1
            hp = (hp << 1) | 1  # row 0 of the DP grows by 1 per column
            vp = ((hn << 1) | ~(xv | hp)) & full
            vn = hp & xv
        return score


_LENGTH_MISMATCH = "length mismatch between sources, predictions and targets"


class Scorer:
    """Rewards of any number of prediction lists against one fixed set of pairs.

    It holds each target's bitmask table and each pair's source-to-target
    distance, so neither is recomputed.  ``ranked`` is the memo, rule to
    report, that ``proposers.rank_rules`` keeps of the reports it made on
    these pairs without an inventory.  ``text``, built on first use, is the
    sources as the ``WordListText`` on which ``rank_rules`` finds a rule's
    sites.
    """

    def __init__(
        self, sources: Sequence[TokenizedWord], targets: Sequence[TokenizedWord]
    ) -> None:
        if len(sources) != len(targets):
            raise ValueError(_LENGTH_MISMATCH)
        self.sources = tuple(sources)
        self._targets = tuple(_Target(t.phones) for t in targets)
        self._base = tuple(t.distance(s.phones) for t, s in zip(self._targets, self.sources))
        self._original = sum(self._base)
        self.ranked: dict = {}

    @cached_property
    def text(self) -> WordListText:
        return WordListText(self.sources)

    def report(
        self,
        preds: Sequence[TokenizedWord],
        prior: tuple[Sequence[TokenizedWord], Sequence[int]] | None = None,
    ) -> RewardReport:
        """The reward report of ``preds``.

        ``prior`` is an earlier ``(forms, per_pair)`` of the same pairs; a
        prediction that is the very object of its prior form reuses that
        pair's distance.  Without a prior, the sources and their distances
        serve.
        """
        forms, known = prior if prior is not None else (self.sources, self._base)
        if len(preds) != len(self._targets):
            raise ValueError(_LENGTH_MISMATCH)
        per_pair = tuple(
            distance if pred is form else target.distance(pred.phones)
            for pred, form, distance, target in zip(
                preds, forms, known, self._targets, strict=True
            )
        )
        remaining = sum(per_pair)
        original = self._original
        if original == 0:
            value = 1.0 if remaining == 0 else 1.0 - remaining
        else:
            value = 1.0 - remaining / original
        return RewardReport(per_pair, original, remaining, value, remaining == 0)


def reward(
    sources: Sequence[TokenizedWord],
    preds: Sequence[TokenizedWord],
    targets: Sequence[TokenizedWord],
) -> float:
    """The reward alone; see ``reward_report``."""
    return reward_report(sources, preds, targets).reward


def reward_report(
    sources: Sequence[TokenizedWord],
    preds: Sequence[TokenizedWord],
    targets: Sequence[TokenizedWord],
) -> RewardReport:
    """The reward report of one prediction list; a ``Scorer`` used once."""
    return Scorer(sources, targets).report(preds)


def reward_at_m(instance_rewards: Sequence[Sequence[float]], m: int) -> float:
    """Mean of each instance's top-m hypothesis rewards, averaged over instances.

    Instances with fewer than m hypotheses contribute the mean of what they
    have; rewards are re-sorted descending defensively.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not instance_rewards:
        raise ValueError("no instances")
    total = 0.0
    for rewards in instance_rewards:
        if not rewards:
            raise ValueError("instance with no hypothesis rewards")
        top = sorted(rewards, reverse=True)[:m]
        total += sum(top) / len(top)
    return total / len(instance_rewards)


def pass_rate(instance_best_rewards: Sequence[float]) -> float:
    """Fraction of instances whose best reward is exactly 1."""
    if not instance_best_rewards:
        raise ValueError("no instances")
    return sum(1 for r in instance_best_rewards if r == 1.0) / len(instance_best_rewards)


# --- minimal edit scripts ----------------------------------------------------


class EditOp(NamedTuple):
    """One operation of a minimal edit script over phone sequences.

    ``pos`` indexes the source: substitutions and deletions sit on the phone
    they touch, insertions sit on the gap before ``pos`` (``pos == len(src)``
    appends).  Consecutive insertions at one gap are coalesced, so ``new``
    can hold several phones.  It compares equal to the plain tuple
    ``(kind, pos, old, new)``.

    ``edit_script`` emits its ops in source order: ``pos`` never decreases,
    and an insertion at gap ``p`` comes before the substitution or deletion
    of phone ``p``.  So the source window of a run of consecutive ops starts
    at its first op's ``pos`` and ends where its last op ends.
    """

    kind: str  # "sub" | "del" | "ins"
    pos: int
    old: str | None
    new: tuple[str, ...]


def edit_script(src: Sequence[str], tgt: Sequence[str]) -> list[EditOp]:
    """One minimal edit script with a fixed tie-break, in source order.

    The walk runs left to right over the suffix-distance table.  At each
    step it takes, among the moves that keep the script minimal, a
    substitution on a mismatch, else a deletion, else an insertion, and a
    match only when none of these does.  So ``aa -> a`` deletes phone 0
    and ``a -> aa`` inserts at gap 0.  Every step but an insertion
    advances the source position, so insertions at one gap are consecutive
    steps and extend one op.
    """
    m, n = len(src), len(tgt)
    # suffix[i][j] = distance between src[i:] and tgt[j:]
    suffix = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        suffix[i][n] = m - i
    for j in range(n + 1):
        suffix[m][j] = n - j
    for i in range(m - 1, -1, -1):
        row = suffix[i]
        below = suffix[i + 1]
        for j in range(n - 1, -1, -1):
            cost = 0 if src[i] == tgt[j] else 1
            row[j] = min(below[j + 1] + cost, below[j] + 1, row[j + 1] + 1)
    ops: list[EditOp] = []
    i = j = 0
    while i < m or j < n:
        here = suffix[i][j]
        if i < m and j < n and src[i] != tgt[j] and suffix[i + 1][j + 1] + 1 == here:
            ops.append(EditOp("sub", i, src[i], (tgt[j],)))
            i += 1
            j += 1
        elif i < m and suffix[i + 1][j] + 1 == here:
            ops.append(EditOp("del", i, src[i], ()))
            i += 1
        elif j < n and suffix[i][j + 1] + 1 == here:
            if ops and ops[-1].kind == "ins" and ops[-1].pos == i:
                ops[-1] = EditOp("ins", i, None, ops[-1].new + (tgt[j],))
            else:
                ops.append(EditOp("ins", i, None, (tgt[j],)))
            j += 1
        else:
            assert i < m and j < n and src[i] == tgt[j] and suffix[i + 1][j + 1] == here
            i += 1
            j += 1
    return ops
