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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from cascade_forge.phonology import TokenizedWord


@dataclass(frozen=True)
class ExamplePair:
    """One aligned protoform/reflex pair."""

    source: TokenizedWord
    target: TokenizedWord
    id: str


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
    return _phone_distance(a.phones, b.phones)


def _phone_distance(src: Sequence[str], tgt: Sequence[str]) -> int:
    m, n = len(src), len(tgt)
    if m == 0:
        return n
    if n == 0:
        return m
    previous = list(range(n + 1))
    for i in range(1, m + 1):
        current = [i] + [0] * n
        s = src[i - 1]
        for j in range(1, n + 1):
            cost = 0 if s == tgt[j - 1] else 1
            current[j] = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
        previous = current
    return previous[n]


def dist(preds: Sequence[TokenizedWord], targets: Sequence[TokenizedWord]) -> int:
    """Sum of per-pair edit distances."""
    if len(preds) != len(targets):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(targets)} targets")
    return sum(edit_distance(p, t) for p, t in zip(preds, targets))


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
    per_pair = tuple(edit_distance(p, t) for p, t in zip(preds, targets))
    if len(per_pair) != len(sources) or len(preds) != len(targets):
        raise ValueError("length mismatch between sources, predictions and targets")
    remaining = sum(per_pair)
    original = dist(sources, targets)
    if original == 0:
        value = 1.0 if remaining == 0 else 1.0 - remaining
    else:
        value = 1.0 - remaining / original
    return RewardReport(per_pair, original, remaining, value, remaining == 0)


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


@dataclass(frozen=True)
class EditOp:
    """One operation of a minimal edit script over phone sequences.

    ``pos`` indexes the source: substitutions and deletions sit on the phone
    they touch, insertions sit on the gap before ``pos`` (``pos == len(src)``
    appends).  Consecutive insertions at one gap are coalesced, so ``new``
    can hold several phones.
    """

    kind: str  # "sub" | "del" | "ins"
    pos: int
    old: str | None
    new: tuple[str, ...]


def edit_script(src: Sequence[str], tgt: Sequence[str]) -> list[EditOp]:
    """One minimal edit script with a fixed tie-break.

    Among cost-equal alignments the walk prefers keeping matched phones,
    then substitution over deletion over insertion, proceeding left to
    right, which makes the script deterministic.
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
    pending_insert: list[str] = []
    insert_at = -1

    def flush() -> None:
        nonlocal pending_insert, insert_at
        if pending_insert:
            ops.append(EditOp("ins", insert_at, None, tuple(pending_insert)))
            pending_insert = []
            insert_at = -1

    i = j = 0
    while i < m or j < n:
        here = suffix[i][j]
        if i < m and j < n and src[i] != tgt[j] and suffix[i + 1][j + 1] + 1 == here:
            flush()
            ops.append(EditOp("sub", i, src[i], (tgt[j],)))
            i += 1
            j += 1
        elif i < m and suffix[i + 1][j] + 1 == here:
            flush()
            ops.append(EditOp("del", i, src[i], ()))
            i += 1
        elif j < n and suffix[i][j + 1] + 1 == here:
            if not pending_insert:
                insert_at = i
            pending_insert.append(tgt[j])
            j += 1
        else:
            assert i < m and j < n and src[i] == tgt[j] and suffix[i + 1][j + 1] == here
            flush()
            i += 1
            j += 1
    flush()
    return ops
