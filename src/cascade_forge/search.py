"""Cascade induction: example selection, single-law ranking, beam search.

The beam search keeps up to ``beam_width`` hypotheses, each an ordered
rule cascade applied to the dataset's sources.  Every step each beam
requests candidate rules from the proposer using its current forms
against the targets, successors append one rule each, and parents stay
in the candidate set so a beam can stand pat; the pool then contracts
back to the top beams by reward.  Because parents survive, the best
reward never decreases.  All tie-breaks are total orders, so a fixed
dataset, config, and proposer transcript reproduce identical beams.

Scoring always uses the full dataset.  One helper builds every proposer
request, single-law or per beam, from the current forms and the targets;
example selection (ITES), when on, only narrows which pairs the proposer
sees.  Single-law candidates are ordered by ``proposers.rank_rules`` on the
request's own scorer when the request holds every pair, so the reports the
builtin proposer made ranking its pool are reused, not re-made.

Each search call keeps one process per external proposer command for all
of its requests and closes them all when it returns or raises; a non-zero
exit status they end with is reported to the search's diagnostics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Sequence

from cascade_forge.metrics import (
    Dataset,
    ExamplePair,
    RewardReport,
    Scorer,
    edit_script,
)
from cascade_forge.metrics import reward_report  # noqa: F401  (a binding perfbench/tracing.WRAPPED counts)
from cascade_forge.phonology import Inventory, TokenizedWord
from cascade_forge.proposers import ProposalRequest, ProposerHandle, ProposerSessions, propose, rank_rules
from cascade_forge.resources import atomic_write, dumps
from cascade_forge.rule_engine import (
    Cascade,
    Rule,
    WordListText,
    apply_rule,
    cascade_to_obj,
    serialize_cascade,
)


@dataclass(frozen=True)
class SearchConfig:
    """Beam-search limits.

    ``beam_width``, ``samples_per_step`` and ``max_steps`` must each be an
    ``int`` (not a ``bool``) of at least 1; a fractional width would never
    be reached and leave the beam unbounded.  There is no seed: the search
    draws no random numbers, so the dataset, this config and the proposer's
    replies fix its result.
    """

    beam_width: int = 20
    samples_per_step: int = 1
    max_steps: int = 10
    early_stop_on_perfect: bool = True

    def __post_init__(self) -> None:
        for name in ("beam_width", "samples_per_step", "max_steps"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Hypothesis:
    """A cascade plus the forms and reward it produces on the dataset.

    ``per_pair`` holds each form's distance to its target, so a successor
    re-measures only the forms its rule changed.
    """

    cascade: Cascade
    forms: tuple[TokenizedWord, ...]
    reward: float
    step: int
    per_pair: tuple[int, ...] = field(compare=False)


def select_examples_ites(
    pairs: Sequence[ExamplePair],
) -> tuple[list[ExamplePair], set[str]]:
    """Drop identity pairs that carry no change-triggering phones.

    The trigger set holds every source phone within one position of an edit
    operation across all changed pairs, the pairs whose source and target
    phones differ.  Changed pairs are always retained and the original
    order is preserved; with all-identity input everything is dropped.
    """
    triggers: set[str] = set()
    for pair in pairs:
        src = pair.source.phones
        if src == pair.target.phones:
            continue
        for op in edit_script(src, pair.target.phones):
            lo = op.pos - 1
            hi = op.pos if op.kind == "ins" else op.pos + 1
            for index in range(lo, hi + 1):
                if 0 <= index < len(src):
                    triggers.add(src[index])
    filtered = [
        pair
        for pair in pairs
        if pair.source.phones != pair.target.phones or any(p in triggers for p in pair.source.phones)
    ]
    return filtered, triggers


def _request(
    forms: Sequence[TokenizedWord], dataset: Dataset, use_ites: bool, num_samples: int, step_index: int
) -> ProposalRequest:
    """Each form against its target, ITES-filtered when asked; all pairs if the filter keeps none."""
    examples = list(zip(forms, dataset.targets))
    if use_ites:
        pairs = [ExamplePair(form, p.target, p.id) for form, p in zip(forms, dataset.pairs)]
        filtered, _ = select_examples_ites(pairs)
        if filtered:
            examples = [(p.source, p.target) for p in filtered]
    return ProposalRequest(examples, num_samples=num_samples, step_index=step_index)


def induce_single_law(
    handle: ProposerHandle,
    dataset: Dataset,
    samples: int = 20,
    use_ites: bool = False,
    inv: Inventory | None = None,
    diagnostics: list[str] | None = None,
) -> list[tuple[Rule, RewardReport]]:
    """Request candidates once and order them by ``rank_rules`` on the full dataset.

    That is the builtin proposer's own order: reward, then fewer predicates,
    then serialization.  When the request holds every pair (no ITES, or
    ITES dropped none), the ranking runs on ``request.scorer``, where each
    rule the builtin already ranked is a memo hit.
    """
    request = _request(dataset.sources, dataset, use_ites, samples, 0)
    with ProposerSessions(diagnostics) as sessions:
        result = propose(handle, request, inv, sessions=sessions)
        if diagnostics is not None:
            diagnostics.extend(result.diagnostics)
    full = len(request.examples) == len(dataset)  # ITES keeps the pairs' order
    scorer = request.scorer if full else Scorer(dataset.sources, dataset.targets)
    return rank_rules(result.rules, scorer, inv)


def _rank_key(hypothesis: Hypothesis) -> tuple[float, int, str]:
    return (-hypothesis.reward, len(hypothesis.cascade), serialize_cascade(hypothesis.cascade))


def beam_search_cascade(
    handle: ProposerHandle,
    dataset: Dataset,
    config: SearchConfig,
    inv: Inventory | None = None,
    use_ites: bool = False,
    run_dir: str | None = None,
    diagnostics: list[str] | None = None,
) -> list[Hypothesis]:
    """Induce a rule cascade; returns the final beams, best first.

    Beams rank by reward; ties prefer fewer rules, then serialization order.

    With ``run_dir``, writes ``beams/step_<i>.json`` after each step, and
    ``best.json`` and ``log.txt`` at the end there; a run's ``config.json``
    is the CLI's to write.
    """
    sources = dataset.sources
    targets = dataset.targets
    log_lines: list[str] = []

    scorer = Scorer(sources, targets)
    initial = scorer.report(sources)
    beams = [Hypothesis(Cascade(), tuple(sources), initial.reward, 0, initial.per_pair)]

    with ProposerSessions(diagnostics) as sessions:
        for step in range(1, config.max_steps + 1):
            candidates: list[Hypothesis] = [replace(beam, step=step) for beam in beams]
            proposed_any = False
            for beam in beams:
                request = _request(beam.forms, dataset, use_ites, config.samples_per_step, step - 1)
                result = propose(handle, request, inv, sessions=sessions)
                if diagnostics is not None:
                    diagnostics.extend(result.diagnostics)
                text = WordListText(beam.forms)
                for rule in result.rules:
                    proposed_any = True
                    successor = list(beam.forms)
                    for i, sites in text.word_sites(text.starts(rule, inv)):
                        successor[i] = apply_rule(rule, successor[i], inv, sites)
                    forms = tuple(successor)
                    report = scorer.report(forms, (beam.forms, beam.per_pair))
                    cascade = Cascade(beam.cascade.rules + (rule,))
                    candidates.append(
                        Hypothesis(cascade, forms, report.reward, step, report.per_pair)
                    )
            candidates.sort(key=_rank_key)
            deduped: list[Hypothesis] = []
            seen_forms = set()
            for candidate in candidates:
                if candidate.forms in seen_forms:
                    continue
                seen_forms.add(candidate.forms)
                deduped.append(candidate)
                if len(deduped) == config.beam_width:
                    break
            beams = deduped
            best = beams[0]
            log_lines.append(
                f"step {step}: {len(candidates)} candidates, best reward {best.reward:.6f}, "
                f"cascade length {len(best.cascade)}"
                + ("" if proposed_any else " (no proposals; carried forward)")
            )
            if run_dir:
                atomic_write(
                    os.path.join(run_dir, "beams", f"step_{step:03d}.json"),
                    dumps([hypothesis_to_obj(b) for b in beams]),
                )
            if config.early_stop_on_perfect and best.reward == 1.0:
                log_lines.append(f"step {step}: perfect reward reached, stopping early")
                break

    if run_dir:
        atomic_write(os.path.join(run_dir, "best.json"), dumps(hypothesis_to_obj(beams[0])))
        atomic_write(os.path.join(run_dir, "log.txt"), "\n".join(log_lines) + "\n")
    return beams


def hypothesis_to_obj(hypothesis: Hypothesis) -> dict:
    return {
        "reward": hypothesis.reward,
        "step": hypothesis.step,
        "cascade": cascade_to_obj(hypothesis.cascade),
        "forms": [w.surface for w in hypothesis.forms],
    }
