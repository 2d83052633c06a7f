"""The benchmark's workloads: seeded inputs, one case, and oracle checks.

A workload turns the benchmark seed into a list of input items during
set-up, runs one item per case in the timed loop through cascade_forge's
public API, and checks each output afterwards against computations that do
not share code with the library: ``tests/oracles.reference_apply`` for rule
application and the plain Levenshtein below for distances.

Modules are reached through the ``cf`` namespace built by ``run.py`` at
call time, never imported here, because set-up re-imports the package and
the traced run swaps module attributes for wrappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
STUB = os.path.join(HERE, "stub_proposer.py")


@dataclass
class Outcome:
    """What the checks concluded about one case's output."""

    digest: str
    best_reward: float | None = None
    problems: list[str] = field(default_factory=list)


def levenshtein(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Textbook full-matrix dynamic programme over phone tokens."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


def oracle_reward(sources, preds, targets) -> float:
    """1 - dist(preds, targets) / dist(sources, targets), as the paper defines it."""
    remaining = sum(levenshtein(p.phones, t.phones) for p, t in zip(preds, targets))
    original = sum(levenshtein(s.phones, t.phones) for s, t in zip(sources, targets))
    if original == 0:
        return 1.0 if remaining == 0 else 1.0 - remaining
    return 1.0 - remaining / original


def reference_cascade(cf, rules, words, inv):
    for rule in rules:
        words = [cf.oracles.reference_apply(rule, word, inv) for word in words]
    return words


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_cascade(cf, inv, dataset, rules, forms, reward) -> list[str]:
    """Final forms and reward of a hypothesis, recomputed by the oracles."""
    sources = dataset.sources
    expected = reference_cascade(cf, rules, sources, inv)
    problems = []
    if [w.tokens for w in expected] != [w.tokens for w in forms]:
        problems.append("final forms differ from reference_apply")
    if oracle_reward(sources, expected, dataset.targets) != reward:
        problems.append(f"reward {reward!r} differs from the oracle's")
    return problems


class Workload:
    """One benchmark workload.

    Subclasses set ``name``; ``params`` (printed with every run); ``words``
    per case (the base of per-word ratios); ``min_cases``, which every run
    completes whatever ``--seconds`` says, so quality figures and the digest
    cover the same cases on every run of a seed; ``repeats``, the cases run
    a second time to compare digests; and ``max_rate``, the input items built
    per timed second (the loop reuses items from the start after that).
    """

    def inputs(self, cf, inv, seed: int, count: int, workdir: str) -> list:
        raise NotImplementedError

    def run(self, cf, inv, item, case_dir: str):
        raise NotImplementedError

    def check(self, cf, inv, item, output, case_dir: str) -> Outcome:
        raise NotImplementedError


# --- law shapes ---------------------------------------------------------------

# gen_smp_law draws the environment size with weights 0.7/0.2/0.1 and then
# the number of changes uniformly from 1..size.  A 3-phone, 3-change law
# costs ~9x a 1-phone law to induce, so a run that happened to draw a few
# more of them would read as a slower program.  Each block of 30 laws holds
# the (size, changes) shapes in exactly those proportions, and the seed draws
# everything else: phones, operations, boundary condition and words.
_RARE_SHAPES = ((2, 1), (3, 1), (2, 2), (2, 1), (3, 2), (2, 2), (2, 1), (3, 3), (2, 2))
SMP_BLOCK = tuple(
    _RARE_SHAPES[(i - 1) // 3] if i % 3 == 1 and i < 27 else (1, 1) for i in range(30)
)
# The same 30 shapes dealt to six 5-law cascades, rare shapes spread evenly.
MULTILAW_BLOCK = (
    ((3, 3), (2, 1), (1, 1), (1, 1), (1, 1)),
    ((3, 2), (2, 1), (1, 1), (1, 1), (1, 1)),
    ((3, 1), (2, 2), (1, 1), (1, 1), (1, 1)),
    ((2, 2), (2, 1), (1, 1), (1, 1), (1, 1)),
    ((2, 2), (1, 1), (1, 1), (1, 1), (1, 1)),
    ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1)),
)


def smp_law(cf, inv, rng, shape, name):
    """An smp law of the given (environment size, changes) shape."""
    size, changes = shape
    syn = cf.synthgen
    spec = syn.SmpSpec(env_weights=tuple(1.0 if k == size else 0.0 for k in (1, 2, 3)))
    rule = syn.gen_smp_law(inv, spec, rng, name=name)
    while len(rule.change_pos) != changes:
        rule = syn.gen_smp_law(inv, spec, rng, name=name)
    return rule


# --- smp-single ---------------------------------------------------------------


class SmpSingle(Workload):
    name = "smp-single"
    params = {
        "examples_per_law": 50,
        "samples": 20,
        "proposer": "builtin",
        "law_shapes": "stratified per block of 30 at SmpSpec default weights",
    }
    words = 50
    min_cases = 100
    repeats = 5
    max_rate = 9.0

    def inputs(self, cf, inv, seed, count, workdir):
        syn = cf.synthgen
        items = []
        for i in range(count):
            rng = syn.task_rng(seed, self.name, i)
            name = f"smp-{i:04d}"
            while True:
                rule = smp_law(cf, inv, rng, SMP_BLOCK[i % len(SMP_BLOCK)], name)
                try:
                    case = syn.gen_smp_examples(inv, rule, 50, rng, name=name)
                except syn.GenerationError:
                    # No stable words exist for this environment; the
                    # generator rejects the law and another is drawn.
                    continue
                # Changes can cancel out (insert ɬ after tʰ, then delete the
                # ɬ that follows): such a law leaves every word as it was,
                # so there is nothing to induce and the proposer rightly
                # returns no candidate.  Another law of the shape is drawn.
                if any(p.source.tokens != p.target.tokens for p in case.dataset.pairs):
                    items.append(case)
                    break
        return items

    def run(self, cf, inv, item, case_dir):
        diagnostics: list[str] = []
        ranked = cf.search.induce_single_law(
            cf.proposers.builtin_proposer(), item.dataset, samples=20, inv=inv,
            diagnostics=diagnostics,
        )
        return ranked, diagnostics

    def check(self, cf, inv, item, output, case_dir) -> Outcome:
        ranked, diagnostics = output
        problems = list(diagnostics)
        if not ranked:
            return Outcome(sha256_json(None), None, problems + ["no candidate rules"])
        rule, report = ranked[0]
        rewards = [r.reward for _, r in ranked]
        if rewards != sorted(rewards, reverse=True):
            problems.append("candidates are not ranked by reward")
        sources, targets = item.dataset.sources, item.dataset.targets
        preds = [cf.oracles.reference_apply(rule, s, inv) for s in sources]
        distances = tuple(levenshtein(p.phones, t.phones) for p, t in zip(preds, targets))
        if distances != report.per_pair:
            problems.append("per-pair distances differ from the oracle's")
        if oracle_reward(sources, preds, targets) != report.reward:
            problems.append(f"reward {report.reward!r} differs from the oracle's")
        digest = sha256_json([cf.rule_engine.rule_to_obj(rule), repr(report.reward)])
        return Outcome(digest, report.reward, problems)


# --- multilaw beam search --------------------------------------------------------


def multilaw_case(cf, inv, seed, label, index, words):
    """One multilaw set over five laws in random order, plus the rng left over.

    The laws' shapes come from ``MULTILAW_BLOCK``; with a pool of exactly
    five laws, gen_multilaw_evalset keeps all of them.
    """
    syn = cf.synthgen
    rng = syn.task_rng(seed, label, index)
    shapes = list(MULTILAW_BLOCK[index % len(MULTILAW_BLOCK)])
    rng.shuffle(shapes)
    while True:
        laws = cf.rule_engine.Cascade(
            smp_law(cf, inv, rng, shape, f"law-{k}") for k, shape in enumerate(shapes)
        )
        try:
            (case,) = syn.gen_multilaw_evalset(inv, laws, len(laws), 1, words, rng)
            return case, rng
        except syn.GenerationError:
            continue


class _BeamWorkload(Workload):
    """Run and check shared by the beam-search workloads; items are (case, extra)."""

    def search_config(self, cf):
        raise NotImplementedError

    def handle(self, cf, item):
        raise NotImplementedError

    def run(self, cf, inv, item, case_dir):
        diagnostics: list[str] = []
        case = item[0]
        beams = cf.search.beam_search_cascade(
            self.handle(cf, item), case.dataset, self.search_config(cf), inv=inv,
            diagnostics=diagnostics,
        )
        return beams, diagnostics

    def check(self, cf, inv, item, output, case_dir) -> Outcome:
        beams, diagnostics = output
        case = item[0]
        best = beams[0]
        problems = list(diagnostics)
        if any(b.reward > best.reward for b in beams):
            problems.append("beams are not sorted by reward")
        problems += _check_cascade(cf, inv, case.dataset, best.cascade.rules, best.forms, best.reward)
        digest = sha256_json([cf.rule_engine.cascade_to_obj(best.cascade), repr(best.reward)])
        return Outcome(digest, best.reward, problems)


class MultilawBeam(_BeamWorkload):
    name = "multilaw-beam"
    params = {
        "rules_per_set": 5,
        "words_per_set": 20,
        "law_shapes": "stratified per block of 6 cascades",
        "beam_width": 20,
        "samples_per_step": 1,
        "max_steps": 5,
        "early_stop": True,
        "proposer": "builtin",
    }
    words = 20
    min_cases = 20
    repeats = 1
    max_rate = 5.0

    def inputs(self, cf, inv, seed, count, workdir):
        return [
            (multilaw_case(cf, inv, seed, self.name, i, self.words)[0], None)
            for i in range(count)
        ]

    def search_config(self, cf):
        return cf.search.SearchConfig(beam_width=20, samples_per_step=1, max_steps=5)

    def handle(self, cf, item):
        return cf.proposers.builtin_proposer()


class MultilawExec(_BeamWorkload):
    name = "multilaw-exec"
    params = {
        "rules_per_set": 5,
        "words_per_set": 20,
        "law_shapes": "stratified per block of 6 cascades",
        "distractors": 5,
        "beam_width": 5,
        "samples_per_step": 10,
        "max_steps": 6,
        "early_stop": False,
        "proposer": "perfbench/stub_proposer.py, one process per request",
    }
    words = 20
    min_cases = 8
    repeats = 1
    max_rate = 1.0

    def inputs(self, cf, inv, seed, count, workdir):
        syn = cf.synthgen
        items = []
        for i in range(count):
            case, rng = multilaw_case(cf, inv, seed, self.name, i, self.words)
            distractors = [
                syn.gen_smp_law(inv, syn.SmpSpec(), rng, name=f"distractor-{k}") for k in range(5)
            ]
            rules = [*case.ground_truth.rules, *distractors]
            rng.shuffle(rules)
            path = os.path.join(workdir, f"candidates-{i:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([cf.rule_engine.rule_to_obj(r) for r in rules], fh, ensure_ascii=False)
            items.append((case, path))
        return items

    def search_config(self, cf):
        return cf.search.SearchConfig(
            beam_width=5, samples_per_step=10, max_steps=6, early_stop_on_perfect=False
        )

    def handle(self, cf, item):
        return cf.proposers.external_proposer([sys.executable, STUB, item[1]], name="stub")


# --- ling generation ---------------------------------------------------------------


class LingGenerate(Workload):
    name = "ling-generate"
    params = {
        "languages_per_case": 1,
        "rules_per_language": 3,
        "protoforms_per_language": 50,
        "min_applicable": 2,
        "writes": "write_corpus per language",
    }
    words = 50
    min_cases = 200
    repeats = 5
    max_rate = 20.0

    def inputs(self, cf, inv, seed, count, workdir):
        # LingSpec seeds its own task streams; one distinct seed per language.
        return [
            cf.synthgen.LingSpec(num_languages=1, min_applicable=2, seed=seed * 1_000_003 + i)
            for i in range(count)
        ]

    def run(self, cf, inv, item, case_dir):
        (case,) = cf.synthgen.gen_ling_corpus(inv, item)
        cf.synthgen.write_corpus(case_dir, [case], {"generator": "ling", "seed": item.seed})
        return case

    def check(self, cf, inv, item, case, case_dir) -> Outcome:
        problems = []
        pairs = case.dataset.pairs
        produced = reference_cascade(cf, case.ground_truth.rules, [p.source for p in pairs], inv)
        if [w.tokens for w in produced] != [p.target.tokens for p in pairs]:
            problems.append("ground truth does not reproduce the targets under reference_apply")
        files = {}
        for base, _, names in os.walk(case_dir):
            for name in names:
                if name == "manifest.json":
                    continue
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, case_dir)] = fh.read()
        tsv = files.get(os.path.join("case_0000", "pairs.tsv"), b"").decode("utf-8")
        expected = "".join(f"{p.source.surface}\t{p.target.surface}\n" for p in pairs)
        if tsv != expected:
            problems.append("pairs.tsv does not hold the generated pairs")
        digest = hashlib.sha256()
        for rel in sorted(files):
            digest.update(rel.encode("utf-8") + b"\0" + files[rel] + b"\0")
        return Outcome(digest.hexdigest(), None, problems)


WORKLOADS = {w.name: w for w in (SmpSingle(), LingGenerate(), MultilawExec(), MultilawBeam())}
