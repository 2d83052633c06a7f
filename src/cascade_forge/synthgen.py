"""Synthetic corpus generation.

Three generators, all driven by seeded RNG streams.  Each builds a
case's targets by applying its ground-truth cascade to the sources, so
re-applying the cascade reproduces them by construction; the tests check
this master invariant against ``tests/oracles.reference_apply``.

* ``smp``: random string-manipulation laws over concrete phones, with
  environments of one to three phones, a 25% chance of a boundary
  condition, and protoform quotas that guarantee the environment occurs.
  Each law is a builtin edit candidate built by
  ``proposers.candidate_to_rule``.
* ``ling``: feature-driven laws.  Context and change lengths are
  ``round(|z|) + 1`` for a standard normal ``z``, per-position feature
  requirements are kept at the rate ``P(|z| >= 1)``, and each changing
  phone independently risks deletion (``P_DELETE``, 1/8), substitution
  (``P_SUBSTITUTE``, 1/8), and insertion on either side (``P_INSERT``,
  1/16 each).  Each of these decisions takes one ``random()``, inverting
  the distribution's CDF (Devroye 1986).  Rules are rejection-sampled
  until they apply to a minimum number of the nonce protoforms; an
  attempt draws its window last, after the cheap rejections, and is
  tested for sites in one bit-parallel (Shift-And) pass over the
  protoforms laid end to end, before any predicate is built.
* ``multilaw``: subsamples ordered rule subsets from a pool and builds
  word sets of which at least half stay unchanged under the cascade.

Generated words are always checked to re-tokenize to the phones they
were built from, so corpus files read back identically.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass, replace
from math import erf, erfc, sqrt
from random import Random
from typing import Sequence

from cascade_forge import proposers
from cascade_forge.metrics import Dataset, EditOp, ExamplePair
from cascade_forge.phonology import (
    Inventory,
    TokenizedWord,
    realize_feature_change,
    tokenize,
    TokenizeError,
)
from cascade_forge.proposers import EditCandidate
from cascade_forge.rule_engine import (
    Cascade,
    Delete,
    FeatureReq,
    MappingFn,
    Not,
    PhoneSet,
    Rule,
    Substitute,
    WordEnd,
    WordStart,
    apply_cascade,
    apply_rule,
    cascade_to_obj,
    find_sites,  # noqa: F401  (perfbench's tracer counts this binding)
    layout_rule,
)
from cascade_forge.resources import atomic_write, dumps, pairs_tsv

GENERATOR_VERSION = 2


class GenerationError(RuntimeError):
    """Raised when a generation budget or attempt cap is exhausted."""


@dataclass(frozen=True)
class SmpSpec:
    examples_per_law: int = 50
    env_weights: tuple[float, float, float] = (0.7, 0.2, 0.1)
    seed: int = 0

    def __post_init__(self) -> None:
        n = self.examples_per_law
        if type(n) is not int or n <= 0 or n % 10 != 0:
            raise ValueError("examples_per_law must be a positive multiple of 10")
        if abs(sum(self.env_weights) - 1.0) > 1e-9:
            raise ValueError(f"weights {self.env_weights} do not sum to 1")


@dataclass(frozen=True)
class LingSpec:
    num_languages: int = 2000
    rules_per_language: int = 3
    protoforms_per_language: int = 50
    min_applicable: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_languages", "rules_per_language", "protoforms_per_language"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if type(self.min_applicable) is not int or not 1 <= self.min_applicable <= self.protoforms_per_language:
            raise ValueError("min_applicable must be between 1 and protoforms_per_language")


@dataclass
class SynthCase:
    """A ground-truth cascade plus the dataset it generated."""

    ground_truth: Cascade
    dataset: Dataset


def task_rng(seed: int, *parts) -> Random:
    """A deterministic RNG stream derived from the root seed and a task label."""
    return Random("|".join([str(seed), *[str(p) for p in parts]]))


# --- canonical word construction ---------------------------------------------


def _canonical_word(inv: Inventory, phones: Sequence[str]) -> TokenizedWord | None:
    """Build a word from phones if its surface re-tokenizes to the same phones."""
    word = TokenizedWord.from_phones(phones)
    return word if _roundtrips(inv, word) else None


def _roundtrips(inv: Inventory, word: TokenizedWord) -> bool:
    try:
        return tokenize(word.surface, inv) == word
    except TokenizeError:
        return False


# --- string-manipulation laws --------------------------------------------------

BOUNDARY_EDGES = (  # (left edge, right edge) predicates, None where unconstrained
    (WordStart(), None), (None, WordEnd()),  # word start, word end
    (Not(WordStart()), None), (None, Not(WordEnd())),  # not word start, not word end
    (None, None),  # no boundary condition
)
BOUNDARY_WEIGHTS = (1 / 16, 1 / 16, 1 / 16, 1 / 16, 3 / 4)


def gen_smp_law(inv: Inventory, spec: SmpSpec, rng: Random, name: str | None = None) -> Rule:
    """Sample one law: environment size, boundary condition, phones, changes.

    The law is drawn as a builtin ``EditCandidate`` without context phones,
    so it lies in the builtin proposer's candidate grammar.
    """
    symbols = inv.symbols
    env_size = rng.choices((1, 2, 3), weights=spec.env_weights)[0]
    left_edge, right_edge = rng.choices(BOUNDARY_EDGES, weights=BOUNDARY_WEIGHTS)[0]
    env_phones = [rng.choice(symbols) for _ in range(env_size)]
    num_changes = rng.randint(1, env_size)
    positions = sorted(rng.sample(range(env_size), num_changes))
    kinds = [rng.choice(("add", "del", "sub")) for _ in range(num_changes)]

    ops: list[EditOp] = []
    for pos, kind in zip(positions, kinds):
        source = env_phones[pos]
        if kind == "del":
            ops.append(EditOp("del", pos, source, ()))
        elif kind == "sub":
            target = rng.choice(symbols)
            while target == source and len(symbols) > 1:
                target = rng.choice(symbols)
            ops.append(EditOp("sub", pos, source, (target,)))
        else:  # add: insert in the gap after this phone
            ops.append(EditOp("ins", pos + 1, None, (rng.choice(symbols),)))

    candidate = EditCandidate(tuple(ops), tuple(env_phones), (), (), left_edge, right_edge)
    rule = replace(proposers.candidate_to_rule(candidate), name=name)
    rule.validate(inv)
    return rule


def environment_phones(rule: Rule, inv: Inventory | None = None) -> list[str]:
    """One concrete phone per phone predicate, in environment order."""
    phones: list[str] = []
    for pred in rule.predicates:
        if isinstance(pred, PhoneSet):
            phones.append(sorted(pred.phones)[0])
        elif isinstance(pred, FeatureReq) and inv is not None:
            matching = sorted(inv.matching_phones(pred.reqs))
            if matching:
                phones.append(matching[0])
    if not phones:
        raise GenerationError("environment contains no phone predicates")
    return phones


def gen_smp_examples(
    inv: Inventory,
    rule: Rule,
    n: int,
    rng: Random,
    name: str = "smp",
) -> SynthCase:
    """Protoforms by quota, reflexes by applying the law.

    Quotas at n examples: 3n/5 random words, n/10 with the environment as a
    prefix, n/10 as a suffix, n/10 with two occurrences and n/10 with three,
    the occurrences separated by random filler.  Random filler words have 1-6
    phones drawn uniformly from the inventory.
    """
    if n % 10 != 0 or n <= 0:
        raise ValueError("n must be a positive multiple of 10")
    env = environment_phones(rule, inv)
    symbols = inv.symbols

    def filler() -> list[str]:
        return [rng.choice(symbols) for _ in range(rng.randint(1, 6))]

    groups: list[tuple[str, int]] = [
        ("rand", 3 * n // 5),
        ("prefix", n // 10),
        ("suffix", n // 10),
        ("mid2", n // 10),
        ("mid3", n // 10),
    ]
    pairs: list[ExamplePair] = []
    for group, count in groups:
        for i in range(count):
            for _ in range(1000):
                if group == "rand":
                    phones = filler()
                elif group == "prefix":
                    phones = env + filler()
                elif group == "suffix":
                    phones = filler() + env
                elif group == "mid2":
                    phones = env + filler() + env
                else:
                    phones = env + filler() + env + filler() + env
                source = _canonical_word(inv, phones)
                if source is None:
                    continue
                target = apply_rule(rule, source, inv)
                if _roundtrips(inv, target):
                    break
            else:
                raise GenerationError(f"could not build a stable {group} word for {name}")
            pairs.append(ExamplePair(source, target, f"{group}-{i:03d}"))
    return SynthCase(Cascade([rule]), Dataset(pairs, name=name))


def gen_smp_corpus(inv: Inventory, spec: SmpSpec, laws: int) -> list[SynthCase]:
    """Independent cases, one per law, each on its own RNG stream."""
    cases = []
    for i in range(laws):
        rng = task_rng(spec.seed, "smp", i)
        rule = gen_smp_law(inv, spec, rng, name=f"smp-{i:04d}")
        cases.append(gen_smp_examples(inv, rule, spec.examples_per_law, rng, name=f"smp-{i:04d}"))
    return cases


# --- feature-driven laws --------------------------------------------------------


P_DELETE = 1 / 8
P_SUBSTITUTE = 1 / 8
P_INSERT = 1 / 16  # on each side


@dataclass
class SlotOps:
    delete: bool
    substitute: bool
    ins_before: bool
    ins_after: bool


def sample_change_ops(n_slots: int, rng: Random) -> list[SlotOps]:
    """Independent per-slot draws: delete, substitute, insert before/after."""
    return [
        SlotOps(
            rng.random() < P_DELETE,
            rng.random() < P_SUBSTITUTE,
            rng.random() < P_INSERT,
            rng.random() < P_INSERT,
        )
        for _ in range(n_slots)
    ]


P_TAIL = erfc(sqrt(0.5))  # P(|z| >= 1) for a standard normal z
# LENGTH_CDF[k] = P(round(|z|) <= k) = P(|z| < k + 1/2), up to where it reaches 1.0.
LENGTH_CDF = [erf((k + 0.5) / sqrt(2)) for k in range(9)]


def _gaussian_length(rng: Random) -> int:
    """``round(abs(z)) + 1`` for a standard normal ``z``, by inverting the
    CDF of ``round(abs(z))`` at one uniform."""
    return bisect_right(LENGTH_CDF, rng.random()) + 1


def _gated_requirements(anchor_features: tuple[int, ...], rng: Random) -> tuple[tuple[int, int], ...]:
    """Per-feature tail gate; required values are taken from the anchor phone.

    Each specified anchor feature (value 0 or 1) is kept with probability
    ``P_TAIL``, the rate at which a standard normal draw has |z| >= 1, on
    one ``random()``; an unspecified one yields no requirement and draws
    nothing.  Copying values from a phone actually occurring in the
    protoforms keeps the rejection loop convergent: at least the anchor
    window always satisfies the environment.  The result is sorted by
    index, the form ``FeatureReq.reqs`` holds.
    """
    random = rng.random
    # From a list: tuple() over a generator resizes its result as it goes,
    # which raised ling generation's peak RSS by ~4%.
    return tuple([
        (idx, value) for idx, value in enumerate(anchor_features)
        if value != -1 and random() < P_TAIL
    ])


def _changeto_features(num_features: int, rng: Random) -> dict[int, int]:
    """Per-feature tail draw on one ``random()``: 0 with probability
    ``P_TAIL / 2`` (a normal draw's lower tail), 1 with the same
    probability (the upper), and no entry otherwise."""
    return {idx: int(u >= P_TAIL / 2) for idx in range(num_features) if (u := rng.random()) < P_TAIL}


class _ProtoformText:
    """Protoforms laid end to end as one text, an empty gap position after each.

    ``at[v][i]`` has bit ``p`` set where the phone at text position ``p``
    has value ``v`` for feature ``i``, ``phones`` a bit per phone position,
    and ``words`` holds one mask of its positions per protoform.  A gap
    holds no phone, so no run of consecutive phone positions spans two
    protoforms.
    """

    def __init__(self, inv: Inventory, words: Sequence[TokenizedWord]):
        holding: dict[str, int] = {}  # phone -> mask of the positions holding it
        self.words: list[int] = []
        base = 0
        for word in words:
            phones = word.phones
            for offset, symbol in enumerate(phones):
                holding[symbol] = holding.get(symbol, 0) | 1 << (base + offset)
            self.words.append(((1 << len(phones)) - 1) << base)
            base += len(phones) + 1
        self.phones = sum(self.words)
        self.at = at = ([0] * inv.num_features, [0] * inv.num_features)
        for symbol, mask in holding.items():
            for i, value in enumerate(inv.phone(symbol).features):
                if value != -1:
                    at[value][i] |= mask

    def sited(self, window: Sequence[tuple[tuple[int, int], ...]]) -> list[int]:
        """Indices of the protoforms with consecutive phones meeting the
        window's ``(index, value)`` requirements in turn.

        Shift-And: a start survives offset ``k`` when the position ``k``
        after it meets that offset's requirements.
        """
        at = self.at
        starts = self.phones
        for k, reqs in enumerate(window):
            meets = self.phones
            for idx, value in reqs:
                meets &= at[value][idx]
            starts &= meets >> k
        return [i for i, mask in enumerate(self.words) if mask & starts] if starts else []


MAX_RULE_ATTEMPTS = 10_000


def gen_ling_rule(
    inv: Inventory,
    protos: Sequence[TokenizedWord],
    spec: LingSpec,
    rng: Random,
    name: str | None = None,
) -> tuple[Rule, list[TokenizedWord]]:
    """One feature-conditioned law changing at least ``min_applicable``
    protoforms, and the protoforms after it.

    Rules that sample no change at all are vacuous and resampled.  Raises
    after the attempt cap.  An attempt draws, in this order: the three
    lengths; the change ops, with each substitution's change-to features
    and each insertion's symbol; the anchor protoform and window start;
    and the window's feature gates.  It is abandoned at the first
    rejection: no protoform long enough for the window, no change sampled,
    too few protoforms with sites, or too few changed.  Attempts are
    independent, so reordering an attempt's draws, or not drawing the rest
    of a rejected one, leaves the accepted rule's distribution as it is.

    Site detection reads only a rule's predicates, so an attempt is tested
    for sites before any predicate or substitution is built: the
    protoforms are indexed once per call as a ``_ProtoformText``, and one
    bit-parallel pass over it names the protoforms holding the window's
    requirements on consecutive phones, which is where the rule's feature
    predicates, joined by is-nothing separators, have a site.  Only a
    surviving rule pays for ``realize_feature_change`` on every phone its
    substitutions map.  The rule is applied only to the protoforms with
    sites and resampled unless it changes ``min_applicable`` of them,
    since a substitution whose matched phones realize to themselves edits
    nothing.

    The returned forms are the applied forms for the sited protoforms and
    the given ones otherwise, so they equal ``apply_rule`` on every protoform.
    """
    if not protos:
        raise ValueError("no protoforms")
    symbols = inv.symbols
    text = _ProtoformText(inv, protos)
    lengths = [len(w.phones) for w in protos]
    longest = max(lengths)
    for _ in range(MAX_RULE_ATTEMPTS):
        pre_len = _gaussian_length(rng)
        chg_len = _gaussian_length(rng)
        post_len = _gaussian_length(rng)
        total = pre_len + chg_len + post_len
        if total > longest:
            continue

        changes: dict[int, MappingFn] = {}
        substitutes: dict[int, dict[int, int]] = {}  # unit -> target feature values
        inserts: dict[int, list[str]] = {}
        for i, slot in enumerate(sample_change_ops(chg_len, rng)):
            unit = pre_len + i
            if slot.delete:
                changes[unit] = Delete()
            elif slot.substitute:
                target_features = _changeto_features(inv.num_features, rng)
                if target_features:
                    substitutes[unit] = target_features
            if slot.ins_before:
                inserts.setdefault(unit, []).append(rng.choice(symbols))
            if slot.ins_after:
                inserts.setdefault(unit + 1, []).append(rng.choice(symbols))
        if not (changes or substitutes or inserts):
            continue

        anchor = rng.choice([w for w, length in zip(protos, lengths) if length >= total])
        start = rng.randrange(len(anchor.phones) - total + 1)
        window = [
            _gated_requirements(inv.phone(phone).features, rng)
            for phone in anchor.phones[start : start + total]
        ]
        sited = text.sited(window)
        if len(sited) < spec.min_applicable:
            continue

        # The anchor phone meets its own requirements, so no match is empty.
        for unit, target_features in substitutes.items():
            changes[unit] = Substitute({
                sym: (realize_feature_change(inv.phone(sym), target_features, inv).symbol,)
                for sym in sorted(inv.matching_phones(window[unit]))
            })
        rule = layout_rule([FeatureReq(reqs) for reqs in window], changes, inserts, name)
        rule.validate(inv)
        forms = list(protos)
        for i in sited:
            forms[i] = apply_rule(rule, protos[i], inv)
        if sum(1 for i in sited if forms[i] != protos[i]) < spec.min_applicable:
            continue
        return rule, forms
    raise GenerationError(f"no applicable rule found after {MAX_RULE_ATTEMPTS} attempts")


def gen_ling_language(
    inv: Inventory,
    spec: LingSpec,
    rng: Random,
    name: str = "ling",
) -> SynthCase:
    """Nonce protoforms plus a cascade of rules, each conditioned on the last."""
    profile = PROFILES[rng.choice(sorted(PROFILES))]
    protos = [nonce_word(inv, profile, rng) for _ in range(spec.protoforms_per_language)]
    rules: list[Rule] = []
    current = protos
    for k in range(spec.rules_per_language):
        rule, current = gen_ling_rule(inv, current, spec, rng, name=f"{name}-r{k}")
        rules.append(rule)
    pairs = [
        ExamplePair(source, target, f"w{i:03d}")
        for i, (source, target) in enumerate(zip(protos, current))
    ]
    return SynthCase(Cascade(rules), Dataset(pairs, name=name))


def gen_ling_corpus(inv: Inventory, spec: LingSpec) -> list[SynthCase]:
    """One language per task stream; regenerates a language only when its
    targets would not survive a file round-trip."""
    cases = []
    for i in range(spec.num_languages):
        for retry in range(50):
            rng = task_rng(spec.seed, "ling", i, retry)
            case = gen_ling_language(inv, spec, rng, name=f"ling-{i:04d}")
            if all(_roundtrips(inv, p.target) for p in case.dataset.pairs):
                break
        else:
            raise GenerationError(f"language {i} never produced round-trip-stable targets")
        cases.append(case)
    return cases


# --- multi-law evaluation sets ---------------------------------------------------

MULTILAW_DRAW_BUDGET = 50_000


def gen_multilaw_evalset(
    inv: Inventory,
    cascade_pool: Cascade,
    rules_per_set: int,
    sets: int,
    words_per_set: int,
    rng: Random,
) -> list[SynthCase]:
    """Per set: an order-preserving rule subsample plus words of which at
    least half remain unchanged under the sampled cascade."""
    if rules_per_set < 1:
        raise ValueError(f"rules_per_set must be at least 1, got {rules_per_set}")
    if len(cascade_pool) < rules_per_set:
        raise ValueError(
            f"pool holds {len(cascade_pool)} rules, need at least {rules_per_set}"
        )
    cases: list[SynthCase] = []
    for set_index in range(sets):
        indices = sorted(rng.sample(range(len(cascade_pool.rules)), rules_per_set))
        cascade = Cascade(cascade_pool.rules[i] for i in indices)
        envs = [_environment_or_none(rule, inv) for rule in cascade.rules]
        profile = PROFILES[rng.choice(sorted(PROFILES))]
        unchanged_quota = (words_per_set + 1) // 2
        changed_quota = words_per_set - unchanged_quota
        pairs: list[ExamplePair] = []
        unchanged = changed = 0
        draws = 0
        while len(pairs) < words_per_set:
            draws += 1
            if draws > MULTILAW_DRAW_BUDGET:
                raise GenerationError(
                    f"draw budget exhausted while building set {set_index} "
                    f"({changed}/{changed_quota} changed, {unchanged}/{unchanged_quota} unchanged)"
                )
            if changed < changed_quota:
                source = _seeded_word(inv, envs, profile, rng)
            else:
                source = nonce_word(inv, profile, rng)
            target, _ = apply_cascade(cascade, source, inv)
            if not _roundtrips(inv, target):
                continue
            if source == target:
                if unchanged >= unchanged_quota:
                    continue
                unchanged += 1
            else:
                if changed >= changed_quota:
                    continue
                changed += 1
            pairs.append(ExamplePair(source, target, f"w{len(pairs):03d}"))
        cases.append(SynthCase(cascade, Dataset(pairs, name=f"set-{set_index:02d}")))
    return cases


def _environment_or_none(rule: Rule, inv: Inventory) -> list[str] | None:
    try:
        return environment_phones(rule, inv)
    except GenerationError:
        return None


def _seeded_word(
    inv: Inventory, envs: Sequence[list[str] | None], profile: "NonceProfile", rng: Random
) -> TokenizedWord:
    """A nonce word with one rule's environment string embedded, when possible.

    ``envs`` holds each rule's environment phones, ``None`` for a rule with
    no phone predicates.
    """
    env = rng.choice(envs)
    if env is None:
        return nonce_word(inv, profile, rng)
    for _ in range(200):
        base = list(nonce_word(inv, profile, rng).phones)
        mode = rng.choice(("prefix", "suffix", "mid"))
        if mode == "prefix":
            phones = env + base
        elif mode == "suffix":
            phones = base + env
        else:
            cut = rng.randint(0, len(base))
            phones = base[:cut] + env + base[cut:]
        word = _canonical_word(inv, phones)
        if word is not None:
            return word
    return nonce_word(inv, profile, rng)


# --- nonce words ------------------------------------------------------------------


@dataclass(frozen=True)
class NonceProfile:
    """Phonotactics of one pseudo-language: CV(C) syllables over weighted classes."""

    onsets: tuple[str, ...]
    vowels: tuple[str, ...]
    codas: tuple[str, ...]
    coda_prob: float
    syllable_weights: tuple[float, float, float] = (0.3, 0.45, 0.25)


PROFILES: dict[str, NonceProfile] = {
    "nld": NonceProfile(
        onsets=("p", "b", "t", "d", "k", "s", "z", "f", "v", "x", "ɣ", "m", "n", "l", "r", "ʋ", "j", "h"),
        vowels=("i", "ɪ", "e", "ɛ", "a", "ɑ", "ɔ", "o", "u", "ʏ", "ø", "ə"),
        codas=("p", "t", "k", "s", "f", "x", "m", "n", "ŋ", "l", "r"),
        coda_prob=0.55,
    ),
    "fra": NonceProfile(
        onsets=("p", "b", "t", "d", "k", "ɡ", "f", "v", "s", "z", "ʃ", "ʒ", "m", "n", "ɲ", "l", "ʁ", "j", "w"),
        vowels=("i", "e", "ɛ", "a", "ɑ", "ɔ", "o", "u", "y", "ø", "œ", "ə", "ẽ", "ã", "õ"),
        codas=("p", "t", "k", "f", "s", "ʃ", "m", "n", "l", "ʁ"),
        coda_prob=0.3,
    ),
    "deu": NonceProfile(
        onsets=("p", "b", "t", "d", "k", "ɡ", "f", "v", "s", "z", "ʃ", "m", "n", "l", "ʁ", "ç", "x", "h", "j", "ts"),
        vowels=("i", "ɪ", "e", "ɛ", "a", "ɔ", "o", "u", "ʊ", "y", "ʏ", "ø", "œ", "ə"),
        codas=("p", "t", "k", "f", "s", "ʃ", "ç", "x", "m", "n", "ŋ", "l", "ʁ"),
        coda_prob=0.6,
    ),
    "ita": NonceProfile(
        onsets=("p", "b", "t", "d", "k", "ɡ", "f", "v", "s", "z", "ʃ", "m", "n", "ɲ", "l", "ʎ", "r", "j", "w", "ts", "dz", "tʃ", "dʒ"),
        vowels=("i", "e", "ɛ", "a", "ɔ", "o", "u"),
        codas=("n", "m", "l", "r", "s"),
        coda_prob=0.15,
    ),
    "pol": NonceProfile(
        onsets=("p", "b", "t", "d", "k", "ɡ", "f", "v", "s", "z", "ʂ", "ʐ", "ɕ", "ʑ", "x", "m", "n", "ɲ", "l", "r", "j", "w", "ts", "tʃ"),
        vowels=("i", "ɨ", "ɛ", "a", "ɔ", "u"),
        codas=("p", "t", "k", "f", "s", "ʂ", "x", "m", "n", "ɲ", "l", "r", "j", "w"),
        coda_prob=0.5,
    ),
    "spa": NonceProfile(
        onsets=("p", "b", "t", "d", "k", "ɡ", "f", "s", "x", "m", "n", "ɲ", "l", "ʎ", "r", "ɾ", "j", "w", "tʃ", "β", "ð", "ɣ", "θ"),
        vowels=("i", "e", "a", "o", "u"),
        codas=("s", "n", "l", "r", "ð"),
        coda_prob=0.35,
    ),
    "vie": NonceProfile(
        onsets=("p", "b", "t", "d", "k", "f", "v", "s", "z", "x", "h", "m", "n", "ɲ", "ŋ", "l", "j", "w", "c", "ʔ", "tʃ"),
        vowels=("i", "e", "ɛ", "a", "ɐ", "ɔ", "o", "u", "ɯ", "ə"),
        codas=("p", "t", "k", "m", "n", "ŋ"),
        coda_prob=0.5,
        syllable_weights=(0.6, 0.35, 0.05),
    ),
}


def nonce_word(inv: Inventory, profile: NonceProfile, rng: Random) -> TokenizedWord:
    """One CV(C) nonce word of 1-3 syllables, stable under re-tokenization."""
    for _ in range(1000):
        syllables = rng.choices((1, 2, 3), weights=profile.syllable_weights)[0]
        phones: list[str] = []
        for _ in range(syllables):
            phones.append(rng.choice(profile.onsets))
            phones.append(rng.choice(profile.vowels))
            if rng.random() < profile.coda_prob:
                phones.append(rng.choice(profile.codas))
        word = _canonical_word(inv, phones)
        if word is not None:
            return word
    raise GenerationError("could not build a re-tokenization-stable nonce word")


# --- corpus writing ----------------------------------------------------------------


def case_files(index: int, rules: int) -> tuple[str, str]:
    """Case ``index``'s ground truth (``rule.json`` for one rule, else ``cascade.json``)
    and ``pairs.tsv``, as paths relative to the corpus root."""
    case_dir = f"case_{index:04d}"
    truth = "rule.json" if rules == 1 else "cascade.json"
    return os.path.join(case_dir, truth), os.path.join(case_dir, "pairs.tsv")


def write_corpus(out_dir: str, cases: Sequence[SynthCase], manifest: dict) -> None:
    """Write each case's ``case_files`` (the ground truth as rule or cascade
    JSON, the pairs as ``resources.pairs_tsv``) plus a manifest."""
    for index, case in enumerate(cases):
        truth, pairs = case_files(index, len(case.ground_truth))
        obj = cascade_to_obj(case.ground_truth)
        atomic_write(os.path.join(out_dir, truth), dumps(obj[0] if len(obj) == 1 else obj))
        atomic_write(os.path.join(out_dir, pairs), pairs_tsv(zip(case.dataset.sources, case.dataset.targets)))
    full_manifest = dict(manifest)
    full_manifest["cases"] = len(cases)
    full_manifest["generator_version"] = GENERATOR_VERSION
    atomic_write(os.path.join(out_dir, "manifest.json"), dumps(full_manifest))
