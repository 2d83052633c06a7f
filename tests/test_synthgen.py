import collections
import copy
import functools
import hashlib
import json
import math
import random
import statistics

import pytest

from cascade_forge import synthgen
from cascade_forge.phonology import TokenizedWord, default_inventory, tokenize
from cascade_forge.rule_engine import (
    Cascade,
    Delete,
    FeatureReq,
    Insert,
    IsNothing,
    Not,
    PhoneSet,
    Rule,
    Substitute,
    WordEnd,
    WordStart,
    apply_cascade,
    apply_rule,
    find_sites,
    layout_rule,
    serialize_cascade,
)
from cascade_forge.synthgen import (
    GenerationError,
    _ProtoformText,
    _changeto_features,
    _gated_requirements,
    LingSpec,
    PROFILES,
    SmpSpec,
    environment_phones,
    gen_ling_corpus,
    gen_ling_language,
    gen_ling_rule,
    gen_multilaw_evalset,
    gen_smp_corpus,
    gen_smp_examples,
    gen_smp_law,
    nonce_word,
    sample_change_ops,
    task_rng,
    write_corpus,
)
from conftest import tree_bytes
from oracles import assert_case_reproduced, scan_sites


def boundary_kind(rule):
    first, last = rule.predicates[0], rule.predicates[-1]
    if isinstance(first, WordStart):
        return "S"
    if isinstance(first, Not) and isinstance(first.inner, WordStart):
        return "NS"
    if isinstance(last, WordEnd):
        return "E"
    if isinstance(last, Not) and isinstance(last.inner, WordEnd):
        return "NE"
    return "none"


def env_size(rule):
    return sum(isinstance(p, PhoneSet) for p in rule.predicates)


# --- smp laws -------------------------------------------------------------------


def test_smp_spec_validation():
    with pytest.raises(ValueError):
        SmpSpec(examples_per_law=55)
    with pytest.raises(ValueError):
        SmpSpec(env_weights=(0.5, 0.2, 0.1))


def test_smp_forced_env_size_one(default_inv):
    spec = SmpSpec(env_weights=(1.0, 0.0, 0.0))
    rules = [gen_smp_law(default_inv, spec, task_rng(1, "e1", i)) for i in range(40)]
    assert all(env_size(rule) == 1 for rule in rules)
    assert sum(boundary_kind(rule) == "none" for rule in rules) >= 20


def test_smp_forced_word_end_boundary(default_inv):
    rules = [gen_smp_law(default_inv, SmpSpec(), task_rng(2, "be", i)) for i in range(400)]
    word_end = [rule for rule in rules if boundary_kind(rule) == "E"]
    assert len(word_end) >= 10
    for rule in word_end:
        assert isinstance(rule.predicates[-1], WordEnd)
        assert not any(isinstance(p, (WordStart, WordEnd, Not)) for p in rule.predicates[:-1])


def test_smp_minimal_substitution_shape(default_inv):
    spec = SmpSpec(env_weights=(1.0, 0.0, 0.0))
    for i in range(200):
        rule = gen_smp_law(default_inv, spec, task_rng(3, "shape", i))
        if boundary_kind(rule) != "none":
            continue
        if len(rule.mappings) == 1 and isinstance(rule.mappings[0], Substitute):
            assert len(rule.predicates) == 1
            assert isinstance(rule.predicates[0], PhoneSet)
            assert rule.change_pos == (0,)
            source = next(iter(rule.predicates[0].phones))
            assert rule.mappings[0].get(source) is not None
            return
    pytest.fail("no substitution-only law sampled in 200 draws")


def test_smp_substitution_never_maps_to_itself(default_inv):
    spec = SmpSpec()
    for i in range(100):
        rule = gen_smp_law(default_inv, spec, task_rng(4, "noid", i))
        for fn in rule.mappings:
            if isinstance(fn, Substitute):
                for old, new in fn.mapping:
                    assert new != (old,)


def test_smp_examples_quota_counts(default_inv):
    rng = task_rng(5, "quota", 0)
    rule = gen_smp_law(default_inv, SmpSpec(), rng)
    case = gen_smp_examples(default_inv, rule, 50, rng)
    groups = {}
    for pair in case.dataset.pairs:
        groups.setdefault(pair.id.rsplit("-", 1)[0], []).append(pair)
    assert {k: len(v) for k, v in groups.items()} == {
        "rand": 30, "prefix": 5, "suffix": 5, "mid2": 5, "mid3": 5,
    }
    env = tuple(environment_phones(rule, default_inv))
    width = len(env)

    def occurrences(phones):
        return sum(1 for i in range(len(phones) - width + 1) if phones[i:i + width] == env)

    for pair in groups["prefix"]:
        assert pair.source.phones[:width] == env
    for pair in groups["suffix"]:
        assert pair.source.phones[-width:] == env
    for pair in groups["mid2"]:
        assert occurrences(pair.source.phones) >= 2
    for pair in groups["mid3"]:
        assert occurrences(pair.source.phones) >= 3
    containing = sum(1 for p in case.dataset.pairs if occurrences(p.source.phones) >= 1)
    assert containing >= 20  # at least 2N/5


def test_smp_examples_reproduce_targets(default_inv):
    for i in range(10):
        rng = task_rng(6, "repro", i)
        rule = gen_smp_law(default_inv, SmpSpec(), rng)
        case = gen_smp_examples(default_inv, rule, 50, rng)
        assert_case_reproduced(case, default_inv)
        for pair in case.dataset.pairs:
            assert apply_rule(rule, pair.source, default_inv) == pair.target


def test_smp_examples_survive_file_roundtrip(default_inv):
    rng = task_rng(7, "file", 0)
    rule = gen_smp_law(default_inv, SmpSpec(), rng)
    case = gen_smp_examples(default_inv, rule, 50, rng)
    for pair in case.dataset.pairs:
        assert tokenize(pair.source.surface, default_inv) == pair.source
        assert tokenize(pair.target.surface, default_inv) == pair.target


def test_smp_requires_multiple_of_ten(default_inv):
    rng = task_rng(8, "n", 0)
    rule = gen_smp_law(default_inv, SmpSpec(), rng)
    with pytest.raises(ValueError):
        gen_smp_examples(default_inv, rule, 55, rng)


def test_environment_phones_requires_phone_predicate():
    rule_like = type("R", (), {"predicates": (IsNothing(),)})()
    with pytest.raises(GenerationError):
        environment_phones(rule_like)


# --- feature-driven laws -----------------------------------------------------------


def test_change_op_rates_are_plausible():
    slots = sample_change_ops(20000, task_rng(9, "rates"))
    assert len(slots) == 20000
    assert abs(sum(s.delete for s in slots) / len(slots) - 1 / 8) < 0.01
    assert abs(sum(s.substitute for s in slots) / len(slots) - 1 / 8) < 0.01
    assert abs(sum(s.ins_before for s in slots) / len(slots) - 1 / 16) < 0.008
    assert abs(sum(s.ins_after for s in slots) / len(slots) - 1 / 16) < 0.008


@pytest.mark.parametrize("min_applicable", [0, -1, 51, 2.0, True])
def test_ling_spec_validation(min_applicable):
    # 0 or less would keep rules that change no protoform; above the
    # protoform count no rule could ever be accepted; a count is an int.
    with pytest.raises(ValueError, match="min_applicable"):
        LingSpec(protoforms_per_language=50, min_applicable=min_applicable)
    LingSpec(protoforms_per_language=50, min_applicable=50)


@pytest.mark.parametrize("field", ["num_languages", "rules_per_language", "protoforms_per_language"])
@pytest.mark.parametrize("value", [-1, 0, 20.5, 20.0, True])
def test_ling_spec_counts_are_positive_integers(field, value):
    # A negative or zero count once gave an empty corpus or an empty
    # cascade, and a float count failed only inside generation.
    with pytest.raises(ValueError, match=f"^{field} must be a positive integer, got "):
        LingSpec(**{field: value, "min_applicable": 1})


@pytest.mark.parametrize("value", [20.0, True, 0, -10])
def test_smp_spec_examples_per_law_is_a_positive_integer(value):
    with pytest.raises(ValueError, match="examples_per_law must be a positive multiple of 10"):
        SmpSpec(examples_per_law=value)


def test_ling_rule_applies_to_min_protoforms(default_inv):
    spec = LingSpec()
    for i in range(5):
        rng = task_rng(10, "apply", i)
        profile = PROFILES[rng.choice(sorted(PROFILES))]
        protos = [nonce_word(default_inv, profile, rng) for _ in range(50)]
        rule, _ = gen_ling_rule(default_inv, protos, spec, rng)
        applies = sum(1 for w in protos if find_sites(rule, w, default_inv))
        assert applies >= spec.min_applicable


@functools.cache
def _ling_corpus(inv, min_applicable):
    """The seed-0 corpus of 30 languages, built once for every test that reads it."""
    return gen_ling_corpus(inv, LingSpec(num_languages=30, min_applicable=min_applicable, seed=0))


@pytest.mark.parametrize("min_applicable", [2, 3])
def test_every_ling_rule_changes_min_applicable_forms(default_inv, min_applicable):
    # A site is not a change: a substitution whose matched phones realize to
    # themselves edits nothing, so each rule is checked on its cascade input.
    for case in _ling_corpus(default_inv, min_applicable):
        forms = [pair.source for pair in case.dataset.pairs]
        for rule in case.ground_truth.rules:
            outputs = [apply_rule(rule, w, default_inv) for w in forms]
            changed = sum(1 for before, after in zip(forms, outputs) if before != after)
            assert changed >= min_applicable, (rule.name, changed)
            forms = outputs


def test_ling_rule_is_never_vacuous(default_inv):
    spec = LingSpec()
    for i in range(5):
        rng = task_rng(11, "novac", i)
        profile = PROFILES[rng.choice(sorted(PROFILES))]
        protos = [nonce_word(default_inv, profile, rng) for _ in range(50)]
        rule, _ = gen_ling_rule(default_inv, protos, spec, rng)
        assert rule.mappings  # at least one change function
        assert all(isinstance(p, (FeatureReq, IsNothing)) for p in rule.predicates)


def test_ling_language_shape_and_invariant(default_inv):
    spec = LingSpec(num_languages=1)
    rng = task_rng(12, "lang", 0)
    case = gen_ling_language(default_inv, spec, rng, name="lang-0")
    assert len(case.ground_truth) == 3
    assert len(case.dataset) == 50
    assert_case_reproduced(case, default_inv)
    final, trace = apply_cascade(case.ground_truth, case.dataset.pairs[0].source, default_inv)
    assert len(trace) == 3
    assert final == case.dataset.pairs[0].target


def test_ling_language_deterministic(default_inv):
    spec = LingSpec()
    one = gen_ling_language(default_inv, spec, task_rng(13, "det"), name="x")
    two = gen_ling_language(default_inv, spec, task_rng(13, "det"), name="x")
    assert one.ground_truth == two.ground_truth
    assert [p.source for p in one.dataset.pairs] == [p.source for p in two.dataset.pairs]


def test_ling_generation_leaves_the_inventory_unchanged():
    # Feature predicates resolve against the inventory on every match and
    # store nothing on it, so it does not grow with the corpus.
    inv = default_inventory()
    before = copy.deepcopy(vars(inv))
    assert len(gen_ling_corpus(inv, LingSpec(num_languages=3, seed=4))) == 3
    assert vars(inv) == before


LING_CORPUS_DIGESTS = {
    2: "e00da705a2fd87c68627eb70e5ce2bdd3dd5afb79a56ba5026dc6153109d6bbd",
    3: "4b4ea89a1fad4bc64aef5e229668b3d25265df2a9e87dd71adf0d02bb32bc413",
}
SMP_CORPUS_DIGEST = "15301679e56bb33f4bd3c8accdba6a09946e1665e7273a4d896ecc6404e854a1"
MULTILAW_CORPUS_DIGEST = "45675d044562ff6388cddf2b480c40a94294ee473bdcab5ef158ad30c4a2c67e"


def _corpus_digest(cases):
    """SHA-256 over every case's cascade and word pairs."""
    h = hashlib.sha256()
    for case in cases:
        h.update(serialize_cascade(case.ground_truth).encode("utf-8") + b"\n")
        for pair in case.dataset.pairs:
            h.update(f"{pair.source.surface}\t{pair.target.surface}\n".encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("min_applicable", sorted(LING_CORPUS_DIGESTS))
def test_ling_corpus_bytes_are_pinned(default_inv, min_applicable):
    # Every cascade and word pair of 30 languages: a change to how rules
    # are drawn, realized or tested for applicability shows here.
    assert _corpus_digest(_ling_corpus(default_inv, min_applicable)) == LING_CORPUS_DIGESTS[min_applicable]


def test_smp_corpus_bytes_are_pinned(default_inv):
    # 60 laws: a change to how a law's boundary, phones or edits are drawn
    # or built, or to its example quotas, shows here.
    cases = gen_smp_corpus(default_inv, SmpSpec(examples_per_law=10, seed=0), 60)
    assert _corpus_digest(cases) == SMP_CORPUS_DIGEST


def test_multilaw_corpus_bytes_are_pinned(default_inv):
    # Six 5-rule sets from a pool of 25 smp laws: subsampling and the
    # word quotas show here, as well as the laws themselves.
    pool = Cascade(
        gen_smp_law(default_inv, SmpSpec(seed=0), task_rng(0, "pool", i), name=f"pool-{i:03d}")
        for i in range(25)
    )
    cases = gen_multilaw_evalset(default_inv, pool, 5, 6, 20, task_rng(0, "multilaw"))
    assert _corpus_digest(cases) == MULTILAW_CORPUS_DIGEST


def test_ling_and_multilaw_words_survive_file_roundtrip(default_inv):
    # The generators accept a word by the inventory's extension table;
    # tokenize, which reads corpus files back, checks them here.
    multilaw = gen_multilaw_evalset(default_inv, make_pool(default_inv, 12), 5, 3, 20, task_rng(19, "file"))
    for case in _ling_corpus(default_inv, 3) + multilaw:
        for pair in case.dataset.pairs:
            assert tokenize(pair.source.surface, default_inv) == pair.source
            assert tokenize(pair.target.surface, default_inv) == pair.target


def test_ling_rule_requires_protoforms(default_inv):
    with pytest.raises(ValueError):
        gen_ling_rule(default_inv, [], LingSpec(), task_rng(14, "empty"))


def test_ling_rule_attempt_cap_exhausts(default_inv):
    # single-phone protoforms can never host a pre+change+post window
    from cascade_forge.phonology import TokenizedWord
    protos = [TokenizedWord.from_phones(["a"]) for _ in range(4)]
    spec = LingSpec(min_applicable=3, protoforms_per_language=4)
    with pytest.raises(GenerationError, match="no applicable rule"):
        gen_ling_rule(default_inv, protos, spec, task_rng(14, "cap"))


# Statistical conformance: the gates and lengths draw the distributions of
# |z| >= 1 and round(|z|) for a standard normal z, however they draw them.
P_TAIL = math.erfc(math.sqrt(0.5))  # P(|z| >= 1) ~= 0.3173


def _within(hits, n, p, sigmas=3):
    return abs(hits / n - p) <= sigmas * math.sqrt(p * (1 - p) / n)


def test_gated_requirements_keep_a_specified_feature_at_the_tail_rate(default_inv):
    picker, rng = random.Random(5), random.Random(22)
    decisions = kept = 0
    for _ in range(600):
        features = picker.choice(default_inv.phones).features
        gated = _gated_requirements(features, rng)
        assert [idx for idx, _ in gated] == sorted({idx for idx, _ in gated})
        assert all(value in (0, 1) and features[idx] == value for idx, value in gated)
        decisions += sum(value in (0, 1) for value in features)
        kept += len(gated)
    assert decisions >= 10_000
    assert _within(kept, decisions, P_TAIL), kept / decisions


def test_changeto_features_take_each_tail_at_half_the_tail_rate():
    rng = random.Random(23)
    n, calls = 24, 500
    values = collections.Counter()
    for _ in range(calls):
        changes = _changeto_features(n, rng)
        assert set(changes) <= set(range(n))
        values.update(changes.values())
    assert set(values) <= {0, 1}
    for value in (0, 1):
        assert _within(values[value], n * calls, P_TAIL / 2), (value, values[value] / (n * calls))


def test_gaussian_lengths_follow_rounded_half_normal():
    rng = random.Random(24)
    n = 20_000
    counts = collections.Counter(synthgen._gaussian_length(rng) for _ in range(n))
    assert min(counts) >= 1
    for length in (1, 2, 3, 4):
        # P(round(|z|) = k) = P(k - 1/2 <= |z| < k + 1/2)
        k = length - 1
        p = math.erf((k + 0.5) / math.sqrt(2)) - (math.erf((k - 0.5) / math.sqrt(2)) if k else 0.0)
        assert _within(counts[length], n, p), (length, counts[length] / n, p)


def _language_stats(case):
    """Per-language statistics of a ling case: feature positions per rule,
    requirements per position, changed words, and the share of its rules
    holding a delete, a substitute and an insert."""
    rules = case.ground_truth.rules
    positions = [p for rule in rules for p in rule.predicates if isinstance(p, FeatureReq)]

    def share(kind):
        return sum(any(isinstance(fn, kind) for fn in rule.mappings) for rule in rules) / len(rules)

    return {
        "positions_per_rule": len(positions) / len(rules),
        "reqs_per_position": sum(len(p.reqs) for p in positions) / len(positions),
        "changed_words": sum(p.source != p.target for p in case.dataset.pairs),
        "delete_share": share(Delete),
        "substitute_share": share(Substitute),
        "insert_share": share(Insert),
    }


# Means of _language_stats over 4,000 languages,
# gen_ling_corpus(default_inventory(), LingSpec(num_languages=4000, min_applicable=2, seed=1)),
# drawn by the generator that matched Random.gauss's stream draw for draw.
LING_LANGUAGE_MEANS = {
    "positions_per_rule": 3.9245,
    "reqs_per_position": 6.6106,
    "changed_words": 7.6610,
    "delete_share": 0.4424,
    "substitute_share": 0.2723,
    "insert_share": 0.4342,
}


@pytest.mark.parametrize("seed", [0, 21])
def test_ling_corpus_statistics_conform(default_inv, seed):
    # Languages are independent draws, so each statistic's per-language
    # mean over 150 of them lies within 4 standard errors of its expected
    # value, whatever order the generator draws its randomness in.
    stats = [_language_stats(case) for case in gen_ling_corpus(
        default_inv, LingSpec(num_languages=150, min_applicable=2, seed=seed)
    )]
    for key, expected in LING_LANGUAGE_MEANS.items():
        values = [s[key] for s in stats]
        error = statistics.stdev(values) / math.sqrt(len(values))
        assert abs(statistics.fmean(values) - expected) <= 4 * error, (key, statistics.fmean(values), expected)


def _sites_by_scan(inv, words, window, inserts):
    rule = layout_rule([FeatureReq(reqs) for reqs in window], {}, inserts)
    return [i for i, word in enumerate(words) if scan_sites(rule, word, inv)]


def test_protoform_text_sites_agree_with_scan_sites(default_inv):
    inv = default_inv
    rng = random.Random(22)
    profiles = sorted(PROFILES)
    sited = 0
    for _ in range(150):
        profile = PROFILES[rng.choice(profiles)]
        words = [nonce_word(inv, profile, rng) for _ in range(rng.randint(0, 8))]
        words += [TokenizedWord.from_phones(()), TokenizedWord.from_phones([rng.choice(profile.vowels)])]
        words.append(TokenizedWord.from_phones([rng.choice(profile.onsets)] * rng.randint(2, 4)))
        rng.shuffle(words)
        text = _ProtoformText(inv, words)
        phones = [phone for word in words for phone in word.phones]
        for _ in range(20):
            window = []
            for _ in range(rng.randint(1, 6)):
                kind = rng.random()
                if kind < 0.3:
                    window.append(())
                elif kind < 0.4:
                    idx = rng.randrange(inv.num_features)
                    window.append(((idx, 0), (idx, 1)))
                else:
                    features = inv.phone(rng.choice(phones)).features
                    window.append(tuple(
                        (idx, value) for idx, value in enumerate(features)
                        if value != -1 and rng.random() < 0.2
                    ))
            inserts = {
                gap: [rng.choice(inv.symbols)] for gap in range(len(window) + 1) if rng.random() < 0.2
            }
            expected = _sites_by_scan(inv, words, window, inserts)
            assert text.sited(window) == expected, (words, window, inserts)
            sited += bool(expected)
    assert sited > 500  # the windows find sites, not only their absence


# --- nonce words -----------------------------------------------------------------------


def test_nonce_words_are_inventory_valid(default_inv):
    for name, profile in PROFILES.items():
        for symbol in (*profile.onsets, *profile.vowels, *profile.codas):
            assert symbol in default_inv, f"{name}: {symbol}"
        rng = task_rng(15, "nonce", name)
        for _ in range(50):
            word = nonce_word(default_inv, profile, rng)
            assert 2 <= len(word.phones) <= 9
            assert tokenize(word.surface, default_inv) == word


# --- multi-law sets -----------------------------------------------------------------------


def make_pool(inv, count, seed=16):
    spec = SmpSpec(seed=seed)
    return Cascade([
        gen_smp_law(inv, spec, task_rng(seed, "pool", i), name=f"pool-{i}")
        for i in range(count)
    ])


def test_multilaw_shape_and_balance(default_inv):
    pool = make_pool(default_inv, 12)
    cases = gen_multilaw_evalset(default_inv, pool, rules_per_set=5, sets=3,
                                 words_per_set=20, rng=task_rng(17, "ml"))
    assert len(cases) == 3
    for case in cases:
        assert len(case.ground_truth) == 5
        assert len(case.dataset) == 20
        unchanged = sum(1 for p in case.dataset.pairs if p.source == p.target)
        assert unchanged >= 10
        assert_case_reproduced(case, default_inv)


def test_multilaw_preserves_pool_order(default_inv):
    pool = make_pool(default_inv, 10)
    cases = gen_multilaw_evalset(default_inv, pool, 4, 5, 10, task_rng(18, "order"))
    for case in cases:
        positions = [
            next(i for i, p in enumerate(pool.rules) if p is rule) for rule in case.ground_truth.rules
        ]
        assert positions == sorted(set(positions))


def test_multilaw_resolves_each_environment_once_per_set(default_inv, monkeypatch):
    calls = []

    def counting(rule, inv=None):
        calls.append(rule)
        return environment_phones(rule, inv)

    monkeypatch.setattr(synthgen, "environment_phones", counting)
    pool = make_pool(default_inv, 8)
    cases = gen_multilaw_evalset(default_inv, pool, 3, 2, 20, task_rng(23, "envs"))
    assert len(cases) == 2
    assert len(calls) <= 3 * 2


def test_multilaw_over_feature_rules_and_a_rule_without_phones(default_inv):
    # The smp pools hold phone sets only; feature rules resolve their
    # environment through the inventory, and a rule with no phone
    # predicate has none, so its seeded words are plain nonce words.
    rng = task_rng(19, "ml-ling")
    protos = [nonce_word(default_inv, PROFILES["spa"], rng) for _ in range(50)]
    rules = [gen_ling_rule(default_inv, protos, LingSpec(), rng)[0] for _ in range(3)]
    final = Rule([Not(PhoneSet({"a"})), IsNothing(), WordEnd()], [0], [Delete()])
    assert all(environment_phones(rule, default_inv) for rule in rules)
    with pytest.raises(GenerationError, match="no phone predicates"):
        environment_phones(final, default_inv)
    cases = gen_multilaw_evalset(default_inv, Cascade([*rules, final]), 4, 3, 20, task_rng(19, "ml"))
    assert len(cases) == 3
    for case in cases:
        assert case.ground_truth.rules == (*rules, final)
        assert len(case.dataset) == 20
        assert sum(1 for p in case.dataset.pairs if p.source != p.target) == 10
        assert_case_reproduced(case, default_inv)


def test_multilaw_pool_changing_every_word_exhausts_the_draw_budget(default_inv, monkeypatch):
    monkeypatch.setattr(synthgen, "MULTILAW_DRAW_BUDGET", 500)
    append_a = Cascade([Rule([IsNothing(), WordEnd()], [0], [Insert(("a",))])])
    with pytest.raises(GenerationError) as raised:
        gen_multilaw_evalset(default_inv, append_a, 1, 1, 20, task_rng(19, "every"))
    assert str(raised.value) == "draw budget exhausted while building set 0 (10/10 changed, 0/10 unchanged)"


def test_multilaw_rejects_small_pool(default_inv):
    pool = make_pool(default_inv, 3)
    with pytest.raises(ValueError):
        gen_multilaw_evalset(default_inv, pool, 5, 1, 10, task_rng(19, "small"))


@pytest.mark.parametrize("rules_per_set", [0, -1])
def test_multilaw_rejects_fewer_than_one_rule_per_set(default_inv, rules_per_set):
    pool = make_pool(default_inv, 3)
    with pytest.raises(ValueError, match="rules_per_set"):
        gen_multilaw_evalset(default_inv, pool, rules_per_set, 1, 10, task_rng(19, "none"))


# --- corpus writing and determinism --------------------------------------------------------


def test_write_corpus_layout(default_inv, tmp_path):
    cases = gen_smp_corpus(default_inv, SmpSpec(examples_per_law=20, seed=20), laws=2)
    out = tmp_path / "corpus"
    write_corpus(str(out), cases, {"generator": "smp", "seed": 20})
    assert (out / "manifest.json").exists()
    assert (out / "case_0000" / "rule.json").exists()
    assert (out / "case_0000" / "pairs.tsv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cases"] == 2
    lines = (out / "case_0000" / "pairs.tsv").read_text().splitlines()
    assert len(lines) == 20
    assert all("\t" in line for line in lines)


def test_corpus_generation_is_byte_deterministic(default_inv, tmp_path):
    spec = SmpSpec(examples_per_law=20, seed=21)
    for name in ("one", "two"):
        cases = gen_smp_corpus(default_inv, spec, laws=3)
        write_corpus(str(tmp_path / name), cases, {"generator": "smp", "seed": 21})
    one, two = tree_bytes(tmp_path / "one"), tree_bytes(tmp_path / "two")
    assert one == two


def test_multilaw_cases_write_cascades(default_inv, tmp_path):
    pool = make_pool(default_inv, 8)
    cases = gen_multilaw_evalset(default_inv, pool, 3, 1, 10, task_rng(22, "write"))
    write_corpus(str(tmp_path / "ml"), cases, {"generator": "multilaw"})
    assert (tmp_path / "ml" / "case_0000" / "cascade.json").exists()
