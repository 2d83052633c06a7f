import copy
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cascade_forge.phonology import (
    BOUNDARY,
    SEPARATOR,
    InventoryError,
    TokenizedWord,
    detokenize,
    tokenize,
    validate_word,
)
from cascade_forge.rule_engine import (
    MAX_NOT_DEPTH,
    QUOTE_LIMIT,
    Cascade,
    Delete,
    FeatureReq,
    Insert,
    IsNothing,
    MappingFn,
    Not,
    PhoneSet,
    Predicate,
    Rule,
    RuleError,
    RuleParseError,
    Substitute,
    WordEnd,
    WordListText,
    WordStart,
    apply_cascade,
    apply_rule,
    cascade_to_obj,
    find_sites,
    layout_rule,
    parse_cascade,
    parse_rule,
    rule_from_obj,
    rule_to_obj,
    serialize_cascade,
    serialize_rule,
)
from cascade_forge.metrics import Scorer
from cascade_forge.proposers import (
    ProposalRequest,
    builtin_enumerative_propose,
    candidate_to_rule,
    extract_edit_candidates,
    rank_rules,
)
from cascade_forge.synthgen import (
    LingSpec,
    SmpSpec,
    gen_ling_rule,
    gen_smp_examples,
    gen_smp_law,
    nonce_word,
    PROFILES,
    task_rng,
)

from oracles import reference_apply, scan_sites


def sub_rule(env, pos, old, new, name=None):
    predicates = []
    for i, phone in enumerate(env):
        if i:
            predicates.append(IsNothing())
        predicates.append(PhoneSet({phone}))
    return Rule(predicates, [2 * pos], [Substitute({old: (new,)})], name=name)


A_TO_E_BEFORE_J = sub_rule("aj", 0, "a", "e", name="a>e/_j")


# --- predicates ---------------------------------------------------------------


def test_match_phone_set():
    pred = PhoneSet({"a"})
    assert pred.matches("a", False, False, None)
    assert not pred.matches("b", False, False, None)
    assert not pred.matches("@", False, False, None)


def test_match_is_nothing():
    assert IsNothing().matches("@", False, False, None)
    assert not IsNothing().matches("a", False, False, None)
    assert not IsNothing().matches("#", True, False, None)


def test_match_boundaries_are_positional():
    assert WordStart().matches("#", True, False, None)
    assert not WordStart().matches("#", False, True, None)
    assert WordEnd().matches("#", False, True, None)
    assert not WordEnd().matches("#", True, False, None)
    assert not WordEnd().matches("a", False, True, None)


def test_match_not_inverts():
    assert not Not(WordStart()).matches("#", True, False, None)
    assert Not(WordStart()).matches("a", False, False, None)
    assert Not(PhoneSet({"a"})).matches("@", False, False, None)


def test_match_feature_req(tiny_inv):
    pred = FeatureReq({0: 1})  # syllabic
    assert pred.matches("a", False, False, tiny_inv)
    assert not pred.matches("t", False, False, tiny_inv)
    # structural tokens never satisfy a feature requirement
    assert not pred.matches("#", True, False, tiny_inv)
    assert not pred.matches("@", False, False, tiny_inv)


def test_match_feature_req_needs_inventory():
    with pytest.raises(RuleError, match="inventory"):
        FeatureReq({0: 1}).matches("a", False, False, None)


# --- find_sites -----------------------------------------------------------------


def test_find_sites_env_in_middle(tiny_inv):
    word = tokenize("kaj", tiny_inv)
    assert find_sites(A_TO_E_BEFORE_J, word) == [4]  # index of "a"


def test_find_sites_absent_environment(tiny_inv):
    assert find_sites(A_TO_E_BEFORE_J, tokenize("ku", tiny_inv)) == []


def test_find_sites_overlapping_all_recorded(tiny_inv):
    rule = Rule([PhoneSet({"a"})], [0], [Substitute({"a": ("e",)})])
    word = tokenize("aaa", tiny_inv)
    assert find_sites(rule, word) == [2, 4, 6]


def test_find_sites_window_never_past_end(tiny_inv):
    rule = sub_rule("aaaa", 0, "a", "e")
    word = tokenize("aa", tiny_inv)  # 7 tokens < env of 7 fits exactly once? env covers 4 phones
    assert find_sites(rule, word) == []


def test_find_sites_raises_on_an_unvalidated_feature_index_out_of_range(tiny_inv):
    rule = Rule([FeatureReq({tiny_inv.num_features: 1})], [0], [Delete()])
    with pytest.raises(InventoryError, match="out of range"):
        find_sites(rule, tokenize("ka", tiny_inv), tiny_inv)


def test_find_sites_matches_window_scan_oracle(tiny_inv):
    rng = random.Random(4)
    symbols = tiny_inv.symbols
    for _ in range(300):
        env = "".join(rng.choice("aeiutk") for _ in range(rng.randint(1, 3)))
        rule = sub_rule(env, 0, env[0], "u")
        phones = [rng.choice(symbols) for _ in range(rng.randint(0, 6))]
        word = TokenizedWord.from_phones(phones)
        assert find_sites(rule, word, tiny_inv) == scan_sites(rule, word, tiny_inv)


# --- apply_rule -------------------------------------------------------------------


def test_apply_substitution(tiny_inv):
    out = apply_rule(A_TO_E_BEFORE_J, tokenize("aj", tiny_inv))
    assert detokenize(out) == "ej"


def test_apply_word_final_insertion(tiny_inv):
    rule = Rule([PhoneSet({"i"}), IsNothing(), WordEnd()], [1], [Insert(("k",))])
    assert detokenize(apply_rule(rule, tokenize("ti", tiny_inv))) == "tik"


def test_apply_insertion_does_not_self_feed(tiny_inv):
    rule = Rule([PhoneSet({"a"}), IsNothing()], [1], [Insert(("a",))])
    out = apply_rule(rule, tokenize("ba", tiny_inv))
    assert detokenize(out) == "baa"
    # a second pass sees two sites (both a's) and stays bounded: one insert per site
    assert detokenize(apply_rule(rule, out)) == "baaaa"


def test_apply_sites_detected_on_original_only(tiny_inv):
    # a -> aa after a: "aa" has one site (the first a), giving "aaa" not more
    rule = Rule([PhoneSet({"a"}), IsNothing(), PhoneSet({"a"})], [0],
                [Substitute({"a": ("a", "a")})])
    assert detokenize(apply_rule(rule, tokenize("aa", tiny_inv))) == "aaa"


def test_apply_overlap_conflict_leftmost_wins(tiny_inv):
    # both positions of [a @ a] deleted; on "aaa" the two sites overlap at the middle a
    rule = Rule(
        [PhoneSet({"a"}), IsNothing(), PhoneSet({"a"})],
        [0, 2],
        [Delete(), Delete()],
    )
    out = apply_rule(rule, tokenize("aaa", tiny_inv))
    assert detokenize(out) == ""


def test_apply_partial_substitute_is_noop_with_diagnostic(tiny_inv):
    rule = Rule([PhoneSet({"a", "e"})], [0], [Substitute({"a": ("u",)})])
    out = apply_rule(rule, tokenize("ea", tiny_inv))
    assert detokenize(out) == "eu"


def test_apply_preserves_canonical_structure(tiny_inv):
    rng = random.Random(9)
    for _ in range(200):
        env = "".join(rng.choice("aeiu") for _ in range(rng.randint(1, 2)))
        kind = rng.choice(("del", "sub", "ins"))
        if kind == "del":
            rule = Rule([PhoneSet({env[0]})], [0], [Delete()])
        elif kind == "sub":
            rule = sub_rule(env, 0, env[0], rng.choice("tk"))
        else:
            rule = Rule([PhoneSet({env[0]}), IsNothing()], [1], [Insert((rng.choice("tk"),))])
        phones = [rng.choice(tiny_inv.symbols) for _ in range(rng.randint(0, 5))]
        out = apply_rule(rule, TokenizedWord.from_phones(phones), tiny_inv)
        validate_word(out, tiny_inv)


def test_apply_output_length_bounded(tiny_inv):
    rng = random.Random(13)
    for _ in range(200):
        insert_len = rng.randint(1, 3)
        rule = Rule(
            [PhoneSet({"a"}), IsNothing()],
            [1],
            [Insert(tuple(rng.choice("tk") for _ in range(insert_len)))],
        )
        phones = [rng.choice(tiny_inv.symbols) for _ in range(rng.randint(0, 6))]
        word = TokenizedWord.from_phones(phones)
        sites = find_sites(rule, word, tiny_inv)
        out = apply_rule(rule, word, tiny_inv)
        assert len(out.phones) <= len(word.phones) + len(sites) * insert_len


def test_apply_matches_reference_on_random_generated_rules(default_inv):
    rng = random.Random(21)
    spec = SmpSpec()
    profiles = sorted(PROFILES)
    for i in range(300):
        rule = gen_smp_law(default_inv, spec, rng)
        profile = PROFILES[rng.choice(profiles)]
        word = nonce_word(default_inv, profile, rng)
        assert apply_rule(rule, word, default_inv) == reference_apply(rule, word, default_inv)


def test_apply_matches_reference_on_feature_rules(default_inv):
    spec = LingSpec(min_applicable=2, protoforms_per_language=20)
    for i in range(20):
        rng = task_rng(31, "ref", i)
        profile = PROFILES[rng.choice(sorted(PROFILES))]
        protos = [nonce_word(default_inv, profile, rng) for _ in range(20)]
        rule, forms = gen_ling_rule(default_inv, protos, spec, rng)
        for word in protos:
            assert apply_rule(rule, word, default_inv) == reference_apply(rule, word, default_inv)
        assert forms == [reference_apply(rule, word, default_inv) for word in protos]


def _random_feature_rule(inv, rng):
    """A valid rule over 1-3 phone slots that are FeatureReq, Not(FeatureReq),
    FeatureReq({}) or a phone set, with optional word-edge anchors, one
    delete or substitute on a slot and sometimes an insert."""
    symbols = inv.symbols

    def reqs():
        indices = rng.sample(range(inv.num_features), rng.randint(1, 2))
        return {i: rng.randint(0, 1) for i in indices}

    preds = [WordStart(), IsNothing()] if rng.random() < 0.2 else []
    slots, kinds = [], []
    for k in range(rng.randint(1, 3)):
        if k:
            preds.append(IsNothing())
        kind = rng.choice(("req", "not_req", "empty_req", "phone_set"))
        if kind == "req":
            pred = FeatureReq(reqs())
        elif kind == "not_req":
            pred = Not(FeatureReq(reqs()))
        elif kind == "empty_req":
            pred = FeatureReq({})
        else:
            pred = PhoneSet(rng.sample(symbols, rng.randint(1, 3)))
        slots.append(len(preds))
        kinds.append(kind)
        preds.append(pred)
    if rng.random() < 0.2:
        preds += [IsNothing(), WordEnd()]
    changes = {}
    slot = rng.choice(slots)
    if rng.random() < 0.5:
        changes[slot] = Delete()
    else:
        keys = rng.sample(symbols, min(len(symbols), 6))
        changes[slot] = Substitute({k: tuple(rng.sample(symbols, rng.randint(1, 2))) for k in keys})
    if rng.random() < 0.5:
        gaps = [i for i, p in enumerate(preds) if isinstance(p, IsNothing)]
        if not gaps:
            preds.append(IsNothing())
            gaps = [len(preds) - 1]
        changes[rng.choice(gaps)] = Insert(rng.sample(symbols, rng.randint(1, 2)))
    ordered = sorted(changes.items())
    rule = Rule(preds, [p for p, _ in ordered], [fn for _, fn in ordered])
    rule.validate(inv)
    return rule, kinds


FOREIGN = "ʘ"


@pytest.mark.parametrize("inv_fixture", ["tiny_inv", "default_inv"])
def test_feature_predicates_match_oracles_on_random_rules(inv_fixture, request):
    inv = request.getfixturevalue(inv_fixture)
    rng = random.Random(f"feature-oracle-{inv_fixture}")
    # One word in four carries "ʘ", a phone neither inventory has: it
    # satisfies no feature requirement, so only a negation matches it.
    assert FOREIGN not in inv
    seen_kinds = set()
    foreign_words = 0
    for _ in range(300):
        rule, kinds = _random_feature_rule(inv, rng)
        seen_kinds.update(kinds)
        for _ in range(4):
            phones = [rng.choice(inv.symbols) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.25:
                phones.insert(rng.randint(0, len(phones)), FOREIGN)
                foreign_words += 1
            word = TokenizedWord.from_phones(phones)
            assert find_sites(rule, word, inv) == scan_sites(rule, word, inv)
            out = apply_rule(rule, word, inv)
            assert out == reference_apply(rule, word, inv)
            validate_word(out, None if FOREIGN in phones else inv)
    assert seen_kinds == {"req", "not_req", "empty_req", "phone_set"}
    assert foreign_words > 100


BASE_KINDS = ("phone_set", "is_nothing", "word_start", "word_end", "feature_req", "empty_req")


def _random_predicate(inv, rng, features, depth=0):
    """Any predicate kind and its label; negations nest up to twice."""
    kinds = [k for k in BASE_KINDS if features or not k.endswith("_req")]
    kind = rng.choice(kinds + ["not"] * (depth < 2))
    if kind == "phone_set":
        return PhoneSet(rng.sample(inv.symbols, rng.randint(1, 3))), kind
    if kind == "is_nothing":
        return IsNothing(), kind
    if kind == "word_start":
        return WordStart(), kind
    if kind == "word_end":
        return WordEnd(), kind
    if kind == "feature_req":
        indices = rng.sample(range(inv.num_features), rng.randint(1, 2))
        return FeatureReq({i: rng.randint(0, 1) for i in indices}), kind
    if kind == "empty_req":
        return FeatureReq({}), kind
    inner, label = _random_predicate(inv, rng, features, depth + 1)
    return Not(inner), f"not({label})"


def _random_any_offset_rule(inv, rng, features):
    """A valid rule of 1-5 predicates, each of any kind at any offset.

    Half the offsets draw a predicate of any kind; the rest fit the
    ``# @ p @ … #`` layout (a separator or a phone set by offset parity), so
    that windows do match.  Each phone-matching offset may delete or
    substitute and each is-nothing offset may insert.
    """
    symbols = inv.symbols
    while True:
        width = rng.randint(1, 5)
        parity = rng.randint(0, 1)
        preds, labels = [], []
        for offset in range(width):
            if rng.random() < 0.5:
                pred, label = _random_predicate(inv, rng, features)
            elif offset % 2 == parity:
                pred, label = IsNothing(), "is_nothing"
            else:
                pred, label = PhoneSet(rng.sample(symbols, rng.randint(1, 3))), "phone_set"
            preds.append(pred)
            labels.append(label)
        changes = {}
        for offset, pred in enumerate(preds):
            if rng.random() < 0.5:
                continue
            if isinstance(pred, IsNothing):
                changes[offset] = Insert(rng.sample(symbols, rng.randint(1, 2)))
            elif isinstance(pred, (PhoneSet, FeatureReq, Not)):
                if rng.random() < 0.5:
                    changes[offset] = Delete()
                else:
                    keys = rng.sample(symbols, min(len(symbols), 6))
                    changes[offset] = Substitute({k: tuple(rng.sample(symbols, rng.randint(1, 2))) for k in keys})
        if changes:
            ordered = sorted(changes.items())
            rule = Rule(preds, [p for p, _ in ordered], [fn for _, fn in ordered])
            rule.validate(inv)
            return rule, labels


@pytest.mark.parametrize("inv_fixture", ["tiny_inv", "default_inv"])
def test_every_predicate_kind_matches_oracles_at_any_offset(inv_fixture, request):
    inv = request.getfixturevalue(inv_fixture)
    rng = random.Random(f"any-offset-{inv_fixture}")
    seen = set()
    sites = 0
    for i in range(600):
        features = i % 2 == 0
        rule, labels = _random_any_offset_rule(inv, rng, features)
        width = len(labels)
        seen.update((label, 0 < offset < width - 1) for offset, label in enumerate(labels))
        # A rule without feature predicates needs no inventory to match.
        inventories = (inv,) if features else (inv, None)
        for _ in range(4):
            phones = [rng.choice(inv.symbols) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.25:
                phones.insert(rng.randint(0, len(phones)), FOREIGN)
            word = TokenizedWord.from_phones(phones)
            for at in inventories:
                found = find_sites(rule, word, at)
                assert found == scan_sites(rule, word, at)
                assert apply_rule(rule, word, at) == reference_apply(rule, word, at)
                sites += len(found)
    labels_seen = {label for label, _ in seen}
    for kind in ("is_nothing", "word_start", "word_end"):
        assert (kind, True) in seen, f"{kind} never drawn mid-environment"
    for kind in BASE_KINDS:
        assert f"not({kind})" in labels_seen
    assert any(label.startswith("not(not(") for label in labels_seen)
    assert sites > 1000


def test_anchor_is_the_smallest_top_level_phone_set():
    a, ab, bc = PhoneSet({"a"}), PhoneSet({"a", "b"}), PhoneSet({"b", "c"})
    assert Rule([ab, IsNothing(), a], [2], [Delete()]).anchor == (2, frozenset({"a"}))
    assert Rule([ab, IsNothing(), bc], [0], [Delete()]).anchor == (0, frozenset({"a", "b"}))  # lowest offset
    assert Rule([Not(a), IsNothing(), bc], [2], [Delete()]).anchor == (2, frozenset({"b", "c"}))
    assert Rule([Not(a)], [0], [Delete()]).anchor is None  # a phone set inside not never anchors
    assert Rule([WordStart(), IsNothing(), FeatureReq({0: 1})], [2], [Delete()]).anchor is None
    # The anchor takes no part in equality or repr.
    assert "anchor" not in repr(Rule([a], [0], [Delete()]))


# Phones of the tiny inventory plus the structural tokens, so that an
# unvalidated phone set on "#" or "@" is drawn too.
ANCHOR_TOKENS = ("a", "e", "i", "j", "k", "t", BOUNDARY, SEPARATOR)


def _random_anchored_rule(rng, width):
    """A rule of ``width`` predicates, each a phone set of 1-3 tokens, a
    negated phone set, or a structural predicate, with random changes; it is
    not validated, so phone sets may hold ``#`` or ``@``."""
    preds = []
    for _ in range(width):
        kind = rng.choice(("phone_set", "phone_set", "not_phone_set", "is_nothing", "word_edge"))
        if kind == "phone_set":
            preds.append(PhoneSet(rng.sample(ANCHOR_TOKENS, rng.randint(1, 3))))
        elif kind == "not_phone_set":
            preds.append(Not(PhoneSet(rng.sample(ANCHOR_TOKENS, rng.randint(1, 2)))))
        elif kind == "is_nothing":
            preds.append(IsNothing())
        else:
            preds.append(rng.choice((WordStart(), WordEnd())))
    changes = {}
    for offset, pred in enumerate(preds):
        if rng.random() < 0.5:
            continue
        if isinstance(pred, IsNothing):
            changes[offset] = Insert(rng.sample("aeikt", rng.randint(1, 2)))
        elif isinstance(pred, (PhoneSet, Not)):
            changes[offset] = rng.choice((Delete(), Substitute({"a": ("e",), "t": ("k", "i")})))
    if not changes:
        changes[0] = Delete()
    ordered = sorted(changes.items())
    return Rule(preds, [p for p, _ in ordered], [fn for _, fn in ordered])


def _word_list_sites_agree(rule, words, inv=None):
    """Assert that one pass over ``words`` as a text finds, in every word,
    the oracle's sites, and that applying the rule at those sites is the
    oracle's application; a word without a site keeps its very object.
    Returns the number of sites."""
    text = WordListText(words)
    per_word = dict(text.word_sites(text.starts(rule, inv)))
    assert sorted(per_word) == list(per_word)
    for k, word in enumerate(words):
        sites = per_word.get(k, [])
        assert sites == scan_sites(rule, word, inv)
        out = apply_rule(rule, word, inv, sites)
        assert out == reference_apply(rule, word, inv)
        if not sites:
            assert out is word
    return sum(len(sites) for sites in per_word.values())


def test_anchored_matching_equals_the_oracles_at_every_offset():
    rng = random.Random("anchor-offsets")
    offsets, ties, multi, not_only, structural = set(), 0, 0, 0, set()
    for i in range(3000):
        rule = _random_anchored_rule(rng, 1 + i % 6)
        sets = [(len(p.phones), k) for k, p in enumerate(rule.predicates) if isinstance(p, PhoneSet)]
        if sets:
            size, offset = min(sets)
            assert rule.anchor == (offset, rule.predicates[offset].phones)
            offsets.add((len(rule.predicates), offset))
            ties += sum(1 for s, _ in sets if s == size) > 1
            multi += size > 1
            structural.update(rule.anchor[1] & {BOUNDARY, SEPARATOR})
        else:
            assert rule.anchor is None
            not_only += any(isinstance(p, Not) for p in rule.predicates)
        words = [
            TokenizedWord.from_phones([rng.choice("aeijkt") for _ in range(rng.randint(0, 6))])
            for _ in range(4)
        ]
        for word in words:
            assert find_sites(rule, word) == scan_sites(rule, word)
            assert apply_rule(rule, word) == reference_apply(rule, word)
        _word_list_sites_agree(rule, words)
    assert offsets == {(width, offset) for width in range(1, 7) for offset in range(width)}
    assert ties > 100 and multi > 100 and not_only > 10
    assert structural == {BOUNDARY, SEPARATOR}


def test_a_word_without_the_anchor_is_not_visited(tiny_inv):
    words = [tokenize(w, tiny_inv) for w in ("kat", "tit", "jaj", "kik")]
    text = WordListText(words)

    def visited(rule):
        return [k for k, _ in text.word_sites(text.starts(rule))]

    rule = sub_rule("aj", 0, "a", "e")
    assert text.word_sites(text.starts(rule)) == [(2, [4])]
    assert visited(sub_rule("a", 0, "a", "e")) == [0, 2]
    # Structural tokens are matched too: every word holds "#" and "@".
    assert visited(Rule([PhoneSet({BOUNDARY})], [0], [Delete()])) == [0, 1, 2, 3]
    assert visited(Rule([Not(PhoneSet({"a"}))], [0], [Delete()])) == [0, 1, 2, 3]
    # Only a visited window can raise: no word holds "e" beside the unknown predicate.
    for unknown in (
        Rule([PhoneSet({"e"}), IsNothing(), Unknown()], [0], [Delete()]),
        Rule([Unknown(), IsNothing(), PhoneSet({"e"})], [2], [Delete()]),
    ):
        assert text.starts(unknown) == 0
        with pytest.raises(RuleError, match="unknown predicate"):
            WordListText([*words, tokenize("te", tiny_inv)]).starts(unknown)


def test_word_list_sites_equal_the_oracle_for_every_predicate_kind(tiny_inv):
    rng = random.Random("word-list-sites")
    seen, sites = set(), 0
    for i in range(600):
        features = i % 2 == 0
        rule, labels = _random_any_offset_rule(tiny_inv, rng, features)
        seen.update(labels)
        words = []
        for _ in range(rng.randint(1, 5)):
            phones = [rng.choice(tiny_inv.symbols) for _ in range(rng.choice((0, 0, 1, 3, 6)))]
            if rng.random() < 0.25:
                phones.insert(rng.randint(0, len(phones)), FOREIGN)
            words.append(TokenizedWord.from_phones(phones))
        for at in (tiny_inv,) if features else (tiny_inv, None):
            sites += _word_list_sites_agree(rule, words, at)
    assert {"not(not(phone_set))", "not(feature_req)", "not(empty_req)", "word_start", "word_end"} <= seen
    assert sites > 500


def test_no_word_list_window_spans_two_words(tiny_inv):
    words = [tokenize(w, tiny_inv) for w in ("ka", "", "ta")]
    text = WordListText(words)
    # Each rule would match across the gap after a word if that gap held a token.
    spanning = [
        Rule([WordEnd(), WordStart()], [0], [Delete()]),
        Rule([PhoneSet({BOUNDARY}), PhoneSet({BOUNDARY})], [0], [Delete()]),
        Rule([WordEnd(), Not(PhoneSet({"a"}))], [0], [Delete()]),
        Rule([Not(IsNothing()), Not(IsNothing())], [0], [Delete()]),
        Rule([PhoneSet({"a"}), IsNothing(), WordEnd(), Not(FeatureReq({0: 1}))], [0], [Delete()]),
    ]
    for rule in spanning:
        assert text.starts(rule, tiny_inv) == 0
        _word_list_sites_agree(rule, words, tiny_inv)
    # The empty word "# @ #" is matched like any other.
    assert text.word_sites(text.starts(Rule([WordStart(), IsNothing(), WordEnd()], [1], [Insert("e")]))) == [
        (1, [0])
    ]


def test_rule_hash_is_the_field_tuple_hash_computed_once():
    rule = sub_rule("aj", 0, "a", "e")
    assert "_hash" not in vars(rule)
    assert hash(rule) == hash((rule.predicates, rule.change_pos, rule.mappings))
    assert vars(rule)["_hash"] == hash(rule)
    # Built from an unhashable slot, a rule fails only where it is hashed.
    unhashable = Rule([PhoneSet({"a"})], [[0]], [Delete()])
    with pytest.raises(TypeError):
        hash(unhashable)


# Builds a rule, hashes and serializes it, and prints its pickle as hex.
PICKLE_RULE_SCRIPT = """
import pickle
from cascade_forge.rule_engine import PhoneSet, Rule, Substitute, serialize_rule
rule = Rule([PhoneSet({"a", "tʰ"})], [0], [Substitute({"a": ("e",)})])
hash(rule), serialize_rule(rule)
print(pickle.dumps(rule).hex())
"""

# Reads a pickled rule as hex and prints whether it equals, and is found
# in a dict keyed by, its twin built in this process.
FIND_RULE_SCRIPT = """
import pickle, sys
from cascade_forge.rule_engine import PhoneSet, Rule, Substitute
rule = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = Rule([PhoneSet({"a", "tʰ"})], [0], [Substitute({"a": ("e",)})])
print(rule == fresh, rule in {fresh: 1})
"""


def _run_with_hash_seed(script, hash_seed, stdin=""):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], input=stdin, capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_a_rule_pickled_under_one_hash_seed_is_found_under_another():
    pickled = _run_with_hash_seed(PICKLE_RULE_SCRIPT, "1")
    assert _run_with_hash_seed(FIND_RULE_SCRIPT, "2", pickled) == "True True"


def test_copies_and_pickles_of_a_rule_remake_its_caches():
    rule = sub_rule("aj", 0, "a", "e", name="law")
    hash(rule), serialize_rule(rule)
    assert {"_hash", "_text"} <= set(vars(rule))
    for twin in (copy.copy(rule), copy.deepcopy(rule), pickle.loads(pickle.dumps(rule))):
        assert not {"_hash", "_text"} & set(vars(twin))
        assert twin == rule and twin.name == "law" and twin.anchor == rule.anchor
        assert hash(twin) == hash(rule) and serialize_rule(twin) == serialize_rule(rule)


class Unknown(Predicate):
    """A predicate kind that does not say how it matches."""


class UnknownEdit(MappingFn):
    """A mapping kind that does not say how it edits."""


def test_a_predicate_without_matches_raises_once_a_window_reaches_it(tiny_inv):
    rule = Rule([PhoneSet({"a"}), IsNothing(), Unknown()], [0], [Delete()])
    assert find_sites(rule, tokenize("kt", tiny_inv), tiny_inv) == []  # no window reaches it
    with pytest.raises(RuleError, match="unknown predicate"):
        find_sites(rule, tokenize("kat", tiny_inv), tiny_inv)


def test_a_feature_requirement_without_an_inventory_raises_only_on_a_reached_phone(tiny_inv):
    words = [tokenize(w, tiny_inv) for w in ("kat", "tit", "")]
    scorer = Scorer(words, words)
    quiet = [
        # The requirement sits on the "@" after the first "#": no phone token.
        Rule([WordStart(), FeatureReq({0: 1})], [1], [Delete()]),
        # No word holds "s", so no anchored window reaches the requirement.
        Rule([FeatureReq({0: 1}), IsNothing(), PhoneSet({"s"})], [0], [Delete()]),
    ]
    for rule in quiet:
        assert all(find_sites(rule, word) == [] for word in words)
        assert rank_rules([rule], scorer) == [(rule, scorer.report(words))]
    # On "k" the one window reaching the "k" would run past the word's end.
    short = [tokenize("k", tiny_inv)]
    past_end = Rule([IsNothing(), FeatureReq({0: 1}), IsNothing(), IsNothing(), IsNothing()], [1], [Delete()])
    assert find_sites(past_end, short[0]) == []
    assert rank_rules([past_end], Scorer(short, short))[0][1].passed
    reaching = Rule([WordStart(), IsNothing(), FeatureReq({0: 1})], [2], [Delete()])
    assert find_sites(reaching, words[2]) == []  # "# @ #" has "#" there
    for raising in (reaching, Rule([FeatureReq({0: 1}), IsNothing(), PhoneSet({"t"})], [0], [Delete()])):
        with pytest.raises(RuleError, match="inventory"):
            find_sites(raising, words[0])
        with pytest.raises(RuleError, match="inventory"):
            rank_rules([raising], scorer)


def test_an_unknown_predicate_raises_only_where_an_anchored_window_reaches_it(tiny_inv):
    rule = Rule([Unknown(), IsNothing(), PhoneSet({"e"})], [2], [Delete()])
    words = [tokenize(w, tiny_inv) for w in ("kat", "tit", "")]
    assert all(find_sites(rule, word) == [] for word in words)
    with pytest.raises(RuleError, match="unknown predicate"):
        find_sites(rule, tokenize("ke", tiny_inv))


def test_a_mapping_without_edit_raises_once_a_site_reaches_it(tiny_inv):
    rule = Rule([PhoneSet({"a"})], [0], [UnknownEdit()])
    assert apply_rule(rule, tokenize("kt", tiny_inv), tiny_inv) == tokenize("kt", tiny_inv)
    with pytest.raises(RuleError, match="unknown mapping function"):
        apply_rule(rule, tokenize("ka", tiny_inv), tiny_inv)


# --- cascades ---------------------------------------------------------------------


def test_empty_cascade_is_identity(tiny_inv):
    word = tokenize("kat", tiny_inv)
    out, trace = apply_cascade(Cascade(), word)
    assert out == word
    assert trace == []


def test_cascade_order_matters(tiny_inv):
    a_to_o = Rule([PhoneSet({"a"}), IsNothing(), PhoneSet({"k"})], [0],
                  [Substitute({"a": ("u",)})])
    k_to_t = Rule([PhoneSet({"k"}), IsNothing(), WordEnd()], [0],
                  [Substitute({"k": ("t",)})])
    word = tokenize("ak", tiny_inv)
    out1, trace1 = apply_cascade(Cascade([a_to_o, k_to_t]), word)
    assert detokenize(out1) == "ut"
    assert len(trace1) == 2
    out2, _ = apply_cascade(Cascade([k_to_t, a_to_o]), word)
    assert detokenize(out2) == "at"


def test_cascade_is_a_fold(tiny_inv):
    r1 = sub_rule("a", 0, "a", "e")
    r2 = sub_rule("e", 0, "e", "i")
    word = tokenize("aka", tiny_inv)
    folded, _ = apply_cascade(Cascade([r1, r2]), word)
    assert folded == apply_rule(r2, apply_rule(r1, word))


# --- validation and serialization ----------------------------------------------


def test_rule_validation_errors():
    with pytest.raises(RuleError):
        Rule([], [0], [Delete()]).validate()
    with pytest.raises(RuleError, match="outside"):
        Rule([PhoneSet({"a"})], [3], [Delete()]).validate()
    with pytest.raises(RuleError, match="duplicate"):
        Rule([PhoneSet({"a"})], [0, 0], [Delete(), Delete()]).validate()
    with pytest.raises(RuleError, match="is-nothing"):
        Rule([PhoneSet({"a"})], [0], [Insert(("k",))]).validate()
    with pytest.raises(RuleError, match="phone-matching"):
        Rule([IsNothing()], [0], [Delete()]).validate()
    with pytest.raises(RuleError, match="mappings"):
        Rule([PhoneSet({"a"})], [0], [Delete(), Delete()]).validate()


def test_rule_validation_rejects_a_feature_index_required_twice(tiny_inv):
    # Serialization keeps one value per index, so this rule could not be
    # written out and read back as itself.
    rule = Rule([FeatureReq(((1, 1), (1, 0)))], [0], [Delete()])
    assert json.loads(serialize_rule(rule))["predicates"][0]["reqs"] == {"1": 1}
    for inv in (None, tiny_inv):
        with pytest.raises(RuleError, match="names an index twice"):
            rule.validate(inv)


def test_parse_rule_rejects_a_feature_index_past_any_inventory(tiny_inv):
    text = json.dumps({
        "predicates": [{"kind": "feature_req", "reqs": {"100000000000000000000": 1}}],
        "change_pos": [0],
        "mappings": [{"kind": "delete"}],
    })
    for inv in (None, tiny_inv):
        with pytest.raises(RuleParseError, match="feature index 100000000000000000000 out of range"):
            parse_rule(text, inv)


def test_rule_validation_rejects_a_substitute_key_mapped_twice(tiny_inv):
    # Applied, the first target wins; serialized, the last one does.
    rule = Rule([PhoneSet({"a"})], [0], [Substitute((("a", ("e",)), ("a", ("u",))))])
    assert json.loads(serialize_rule(rule))["mappings"][0]["map"] == {"a": ["u"]}
    for inv in (None, tiny_inv):
        with pytest.raises(RuleError, match="maps a phone twice"):
            rule.validate(inv)


def test_rule_validation_against_inventory(tiny_inv):
    rule = Rule([PhoneSet({"zz"})], [0], [Delete()])
    rule.validate()  # structurally fine
    with pytest.raises(RuleError, match="not in inventory"):
        rule.validate(tiny_inv)


RESERVED_PLACES = {
    "phone set": lambda token: Rule([PhoneSet({token})], [0], [Delete()]),
    "substitute key": lambda token: Rule([PhoneSet({"a"})], [0], [Substitute({token: ("e",)})]),
    "substitute target": lambda token: Rule([PhoneSet({"a"})], [0], [Substitute({"a": ("e", token)})]),
    "insert": lambda token: Rule([IsNothing()], [0], [Insert(("a", token))]),
}


@pytest.mark.parametrize("token", [BOUNDARY, SEPARATOR, ""])
@pytest.mark.parametrize("place", sorted(RESERVED_PLACES))
def test_rule_validation_rejects_non_phones_without_inventory(place, token):
    with pytest.raises(RuleError, match=f"{token!r} is not a phone"):
        RESERVED_PLACES[place](token).validate()


def test_serialize_roundtrip_example_rule():
    text = serialize_rule(A_TO_E_BEFORE_J)
    parsed = parse_rule(text)
    assert parsed == A_TO_E_BEFORE_J
    assert serialize_rule(parsed) == text


def test_name_excluded_from_equality():
    named = sub_rule("aj", 0, "a", "e", name="a label")
    anonymous = sub_rule("aj", 0, "a", "e")
    assert named == anonymous
    assert parse_rule(serialize_rule(named)).name == "a label"


def test_serialization_is_canonical():
    rule1 = Rule([PhoneSet(["b", "a"])], [0], [Delete()])
    rule2 = Rule([PhoneSet(["a", "b"])], [0], [Delete()])
    assert serialize_rule(rule1) == serialize_rule(rule2)


def test_parse_errors_carry_paths():
    with pytest.raises(RuleParseError, match="/predicates/0/kind"):
        parse_rule('{"predicates":[{"kind":"nope"}],"change_pos":[0],"mappings":[{"kind":"delete"}]}')
    with pytest.raises(RuleParseError, match="change position 5 outside"):
        parse_rule('{"predicates":[{"kind":"phone_set","phones":["a"]}],"change_pos":[5],"mappings":[{"kind":"delete"}]}')
    with pytest.raises(RuleParseError):
        parse_rule("not json")
    with pytest.raises(RuleParseError, match="^/: empty phone set at position 0$"):
        parse_rule('{"predicates":[{"kind":"phone_set","phones":[]}],"change_pos":[0],"mappings":[{"kind":"delete"}]}')


DELETE_A = {"predicates": [{"kind": "phone_set", "phones": ["a"]}], "change_pos": [0], "mappings": [{"kind": "delete"}]}


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "/: expected an object, got list"),
        ({**DELETE_A, "predicates": 5}, "/predicates: expected a list, got int"),
        ({**DELETE_A, "predicates": [{"kind": "phone_set", "phones": [1]}]},
         "/predicates/0/phones/0: expected a string, got int"),
        ({**DELETE_A, "mappings": [{"kind": "substitute", "map": {"a": "e"}}]},
         "/mappings/0/map/a: expected a list, got str"),
        ({**DELETE_A, "mappings": [{"kind": "merge"}]}, "/mappings/0/kind: unknown mapping kind 'merge'"),
    ],
)
def test_a_rule_json_shape_fault_names_its_member(obj, message):
    with pytest.raises(RuleParseError) as raised:
        parse_rule(json.dumps(obj))
    assert str(raised.value) == message


def test_a_rule_object_nested_too_deep_to_decode_is_a_parse_error():
    # Built in Python, so no JSON decoder stops it before the rule decoder recurses.
    pred = {"kind": "phone_set", "phones": ["a"]}
    for _ in range(5000):
        pred = {"kind": "not", "inner": pred}
    with pytest.raises(RuleParseError) as raised:
        rule_from_obj({**DELETE_A, "predicates": [pred]})
    assert str(raised.value) == "/: nesting too deep"


def test_a_feature_rule_is_invalid_without_an_inventory(tiny_inv):
    # It could not match: FeatureReq.matches raises without an inventory.
    text = json.dumps({**DELETE_A, "predicates": [{"kind": "feature_req", "reqs": {"0": 1}}]})
    assert parse_rule(text, tiny_inv) == Rule([FeatureReq({0: 1})], [0], [Delete()])
    with pytest.raises(RuleParseError) as raised:
        parse_rule(text)
    assert str(raised.value) == "/: feature requirement at position 0 needs an inventory"

    negated = Rule([PhoneSet({"a"}), IsNothing(), Not(FeatureReq({0: 1}))], [0], [Delete()])
    negated.validate(tiny_inv)
    with pytest.raises(RuleError, match="^feature requirement at position 2 needs an inventory$"):
        negated.validate()
    # Every other check comes first.
    with pytest.raises(RuleError, match="^empty phone set at position 2$"):
        Rule([FeatureReq({0: 1}), IsNothing(), PhoneSet([])], [0], [Delete()]).validate()


@pytest.mark.parametrize(
    "member, value, start",
    [
        ("name", list(range(5000)), "/: rule name [0, 1, 2, "),
        ("phone", "x" * 20_000, "/: phone set at position 0: phone 'xxx"),
        ("kind", ["nope"] * 5000, "/predicates/0/kind: unknown predicate kind ['nope', "),
    ],
)
def test_a_rule_diagnostic_quotes_a_bounded_part_of_a_value(tiny_inv, member, value, start):
    obj = {"predicates": [{"kind": "phone_set", "phones": ["a"]}], "change_pos": [0], "mappings": [{"kind": "delete"}]}
    if member == "name":
        obj["name"] = value
    elif member == "phone":
        obj["predicates"][0]["phones"] = [value]
    else:
        obj["predicates"][0]["kind"] = value
    with pytest.raises(RuleParseError) as raised:
        parse_rule(json.dumps(obj), tiny_inv)
    message = str(raised.value)
    assert message.startswith(start)
    assert "…" in message and len(message) < QUOTE_LIMIT + 60



@pytest.mark.parametrize("value", ["true", "false", "1.0", "0.0"])
def test_feature_requirement_value_must_be_int_bit(value):
    # True == 1 and 1.0 == 1, so these once parsed to a rule equal to its
    # 0/1 twin that serialized differently.
    text = (
        '{"predicates":[{"kind":"feature_req","reqs":{"0":%s}}],'
        '"change_pos":[0],"mappings":[{"kind":"delete"}]}' % value
    )
    with pytest.raises(RuleParseError) as raised:
        parse_rule(text)
    assert str(raised.value) == f"/: feature requirement value {json.loads(value)!r} at position 0"


@pytest.mark.parametrize("key", ["1_0", "+5", " 5", "\u0663", "05"])
def test_feature_index_must_be_ascii_decimal_digits(key):
    # int() reads these as 10, 5, 5, 3 and 5; "05" beside "5" would name one feature twice.
    text = json.dumps({
        "predicates": [{"kind": "feature_req", "reqs": {key: 1}}],
        "change_pos": [0],
        "mappings": [{"kind": "delete"}],
    })
    with pytest.raises(RuleParseError, match="/predicates/0/reqs: feature index must be decimal digits"):
        parse_rule(text)


def test_not_nesting_is_bounded():
    def nested(depth):
        pred = PhoneSet(["a"])
        for _ in range(depth):
            pred = Not(pred)
        return Rule([pred], [0], [Delete()])

    nested(MAX_NOT_DEPTH).validate()
    for depth in (MAX_NOT_DEPTH + 1, 100_000):
        # Checked without recursion, before the rule is ever hashed.
        with pytest.raises(RuleError, match=f"^'not' nested over {MAX_NOT_DEPTH} deep at position 0$"):
            nested(depth).validate()


@pytest.mark.parametrize("value", [True, 1.0])
def test_feature_requirement_value_validated_when_built_in_code(value):
    with pytest.raises(RuleError, match="feature requirement value"):
        Rule([FeatureReq({0: value})], [0], [Delete()]).validate()

def test_random_rules_roundtrip(default_inv):
    spec = SmpSpec()
    ling_spec = LingSpec(min_applicable=2, protoforms_per_language=15)
    count = 0
    for i in range(1000):
        rng = task_rng(77, "roundtrip", i)
        if i % 10 == 0 and count < 30:
            profile = PROFILES[rng.choice(sorted(PROFILES))]
            protos = [nonce_word(default_inv, profile, rng) for _ in range(15)]
            rule, _ = gen_ling_rule(default_inv, protos, ling_spec, rng)
            count += 1
        else:
            rule = gen_smp_law(default_inv, spec, rng)
        text = serialize_rule(rule)
        parsed = parse_rule(text, default_inv)
        assert parsed == rule
        assert serialize_rule(parsed) == text


# Values a callable proposer might put where a rule expects a phone, a
# position, a predicate, a mapping or a name.
ODD_VALUES = ("0", 0.0, False, None, 1, "", "#", ("a",))


def _with(obj, **fields):
    """A copy of frozen ``obj`` with ``fields`` set as given, bypassing its constructor."""
    new = copy.copy(obj)
    for name, value in fields.items():
        object.__setattr__(new, name, value)
    return new


def _put(items, index, value):
    return (*items[:index], value, *items[index + 1:])


def _slots(rule):
    """One function per slot of ``rule``: it gives the rule with that slot set to its argument."""
    slots = [lambda v: _with(rule, name=v)]
    for i in range(len(rule.change_pos)):
        slots.append(lambda v, i=i: _with(rule, change_pos=_put(rule.change_pos, i, v)))
    for i, pred in enumerate(rule.predicates):
        def set_pred(new, i=i):
            return _with(rule, predicates=_put(rule.predicates, i, new))
        slots.append(set_pred)
        if isinstance(pred, PhoneSet):
            for phone in sorted(pred.phones):
                slots.append(lambda v, p=pred, ph=phone, s=set_pred: s(_with(p, phones=p.phones - {ph} | {v})))
    for i, fn in enumerate(rule.mappings):
        def set_fn(new, i=i):
            return _with(rule, mappings=_put(rule.mappings, i, new))
        slots.append(set_fn)
        if isinstance(fn, Insert):
            for j in range(len(fn.phones)):
                slots.append(lambda v, f=fn, j=j, s=set_fn: s(_with(f, phones=_put(f.phones, j, v))))
        if isinstance(fn, Substitute):
            for j, (key, target) in enumerate(fn.mapping):
                def set_entry(entry, f=fn, j=j, s=set_fn):
                    return s(_with(f, mapping=_put(f.mapping, j, entry)))
                slots.append(lambda v, t=target, e=set_entry: e((v, t)))
                slots.append(lambda v, key=key, e=set_entry: e((key, v)))
                for k in range(len(target)):
                    slots.append(lambda v, key=key, t=target, k=k, e=set_entry: e((key, _put(t, k, v))))
    return slots


def test_validate_rejects_or_passes_any_odd_slot_value_and_what_passes_round_trips(default_inv):
    rules = []
    for i in range(100):
        rng = task_rng(15, "odd-slot", i)
        law = gen_smp_law(default_inv, SmpSpec(), rng)
        rules.append(law)
        case = gen_smp_examples(default_inv, law, 10, rng)
        request = ProposalRequest(list(zip(case.dataset.sources, case.dataset.targets)), 1)
        rules.extend(builtin_enumerative_propose(request)[:1])
    assert len(rules) == 200
    rng = random.Random(15)
    outcomes = {"passed": 0, "rejected": 0}
    for rule in rules:
        odd = rng.choice(_slots(rule))(rng.choice(ODD_VALUES))
        for inv in (None, default_inv):
            try:
                odd.validate(inv)
            except RuleError:
                outcomes["rejected"] += 1
                continue
            outcomes["passed"] += 1
            assert parse_rule(serialize_rule(odd), inv) == odd
    assert outcomes["passed"] and outcomes["rejected"]


def test_cascade_roundtrip(tiny_inv):
    cascade = Cascade([A_TO_E_BEFORE_J, sub_rule("e", 0, "e", "i")])
    text = serialize_cascade(cascade)
    assert parse_cascade(text) == cascade


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


SERIALIZED_PHONES = ("a", "e", "tʰ", "ŋ", "é", "ʔ", "ts")


def _random_serialized_predicate(rng, depth=0):
    roll = rng.randrange(6 if depth < 3 else 5)
    if roll == 0:
        return PhoneSet(rng.sample(SERIALIZED_PHONES, rng.randint(1, 3)))
    if roll == 1:
        return FeatureReq({rng.randrange(12): rng.randint(0, 1) for _ in range(rng.randint(1, 3))})
    if roll == 5:
        return Not(_random_serialized_predicate(rng, depth + 1))
    return (IsNothing(), WordStart(), WordEnd(), PhoneSet({rng.choice(SERIALIZED_PHONES)}))[roll - 2]


def _random_serialized_rule(rng):
    preds = [_random_serialized_predicate(rng) for _ in range(rng.randint(1, 4))]
    positions = rng.sample(range(len(preds)), rng.randint(1, len(preds)))
    mappings = [
        Insert(rng.choices(SERIALIZED_PHONES, k=rng.randint(1, 2))) if isinstance(preds[pos], IsNothing)
        else Delete() if rng.random() < 0.3
        else Substitute({rng.choice(SERIALIZED_PHONES): tuple(rng.choices(SERIALIZED_PHONES, k=rng.randint(1, 2)))})
        for pos in positions
    ]
    return Rule(preds, positions, mappings, name=rng.choice((None, "law", "ŝ-law", "")))


def test_serialize_cascade_is_the_compact_sorted_json_of_its_rules():
    rng = random.Random(27)
    kinds = set()
    for _ in range(300):
        rules = [_random_serialized_rule(rng) for _ in range(rng.randint(0, 4))]
        for rule in rules:
            kinds.update(type(p).__name__ for p in rule.predicates)
            kinds.update("Not(Not)" for p in rule.predicates if isinstance(p, Not) and isinstance(p.inner, Not))
            first = serialize_rule(rule)
            assert first == _dumps(rule_to_obj(rule)) == serialize_rule(rule)
        cascade = Cascade(rules)
        assert serialize_cascade(cascade) == _dumps(cascade_to_obj(cascade))
    assert serialize_cascade(Cascade()) == "[]" == _dumps([])
    assert {"PhoneSet", "FeatureReq", "Not", "Not(Not)", "IsNothing", "WordStart", "WordEnd"} <= kinds


# --- rule layout ----------------------------------------------------------------


def test_layout_rule_separates_inner_gaps_and_pads_outer_gaps_only_to_insert():
    a, b = PhoneSet({"a"}), PhoneSet({"b"})
    rule = layout_rule([WordStart(), a, b], {2: Delete()}, {})
    assert rule.predicates == (WordStart(), IsNothing(), a, IsNothing(), b)
    assert rule.change_pos == (4,) and rule.mappings == (Delete(),)

    sub = Substitute({"a": ("e",)})
    rule = layout_rule([a, b], {0: sub}, {0: ("k",), 1: ["t", "s"], 2: ("u",)}, name="n")
    assert rule.predicates == (IsNothing(), a, IsNothing(), b, IsNothing())
    assert rule.change_pos == (0, 1, 2, 4)
    assert rule.mappings == (Insert(("k",)), sub, Insert(("t", "s")), Insert(("u",)))
    assert rule.name == "n"


def test_layout_rule_without_units_is_one_inserting_gap():
    rule = layout_rule([], {}, {0: ("a",)})
    assert rule.predicates == (IsNothing(),)
    assert rule.change_pos == (0,) and rule.mappings == (Insert(("a",)),)


@pytest.mark.parametrize("gap", [-1, 2])
def test_layout_rule_rejects_gaps_outside_the_units(gap):
    with pytest.raises(RuleError, match="insert gaps"):
        layout_rule([PhoneSet({"a"})], {}, {gap: ("e",)})


def _serialization_digest(rules):
    for rule in rules:
        assert list(rule.change_pos) == sorted(rule.change_pos)
    text = "\n".join(serialize_rule(rule) for rule in rules)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_built_rules_keep_their_serialization(default_inv):
    """The generators and the builtin proposer lay rules out token for token
    as they did before ``layout_rule`` owned the layout."""
    inv = default_inv
    smp = [gen_smp_law(inv, SmpSpec(), task_rng(0, "golden-smp", i), name=f"g{i}") for i in range(300)]
    assert _serialization_digest(smp) == "a55ebac3e15fe23ef3a2574656caac32442bef2fc039d6d8fde1362eef4afd74"

    spec = LingSpec(min_applicable=2, protoforms_per_language=20)
    ling = []
    for profile in ("deu", "ita", "vie"):
        rng = task_rng(0, "golden-ling", profile)
        protos = [nonce_word(inv, PROFILES[profile], rng) for _ in range(20)]
        ling += [gen_ling_rule(inv, protos, spec, rng)[0] for _ in range(4)]
    assert _serialization_digest(ling) == "9db42872c9d11387f33696fbfe62932eb4c17429b8e7ccabc93a85e87f1dcd7e"

    candidates = []
    for i in range(20):
        rng = task_rng(0, "golden-candidates", i)
        case = gen_smp_examples(inv, gen_smp_law(inv, SmpSpec(), rng), 10, rng)
        pairs = [(p.source, p.target) for p in case.dataset.pairs]
        distinct = dict.fromkeys(c for s, t in pairs for c in extract_edit_candidates(s, t))
        candidates += [candidate_to_rule(c) for c in distinct]
    assert len(candidates) == 2060
    assert _serialization_digest(candidates) == "3671d8e0e01c78d5857631fe41def798d34457963c519eda214d6811290d5de9"
