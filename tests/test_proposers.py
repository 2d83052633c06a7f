import hashlib
import itertools
import json
import os
import random
import stat
import subprocess
import sys
import textwrap
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from cascade_forge import proposers
from cascade_forge.metrics import Dataset, ExamplePair, Scorer, edit_script, reward
from cascade_forge.phonology import TokenizedWord, load_inventory, tokenize
from cascade_forge.proposers import (
    MAX_POOL,
    TIMEOUT_ENV_VAR,
    EditCandidate,
    ProposalRequest,
    ProposerSessions,
    builtin_enumerative_propose,
    builtin_proposer,
    callable_proposer,
    candidate_to_rule,
    ensemble_proposer,
    extract_edit_candidates,
    external_proposer,
    propose,
    rank_rules,
    request_to_obj,
)
from cascade_forge.rule_engine import (
    Delete,
    FeatureReq,
    Insert,
    IsNothing,
    MappingFn,
    Not,
    PhoneSet,
    Predicate,
    Rule,
    Substitute,
    WordEnd,
    WordStart,
    MAX_NOT_DEPTH,
    RuleError,
    RuleParseError,
    WordListText,
    apply_rule,
    effect_key,
    parse_rule,
    rule_to_obj,
    serialize_rule,
)
from cascade_forge.search import SearchConfig, beam_search_cascade, hypothesis_to_obj, induce_single_law
from cascade_forge.synthgen import GenerationError, SmpSpec, gen_smp_examples, gen_smp_law, task_rng

from conftest import TINY_INVENTORY
from oracles import reference_apply, reference_edit_candidates


def pairs(inv, *items):
    return tuple((tokenize(s, inv), tokenize(t, inv)) for s, t in items)


def sub_rule(env, pos, old, new):
    predicates = []
    for i, phone in enumerate(env):
        if i:
            predicates.append(IsNothing())
        predicates.append(PhoneSet({phone}))
    return Rule(predicates, [2 * pos], [Substitute({old: (new,)})])


# --- extract_edit_candidates ------------------------------------------------------


def test_extract_identity_examples_yield_nothing(tiny_inv):
    assert extract_edit_candidates(*pairs(tiny_inv, ("aj", "aj"))[0]) == []


def test_extract_substitution_with_contexts(tiny_inv):
    candidates = extract_edit_candidates(*pairs(tiny_inv, ("aj", "ej"))[0])
    kinds = {(c.left, c.left_edge, c.right, c.right_edge) for c in candidates}
    # the operation at word start with the following j as context
    assert ((), WordStart(), ("j",), None) in kinds
    assert ((), None, ("j",), None) in kinds
    for c in candidates:
        assert c.ops[0].kind == "sub" and c.ops[0].old == "a" and c.ops[0].new == ("e",)


def test_extract_word_final_insertion(tiny_inv):
    candidates = extract_edit_candidates(*pairs(tiny_inv, ("i", "ik"))[0])
    wanted = [
        c for c in candidates
        if c.left == ("i",) and c.right == () and c.right_edge == WordEnd()
    ]
    assert wanted
    op = wanted[0].ops[0]
    assert op.kind == "ins" and op.new == ("k",)


def test_extract_interior_op_offers_not_at_edge_variants(tiny_inv):
    candidates = extract_edit_candidates(*pairs(tiny_inv, ("tat", "tet"))[0])
    edges = {(c.left_edge, c.right_edge) for c in candidates}
    assert (Not(WordStart()), Not(WordEnd())) in edges


def test_extract_groups_adjacent_ops(tiny_inv):
    # two changes, one pair: a group candidate covering both must exist
    candidates = extract_edit_candidates(*pairs(tiny_inv, ("ab", "ek"))[0])
    grouped = [c for c in candidates if len(c.ops) == 2]
    assert grouped
    assert {op.kind for c in grouped for op in c.ops} == {"sub"}


def test_extract_deduplicates(tiny_inv):
    candidates = extract_edit_candidates(*pairs(tiny_inv, ("aj", "ej"))[0])
    assert len(candidates) == len(set(candidates))


def test_extract_matches_a_window_scan_reference():
    # Targets are sources edited at random, so scripts mix insertions
    # (also runs at one gap), substitutions and deletions.
    rng = random.Random(83)
    kinds = Counter()
    for _ in range(600):
        src = [rng.choice("abcd") for _ in range(rng.randint(0, 7))]
        tgt = list(src)
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("ins", "sub", "del")) if tgt else "ins"
            at = rng.randrange(len(tgt) + (kind == "ins"))
            if kind == "ins":
                tgt[at:at] = rng.choices("abcde", k=rng.randint(1, 2))
            else:
                tgt[at : at + 1] = [rng.choice("abcde")] if kind == "sub" else []
        script = edit_script(tuple(src), tuple(tgt))
        kinds.update("run" if len(op.new) > 1 else op.kind for op in script)
        got = extract_edit_candidates(TokenizedWord.from_phones(src), TokenizedWord.from_phones(tgt))
        assert got == reference_edit_candidates(tuple(src), script, proposers.MAX_SPAN, proposers.MAX_CONTEXT)
    assert min(kinds[kind] for kind in ("ins", "sub", "del", "run")) > 100, kinds


def test_candidate_to_rule_insert_between_contexts(tiny_inv):
    from cascade_forge.metrics import EditOp
    candidate = EditCandidate(
        ops=(EditOp("ins", 0, None, ("k",)),),
        covered=(),
        left=("i",),
        right=(),
        left_edge=None,
        right_edge=WordEnd(),
    )
    rule = candidate_to_rule(candidate)
    assert rule.predicates == (PhoneSet({"i"}), IsNothing(), WordEnd())
    assert rule.change_pos == (1,)
    assert rule.mappings == (Insert(("k",)),)


# --- builtin proposer ---------------------------------------------------------------


def test_builtin_candidate_pool_contains_contextual_rule(tiny_inv):
    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej"), ("ka", "ka")), 20)
    rules = builtin_enumerative_propose(request)
    wanted = sub_rule("aj", 0, "a", "e")
    assert any(rule == wanted for rule in rules)


def test_builtin_identity_examples_give_empty_list(tiny_inv):
    request = ProposalRequest(pairs(tiny_inv, ("aj", "aj"), ("tu", "tu")), 20)
    assert builtin_enumerative_propose(request) == []


def test_builtin_is_deterministic(tiny_inv):
    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej"), ("ita", "ite"), ("uk", "uk")), 20)
    first = builtin_enumerative_propose(request)
    second = builtin_enumerative_propose(request)
    assert [serialize_rule(r) for r in first] == [serialize_rule(r) for r in second]


def test_builtin_rules_satisfy_invariants(default_inv):
    for i in range(10):
        rng = task_rng(19, "inv", i)
        law = gen_smp_law(default_inv, SmpSpec(), rng)
        case = gen_smp_examples(default_inv, law, 30, rng)
        request = ProposalRequest(
            [(p.source, p.target) for p in case.dataset.pairs], 20
        )
        for rule in builtin_enumerative_propose(request):
            rule.validate(default_inv)


def test_builtin_recovers_single_phone_environment(default_inv):
    rng = task_rng(19, "rec1", 0)
    spec = SmpSpec(env_weights=(1.0, 0.0, 0.0))
    law = gen_smp_law(default_inv, spec, rng)
    case = gen_smp_examples(default_inv, law, 50, rng)
    request = ProposalRequest([(p.source, p.target) for p in case.dataset.pairs], 20)
    rules = builtin_enumerative_propose(request)
    sources = [p.source for p in case.dataset.pairs]
    targets = [p.target for p in case.dataset.pairs]
    best = rules[0]
    preds = [apply_rule(best, s, default_inv) for s in sources]
    assert reward(sources, preds, targets) == 1.0


def test_builtin_recovers_env3_with_two_context_phones(tiny_inv):
    # environment of three phones, the middle one changes: needs radius-1 context
    rule = sub_rule("taj", 1, "a", "u")
    rng = task_rng(19, "rec3", 0)
    case = gen_smp_examples(tiny_inv, rule, 50, rng)
    request = ProposalRequest([(p.source, p.target) for p in case.dataset.pairs], 20)
    rules = builtin_enumerative_propose(request)
    sources = [p.source for p in case.dataset.pairs]
    targets = [p.target for p in case.dataset.pairs]
    preds = [apply_rule(rules[0], s, tiny_inv) for s in sources]
    assert reward(sources, preds, targets) == 1.0
    # the pool contains a rule equivalent to the truth before truncation
    assert any(
        reward(sources, [apply_rule(r, s, tiny_inv) for s in sources], targets) == 1.0
        for r in rules
    )


def test_builtin_respects_num_samples(tiny_inv):
    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 3)
    assert len(propose(builtin_proposer(), request, tiny_inv).rules) == 3


def test_builtin_pools_singly_supported_candidates_when_none_has_two(default_inv):
    # The two pairs share no edit, so every candidate has one supporting pair.
    request = ProposalRequest(pairs(default_inv, ("pa", "pe"), ("ko", "ku")), 20)
    rules = builtin_enumerative_propose(request)
    assert rules
    assert sub_rule("a", 0, "a", "e") in rules and sub_rule("o", 0, "o", "u") in rules


def test_beam_search_recovers_two_laws_seen_once_each(default_inv):
    items = [("pa", "pe"), ("ko", "ku"), ("ti", "ti")]
    dataset = Dataset([
        ExamplePair(tokenize(s, default_inv), tokenize(t, default_inv), f"p{i}") for i, (s, t) in enumerate(items)
    ])
    config = SearchConfig(beam_width=5, samples_per_step=5, max_steps=3)
    beams = beam_search_cascade(builtin_proposer(), dataset, config, default_inv)
    assert beams[0].reward == 1.0


@pytest.mark.parametrize("num_samples", [2.5, 1.0, True, "3"])
def test_request_num_samples_must_be_an_integer(tiny_inv, num_samples):
    with pytest.raises(ValueError, match="num_samples must be a positive integer"):
        ProposalRequest(pairs(tiny_inv, ("aj", "ej")), num_samples)


def _rules_digest(rules):
    return hashlib.sha256("\n".join(serialize_rule(r) for r in rules).encode("utf-8")).hexdigest()


def test_builtin_output_on_smp_laws_is_pinned(default_inv):
    rules = []
    bounded = 0  # laws with a word-edge condition
    for i in range(30):
        rng = task_rng(0, "golden-builtin", i)
        law = gen_smp_law(default_inv, SmpSpec(), rng)
        bounded += any(isinstance(p, (WordStart, WordEnd, Not)) for p in law.predicates)
        case = gen_smp_examples(default_inv, law, 20, rng)
        request = ProposalRequest([(p.source, p.target) for p in case.dataset.pairs], 20)
        rules += propose(builtin_proposer(), request, default_inv).rules
    assert bounded == 9 and len(rules) == 332
    assert _rules_digest(rules) == "adbd4c3fcb0e116469526a28de655dbd340b2a458fa596f6ec3f5abd0092379c"


def test_builtin_pool_cap_keeps_discovery_order_among_ties(default_inv):
    # Two parallel changes over many words give more supported candidates
    # than MAX_POOL holds, so the cut falls inside a run of equal support.
    rng = task_rng(0, "bigpool")
    examples = []
    for _ in range(150):
        source = [rng.choice("atkisun") for _ in range(rng.randint(5, 10))]
        target = [{"a": "e", "t": "d"}.get(phone, phone) for phone in source]
        examples.append((TokenizedWord.from_phones(source), TokenizedWord.from_phones(target)))
    support = Counter(c for s, t in examples for c in extract_edit_candidates(s, t))
    assert sum(n >= 2 for n in support.values()) == 1757
    rules = builtin_enumerative_propose(ProposalRequest(examples, 1000))
    assert len(rules) == MAX_POOL
    assert _rules_digest(rules) == "4aa246e24e568c06f156a1cbef0edfe758efe852bffeed96b81738240c71a11d"


def test_rank_rules_equals_applying_every_rule_to_every_source(default_inv):
    # rank_rules applies a rule only to the sources holding its anchor; the
    # reference applies every rule to every source through the oracle.
    unanchored = [Rule([Not(PhoneSet({"a"}))], [0], [Delete()]), Rule([FeatureReq({0: 1})], [0], [Delete()])]
    checked = 0
    for i in range(12):
        rng = task_rng(0, "rank-anchor", i)
        law = gen_smp_law(default_inv, SmpSpec(), rng)
        try:
            case = gen_smp_examples(default_inv, law, 20, rng)
        except GenerationError:
            continue
        sources, targets = case.dataset.sources, case.dataset.targets
        rules = [candidate_to_rule(c) for s, t in zip(sources, targets) for c in extract_edit_candidates(s, t)]
        rules += [law, *unanchored]
        scorer = Scorer(sources, targets)
        reports = {}
        for rule in rules:
            if rule not in reports:
                reports[rule] = scorer.report([reference_apply(rule, s, default_inv) for s in sources])
        order = sorted(reports, key=lambda r: (-reports[r].reward, len(r.predicates), serialize_rule(r)))
        assert rank_rules(rules, scorer, default_inv) == [(rule, reports[rule]) for rule in order]
        checked += 1
    assert checked >= 10


def test_request_scorer_is_built_once_and_is_not_part_of_the_request(tiny_inv):
    examples = [(tokenize("aj", tiny_inv), tokenize("ej", tiny_inv))]
    request = ProposalRequest(examples, 3)
    text, obj = repr(request), request_to_obj(request)
    assert request.scorer is request.scorer
    assert request.scorer.report([examples[0][1]]).passed
    assert request == ProposalRequest(examples, 3) and hash(request) == hash(ProposalRequest(examples, 3))
    assert (repr(request), request_to_obj(request)) == (text, obj)


def test_edit_candidates_hash_and_compare_as_plain_tuples(tiny_inv):
    candidates = extract_edit_candidates(tokenize("kaj", tiny_inv), tokenize("kej", tiny_inv))
    assert candidates
    for candidate in candidates:
        assert candidate == tuple(candidate) and hash(candidate) == hash(tuple(candidate))
        assert all(op == tuple(op) for op in candidate.ops)


def counting_apply_rule(monkeypatch):
    calls = []

    def counting(rule, word, inv=None, sites=None):
        calls.append(rule)
        return apply_rule(rule, word, inv, sites)

    monkeypatch.setattr(proposers, "apply_rule", counting)
    return calls


def test_rank_rules_memo_serves_a_feature_rule_only_its_own_inventory(tiny_inv, monkeypatch):
    scorer = Scorer([tokenize("aj", tiny_inv)], [tokenize("j", tiny_inv)])
    feature_rule = Rule([FeatureReq({0: 1})], [0], [Delete()])  # deletes syllabic phones
    assert rank_rules([feature_rule], scorer, tiny_inv)[0][1].passed
    calls = counting_apply_rule(monkeypatch)
    with pytest.raises(RuleError):
        rank_rules([feature_rule], scorer)  # not served without an inventory: its sites raise
    assert calls == []
    assert rank_rules([feature_rule], scorer, load_inventory(TINY_INVENTORY))[0][1].passed
    assert calls == [feature_rule]  # another inventory object gets the rule freshly applied


def _ranked_by_the_oracle(rules, scorer, inv):
    reports = {}
    for rule in rules:
        if rule not in reports:
            reports[rule] = scorer.report([reference_apply(rule, s, inv) for s in scorer.sources])
    order = sorted(reports, key=lambda r: (-reports[r].reward, len(r.predicates), serialize_rule(r)))
    return [(rule, reports[rule]) for rule in order]


def test_rules_with_one_effect_share_a_report_and_overlapping_rules_are_applied(tiny_inv, monkeypatch):
    sources = [tokenize(w, tiny_inv) for w in ("aaa", "kat", "tat", "ki", "")]
    targets = [tokenize(w, tiny_inv) for w in ("e", "ket", "tet", "ki", "")]
    scorer = Scorer(sources, targets)
    a, t, sub, gap = PhoneSet({"a"}), PhoneSet({"t"}), Substitute({"a": ("e",)}), IsNothing()
    # Every "a" becomes "e": context free, with a right or a left context,
    # and so with the change at another position.
    same = [
        Rule([a], [0], [sub]),
        Rule([PhoneSet({"a", "e"})], [0], [sub]),
        Rule([PhoneSet({"k", "t", "a", "#"}), gap, a], [2], [sub]),
        Rule([Not(PhoneSet({"i", "u"})), gap, a], [2], [sub]),
    ]
    # "a" before "t" becomes "e" and the "t" goes: one key in either mapping order.
    orders = [Rule([a, gap, t], [0, 2], [sub, Delete()]), Rule([a, gap, t], [2, 0], [Delete(), sub])]
    # On "aaa" the site at token 2 deletes token 4 and the site at token 4
    # substitutes it: the shifted masks overlap, and leftmost-wins decides.
    overlapping = [
        Rule([a, gap, a], [0, 2], [sub, Delete()]),
        Rule([a, gap, a], [2, 0], [Delete(), sub]),
        Rule([a, gap, a], [0, 2], [Delete(), sub]),
    ]
    text = WordListText(sources)
    keys = {rule: effect_key(rule, text.starts(rule, tiny_inv)) for rule in same + orders + overlapping}
    assert len({keys[rule] for rule in same}) == 1
    assert keys[orders[0]] == keys[orders[1]] != keys[same[0]]
    assert all(keys[rule] is None for rule in overlapping)
    # A rule with no site edits nothing, whatever its mappings.
    assert effect_key(Rule([PhoneSet({"u"})], [0], [Delete()]), 0) == frozenset()

    calls = counting_apply_rule(monkeypatch)
    rules = same + orders + overlapping
    ranked = rank_rules(rules, scorer, tiny_inv)
    assert ranked == _ranked_by_the_oracle(rules, scorer, tiny_inv)
    reports = dict(ranked)
    assert len({id(reports[rule]) for rule in same}) == 1
    assert reports[orders[0]] is reports[orders[1]]
    # One application per effect and per word with a site: "a" stands in
    # three words, and each overlapping rule has sites only in "aaa".
    assert Counter(calls) == Counter({same[0]: 3, orders[0]: 2, **{rule: 1 for rule in overlapping}})
    assert reports[overlapping[0]].per_pair != reports[overlapping[2]].per_pair


def test_rank_rules_serves_an_inventory_free_report_to_any_inventory(tiny_inv, monkeypatch):
    scorer = Scorer([tokenize("aj", tiny_inv), tokenize("tu", tiny_inv)], [tokenize("ej", tiny_inv)] * 2)
    rule = Rule([PhoneSet({"a"})], [0], [Substitute({"a": ("e",)})])
    first = rank_rules([rule], scorer)
    calls = counting_apply_rule(monkeypatch)
    assert rank_rules([rule], scorer, tiny_inv) == first
    assert calls == []


def test_rank_rules_keeps_only_inventory_free_reports(tiny_inv):
    scorer = Scorer([tokenize("aj", tiny_inv), tokenize("tu", tiny_inv)], [tokenize("ej", tiny_inv)] * 2)
    rule = Rule([PhoneSet({"a"})], [0], [Substitute({"a": ("e",)})])
    rank_rules([rule], scorer, tiny_inv)
    assert scorer.ranked == {}
    ((_, report),) = rank_rules([rule], scorer)
    assert scorer.ranked == {rule: report}


def test_propose_keeps_the_first_num_samples_rules_of_the_builtin_pool(default_inv):
    # The builtin returns its whole ranked pool, and the gate alone cuts it.
    example_sets = []
    for i in itertools.count():
        rng = task_rng(0, "gate", i)
        law = gen_smp_law(default_inv, SmpSpec(), rng)
        try:
            case = gen_smp_examples(default_inv, law, 20, rng)
        except GenerationError:
            continue
        example_sets.append([(p.source, p.target) for p in case.dataset.pairs])
        if len(example_sets) == 20:
            break
    for num_samples in (1, 2, 5, 20, 1000):
        longer = 0
        for examples in example_sets:
            request = ProposalRequest(examples, num_samples)
            pool = builtin_enumerative_propose(request)
            assert propose(builtin_proposer(), request, default_inv).rules == pool[:num_samples]
            longer += len(pool) > num_samples
        assert longer or num_samples == 1000


# --- propose dispatch ---------------------------------------------------------------


def test_ensemble_pools_and_counts(tiny_inv):
    r1 = [sub_rule("a", 0, "a", "e"), sub_rule("i", 0, "i", "u"), sub_rule("t", 0, "t", "k")]
    r2 = [sub_rule("u", 0, "u", "i"), sub_rule("k", 0, "k", "t")]
    handle = ensemble_proposer([
        callable_proposer(lambda req: r1, "one"),
        callable_proposer(lambda req: r2, "two"),
    ])
    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 20)
    result = propose(handle, request, tiny_inv)
    assert len(result.rules) == 5
    pooled = {serialize_rule(r) for r in result.rules}
    for member_rules in (r1, r2):
        assert {serialize_rule(r) for r in member_rules} <= pooled


def test_ensemble_deduplicates_identical_programs(tiny_inv):
    shared = sub_rule("a", 0, "a", "e")
    handle = ensemble_proposer([
        callable_proposer(lambda req: [shared], "one"),
        callable_proposer(lambda req: [sub_rule("a", 0, "a", "e")], "two"),
    ])
    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 20)
    result = propose(handle, request, tiny_inv)
    assert len(result.rules) == 1


def test_ensemble_deduplicates_rules_that_differ_only_in_name(tiny_inv):
    rule = sub_rule("a", 0, "a", "e")
    handle = ensemble_proposer([
        callable_proposer(lambda req: [replace(rule, name="x")], "one"),
        callable_proposer(lambda req: [replace(rule, name="y")], "two"),
    ])
    result = propose(handle, ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 20), tiny_inv)
    assert [r.name for r in result.rules] == ["x"]


def test_ensemble_cuts_each_member_to_num_samples_but_not_the_pool(tiny_inv):
    r1 = [sub_rule("a", 0, "a", "e"), sub_rule("i", 0, "i", "u"), sub_rule("t", 0, "t", "k")]
    r2 = [sub_rule("u", 0, "u", "i"), sub_rule("k", 0, "k", "t"), sub_rule("j", 0, "j", "a")]
    handle = ensemble_proposer([
        callable_proposer(lambda req: r1, "one"),
        callable_proposer(lambda req: r2, "two"),
    ])
    result = propose(handle, ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 2), tiny_inv)
    assert result.rules == r1[:2] + r2[:2]


def test_ensemble_requires_two_members():
    with pytest.raises(ValueError):
        ensemble_proposer([builtin_proposer()])


def test_callable_invalid_candidates_dropped_with_diagnostic(tiny_inv):
    bad = Rule([IsNothing()], [0], [Insert(("zz",))])  # phone not in inventory
    good = sub_rule("a", 0, "a", "e")
    handle = callable_proposer(lambda req: [bad, good], "stub")
    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 20)
    result = propose(handle, request, tiny_inv)
    assert result.rules == [good]
    assert len(result.diagnostics) == 1


def test_callable_rules_serialization_would_change_are_dropped_with_diagnostic(tiny_inv):
    # An ensemble dedups by serialization, which keeps one value per
    # feature index and one target per substitute key.
    twice_required = Rule([FeatureReq(((1, 1), (1, 0)))], [0], [Delete()])
    twice_mapped = Rule([PhoneSet({"a"})], [0], [Substitute((("a", ("e",)), ("a", ("u",))))])
    good = sub_rule("a", 0, "a", "e")
    handle = callable_proposer(lambda req: [twice_required, twice_mapped, good], "stub")
    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 20)
    result = propose(handle, request, tiny_inv)
    assert result.rules == [good]
    assert len(result.diagnostics) == 2
    assert "dropped invalid candidate 0" in result.diagnostics[0] and "index twice" in result.diagnostics[0]
    assert "dropped invalid candidate 1" in result.diagnostics[1] and "phone twice" in result.diagnostics[1]


# Substitutes a into the separator token: no inventory can make this valid.
RESERVED_TARGET_RULE = Rule([PhoneSet({"a"})], [0], [Substitute({"a": ("@",)})])


@pytest.mark.parametrize("with_inventory", [False, True])
def test_callable_reserved_token_dropped_with_diagnostic(tiny_inv, with_inventory):
    good = sub_rule("a", 0, "a", "e")
    handle = callable_proposer(lambda req: [RESERVED_TARGET_RULE, good], "stub")
    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 20)
    result = propose(handle, request, tiny_inv if with_inventory else None)
    assert result.rules == [good]
    assert len(result.diagnostics) == 1 and "'@' is not a phone" in result.diagnostics[0]


def test_builtin_rules_the_inventory_cannot_hold_are_dropped_with_diagnostic(default_inv, tiny_inv):
    # "p" is in the examples' inventory but not in the one given to propose.
    request = ProposalRequest(pairs(default_inv, ("pa", "pe"), ("apa", "ape"), ("ka", "ka")), 20)
    offered = builtin_enumerative_propose(request)
    result = propose(builtin_proposer(), request, tiny_inv)
    dropped = [i for i, rule in enumerate(offered) if rule not in result.rules]
    assert dropped and result.rules
    assert result.rules == [rule for i, rule in enumerate(offered) if i not in dropped]
    assert len(result.diagnostics) == len(dropped)
    for i, diagnostic in zip(dropped, result.diagnostics):
        assert diagnostic.startswith(f"dropped invalid candidate {i} from builtin: ")
        assert diagnostic.endswith("phone 'p' not in inventory")


def test_invalid_builtin_rules_do_not_take_the_places_of_valid_ones(default_inv, tiny_inv):
    # "p" is in the examples' inventory but not in the one given to propose.
    request = ProposalRequest(pairs(default_inv, ("pa", "pe"), ("apa", "ape"), ("ka", "ka")), 2)
    result = propose(builtin_proposer(), request, tiny_inv)
    assert len(result.rules) == 2 and len(result.diagnostics) == 2
    for rule in result.rules:
        rule.validate(tiny_inv)


BAD_RULE = Rule([IsNothing()], [0], [Insert(("zz",))])  # phone not in inventory


@pytest.mark.parametrize(
    "order, diagnosed", [(("good", "good", "bad"), 0), (("bad", "good", "good"), 1)]
)
def test_the_gate_stops_once_num_samples_valid_rules_are_kept(tiny_inv, order, diagnosed):
    rules = {"good": sub_rule("a", 0, "a", "e"), "bad": BAD_RULE}
    handle = callable_proposer(lambda req: [rules[kind] for kind in order], "stub")
    result = propose(handle, ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 2), tiny_inv)
    assert result.rules == [rules["good"]] * 2
    assert len(result.diagnostics) == diagnosed


def test_the_gate_pulls_a_callables_rules_no_further_than_the_cut(tiny_inv):
    good = sub_rule("a", 0, "a", "e")
    pulled = []

    def counting(request):
        for k in range(5):
            pulled.append(k)
            yield good

    def raising_after_the_cut(request):
        yield BAD_RULE
        yield good
        yield good
        raise RuntimeError("sampled past the cut")

    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 2)
    assert propose(callable_proposer(counting, "stub"), request, tiny_inv).rules == [good, good]
    assert pulled == [0, 1]
    result = propose(callable_proposer(raising_after_the_cut, "stub"), request, tiny_inv)
    assert result.rules == [good, good]
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("dropped invalid candidate 0 from stub: ")


@pytest.mark.parametrize(
    "candidate",
    [
        Rule([PhoneSet({"a"}), IsNothing(), "j"], [0], [Delete()]),
        Rule([PhoneSet({"a"}), IsNothing(), Predicate()], [0], [Delete()]),
        Rule([PhoneSet({"a"}), IsNothing(), Not(Predicate())], [0], [Delete()]),
        Rule([PhoneSet({"a"})], [0], ["e"]),
        Rule([PhoneSet({"a"})], [0], [MappingFn()]),
        rule_to_obj(sub_rule("a", 0, "a", "e")),
    ],
    ids=["str-predicate", "bare-predicate", "not-bare-predicate", "str-mapping", "bare-mapping", "dict"],
)
def test_the_gate_drops_what_the_rule_engine_cannot_run(tiny_inv, candidate):
    handle = callable_proposer(lambda req: [candidate], "stub")
    result = propose(handle, ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == []
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("dropped invalid candidate 0 from stub: ")
    diagnostics = []
    assert induce_single_law(handle, search_dataset(tiny_inv), inv=tiny_inv, diagnostics=diagnostics) == []
    assert diagnostics == result.diagnostics


@pytest.mark.parametrize(
    "returned",
    [
        [Rule([PhoneSet({"a"})], ["0"], [Delete()])],
        [Rule([PhoneSet({"a"})], [0.0], [Delete()])],
        [Rule([PhoneSet({"a"})], [False], [Delete()])],
        [Rule([PhoneSet({"a", 1})], [0], [Delete()])],
        [Rule([PhoneSet({"a"})], [0], [Delete()], name=5)],
        None,
        [Rule([FeatureReq({True: 1})], [0], [Delete()])],
        [Rule([PhoneSet({"a"})], [0], [Substitute((("a", "e"),))])],
    ],
    ids=["str-position", "float-position", "bool-position", "int-phone", "int-name", "none-returned",
         "bool-feature-index", "str-substitute-target"],
)
def test_the_gate_turns_malformed_rule_objects_into_one_diagnostic(tiny_inv, returned):
    handle = callable_proposer(lambda req: returned, "stub")
    result = propose(handle, ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == []
    assert len(result.diagnostics) == 1
    diagnostics = []
    assert induce_single_law(handle, search_dataset(tiny_inv), inv=tiny_inv, diagnostics=diagnostics) == []
    assert diagnostics == result.diagnostics


@pytest.mark.parametrize(
    "build",
    [
        lambda: Rule([FeatureReq({"0": 1})], [0], [Delete()]),
        lambda: Rule([FeatureReq({0.0: 1})], [0], [Delete()]),
        lambda: Rule([FeatureReq({"0": 1, 1: 1})], [0], [Delete()]),
        lambda: Rule([PhoneSet({"a"})], [0], [Substitute((("a", ("e",)), (1, ("e",))))]),
        # Hashed lazily, so the unhashable slot fails the gate, not the constructor.
        lambda: Rule([PhoneSet({"a"})], [[0]], [Delete()]),
    ],
    ids=["str-feature-index", "float-feature-index", "unsortable-feature-indices", "unsortable-substitute-keys",
         "unhashable-change-position"],
)
def test_a_callable_can_build_odd_rule_parts_and_the_gate_drops_them(tiny_inv, build):
    handle = callable_proposer(lambda req: [build()], "stub")
    result = propose(handle, ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == []
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("dropped invalid candidate 0 from stub: ")


def test_propose_never_returns_invalid_rules(default_inv):
    wild = Rule([PhoneSet({"a"})], [0], [Insert(("a",))])  # insert not on is-nothing
    handle = callable_proposer(lambda req: [wild], "wild")
    request = ProposalRequest(pairs(default_inv, ("aj", "ej")), 5)
    result = propose(handle, request, default_inv)
    assert result.rules == []
    assert result.diagnostics


# --- external protocol ----------------------------------------------------------------


def write_stub(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return [sys.executable, str(path)]


VALID_RULE_OBJ = {
    "predicates": [{"kind": "phone_set", "phones": ["a"]}],
    "change_pos": [0],
    "mappings": [{"kind": "substitute", "map": {"a": ["e"]}}],
}


def test_external_round_trip(tmp_path, tiny_inv):
    command = write_stub(tmp_path, "echo_rule.py", f"""
        import json, sys
        line = sys.stdin.readline()
        request = json.loads(line)
        assert request["v"] == 1 and request["num_samples"] == 4
        print(json.dumps({{"v": 1, "programs": [{json.dumps(VALID_RULE_OBJ)}]}}))
    """)
    handle = external_proposer(command)
    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4)
    result = propose(handle, request, tiny_inv)
    assert len(result.rules) == 1
    assert result.rules[0] == sub_rule("a", 0, "a", "e")


def test_external_empty_programs(tmp_path, tiny_inv):
    command = write_stub(tmp_path, "empty.py", """
        import sys, json
        sys.stdin.readline()
        print(json.dumps({"v": 1, "programs": []}))
    """)
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == [] and result.diagnostics == []


def test_external_partial_validity(tmp_path, tiny_inv):
    command = write_stub(tmp_path, "partial.py", f"""
        import sys, json
        sys.stdin.readline()
        bad = {{"predicates": [{{"kind": "is_nothing"}}], "change_pos": [0], "mappings": [{{"kind": "delete"}}]}}
        print(json.dumps({{"v": 1, "programs": [{json.dumps(VALID_RULE_OBJ)}, bad]}}))
    """)
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert len(result.rules) == 1
    assert len(result.diagnostics) == 1


@pytest.mark.parametrize("with_inventory", [False, True])
def test_external_reserved_token_dropped_with_diagnostic(tmp_path, tiny_inv, with_inventory):
    bad = rule_to_obj(RESERVED_TARGET_RULE)
    command = write_stub(tmp_path, "reserved.py", f"""
        import sys, json
        sys.stdin.readline()
        print(json.dumps({{"v": 1, "programs": [{json.dumps(bad)}, {json.dumps(VALID_RULE_OBJ)}]}}))
    """)
    inv = tiny_inv if with_inventory else None
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), inv)
    assert result.rules == [sub_rule("a", 0, "a", "e")]
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("dropped invalid candidate 0 from ")
    assert "'@' is not a phone" in result.diagnostics[0]


def test_external_programs_are_decoded_and_validated_once_up_to_the_cut(tmp_path, tiny_inv, monkeypatch):
    other = rule_to_obj(sub_rule("j", 0, "j", "i"))
    command = write_stub(tmp_path, "three.py", f"""
        import sys, json
        sys.stdin.readline()
        print(json.dumps({{"v": 1, "programs": [{json.dumps(VALID_RULE_OBJ)}, {json.dumps(other)}, {{"junk": 1}}]}}))
    """)
    validated = []
    validate = Rule.validate
    monkeypatch.setattr(Rule, "validate", lambda rule, inv=None: validated.append(rule) or validate(rule, inv))
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 2), tiny_inv)
    assert result.rules == [sub_rule("a", 0, "a", "e"), sub_rule("j", 0, "j", "i")]
    assert validated == result.rules
    assert result.diagnostics == []  # the junk after the cut is never read


def test_external_malformed_line(tmp_path, tiny_inv):
    command = write_stub(tmp_path, "garbage.py", """
        import sys
        sys.stdin.readline()
        print("this is not json")
    """)
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == []
    assert any("malformed" in d for d in result.diagnostics)


def test_external_timeout(tmp_path, tiny_inv, monkeypatch):
    command = write_stub(tmp_path, "sleepy.py", """
        import sys, time
        sys.stdin.readline()
        time.sleep(10)
    """)
    monkeypatch.setenv("CASCADE_FORGE_PROPOSER_TIMEOUT_MS", "400")
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == []
    assert any("timed out" in d for d in result.diagnostics)


def test_external_spawn_failure(tiny_inv):
    handle = external_proposer(["/nonexistent/prog"])
    result = propose(handle, ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == []
    assert any("spawn failed" in d for d in result.diagnostics)


def test_external_proposer_refuses_a_string_command():
    # A string would be read as a sequence of one-character arguments.
    with pytest.raises(TypeError, match="argv sequence"):
        external_proposer("python3 stub.py")
    assert external_proposer(("python3", "stub.py")).command == ("python3", "stub.py")
    assert external_proposer(["python3", "stub.py"], name="s").command == ("python3", "stub.py")


def test_timeout_env_var(tmp_path, tiny_inv, monkeypatch):
    command = write_stub(tmp_path, "sleepy2.py", """
        import sys, time
        sys.stdin.readline()
        time.sleep(10)
    """)
    monkeypatch.setenv("CASCADE_FORGE_PROPOSER_TIMEOUT_MS", "300")
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert any("timed out" in d for d in result.diagnostics)


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-5"])
def test_timeout_env_var_that_is_not_a_positive_integer_raises(tiny_inv, monkeypatch, value):
    monkeypatch.setenv("CASCADE_FORGE_PROPOSER_TIMEOUT_MS", value)
    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4)
    with pytest.raises(ValueError) as raised:
        propose(external_proposer(["/nonexistent/prog"]), request, tiny_inv)
    assert "CASCADE_FORGE_PROPOSER_TIMEOUT_MS" in str(raised.value)
    assert repr(value) in str(raised.value)


def test_external_boolean_feature_requirement_dropped(tmp_path, tiny_inv):
    bad = {
        "predicates": [{"kind": "feature_req", "reqs": {"0": True}}],
        "change_pos": [0],
        "mappings": [{"kind": "delete"}],
    }
    reply = json.dumps({"v": 1, "programs": [bad, VALID_RULE_OBJ]})
    command = write_stub(tmp_path, "bool_req.py", f"""
        import sys
        sys.stdin.readline()
        print({reply!r})
    """)
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == [sub_rule("a", 0, "a", "e")]
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("dropped invalid candidate 0 from ")
    assert result.diagnostics[0].endswith(": /programs/0: feature requirement value True at position 0")


def test_external_feature_index_that_is_not_decimal_digits_dropped(tmp_path, tiny_inv):
    bad = {
        "predicates": [{"kind": "feature_req", "reqs": {"+0": 1}}],
        "change_pos": [0],
        "mappings": [{"kind": "delete"}],
    }
    reply = json.dumps({"v": 1, "programs": [bad, VALID_RULE_OBJ]})
    command = write_stub(tmp_path, "plus_key.py", f"""
        import sys
        sys.stdin.readline()
        print({reply!r})
    """)
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == [sub_rule("a", 0, "a", "e")]
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("dropped invalid candidate 0 from ")
    assert "/programs/0/predicates/0/reqs: feature index must be decimal digits" in result.diagnostics[0]


@pytest.mark.parametrize("with_inventory", [True, False])
def test_external_feature_index_past_any_inventory_dropped(tmp_path, tiny_inv, with_inventory):
    bad = {
        "predicates": [{"kind": "feature_req", "reqs": {"100000000000000000000": 1}}],
        "change_pos": [0],
        "mappings": [{"kind": "delete"}],
    }
    reply = json.dumps({"v": 1, "programs": [bad, VALID_RULE_OBJ]})
    command = write_stub(tmp_path, "huge_key.py", f"""
        import sys
        sys.stdin.readline()
        print({reply!r})
    """)
    inv = tiny_inv if with_inventory else None
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), inv)
    assert result.rules == [sub_rule("a", 0, "a", "e")]
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("dropped invalid candidate 0 from ")
    assert "feature index 100000000000000000000 out of range" in result.diagnostics[0]


def test_external_feature_index_with_a_leading_zero_dropped(tmp_path, tiny_inv):
    # "0" and "00" would name one feature with conflicting values.
    bad = {
        "predicates": [{"kind": "feature_req", "reqs": {"0": 1, "00": 0}}],
        "change_pos": [0],
        "mappings": [{"kind": "delete"}],
    }
    reply = json.dumps({"v": 1, "programs": [bad, VALID_RULE_OBJ]})
    command = write_stub(tmp_path, "zero_key.py", f"""
        import sys
        sys.stdin.readline()
        print({reply!r})
    """)
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == [sub_rule("a", 0, "a", "e")]
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("dropped invalid candidate 0 from ")
    assert "/programs/0/predicates/0/reqs: feature index must be decimal digits" in result.diagnostics[0]
    assert "'00'" in result.diagnostics[0]


def _deep_not_program(depth):
    """VALID_RULE_OBJ with its phone set wrapped in ``depth`` nested ``not`` predicates."""
    pred = VALID_RULE_OBJ["predicates"][0]
    for _ in range(depth):
        pred = {"kind": "not", "inner": pred}
    return {**VALID_RULE_OBJ, "predicates": [pred]}


def test_external_program_nested_past_the_not_bound_dropped(tmp_path, tiny_inv):
    # 600 nested `not`s decode, but hashing the rule would exhaust the stack.
    reply = json.dumps({"v": 1, "programs": [_deep_not_program(600), _deep_not_program(MAX_NOT_DEPTH)]})
    command = write_stub(tmp_path, "deep_not.py", f"""
        import sys
        sys.stdin.readline()
        print({reply!r})
    """)
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert len(result.rules) == 1 and hash(result.rules[0]) is not None
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("dropped invalid candidate 0 from ")
    assert result.diagnostics[0].endswith(f": /programs/0: 'not' nested over {MAX_NOT_DEPTH} deep at position 0")


def test_external_reply_nested_past_the_json_decoder_is_malformed(tmp_path, tiny_inv):
    command = write_stub(tmp_path, "deep_array.py", """
        import sys
        sys.stdin.readline()
        print('{"programs": ' + '[' * 100000 + ']' * 100000 + '}')
    """)
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == []
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("malformed proposer response: ")


_A_SET = [{"kind": "phone_set", "phones": ["a"]}]

# Each fault the rule-JSON decoder leaves to Rule.validate: its rule JSON,
# and the same rule built in code.
CONTENT_FAULTS = {
    "empty-phone-set": (
        {"predicates": [{"kind": "phone_set", "phones": []}], "change_pos": [0],
         "mappings": [{"kind": "delete"}]},
        Rule([PhoneSet([])], [0], [Delete()]),
    ),
    "non-bit-feature-value": (
        {"predicates": [{"kind": "feature_req", "reqs": {"0": True}}], "change_pos": [0],
         "mappings": [{"kind": "delete"}]},
        Rule([FeatureReq({0: True})], [0], [Delete()]),
    ),
    "empty-substitute-target": (
        {"predicates": _A_SET, "change_pos": [0], "mappings": [{"kind": "substitute", "map": {"a": []}}]},
        Rule([PhoneSet(["a"])], [0], [Substitute({"a": ()})]),
    ),
    "non-string-substitute-phone": (
        {"predicates": _A_SET, "change_pos": [0], "mappings": [{"kind": "substitute", "map": {"a": ["e", 1]}}]},
        Rule([PhoneSet(["a"])], [0], [Substitute({"a": ("e", 1)})]),
    ),
    "empty-insert": (
        {"predicates": [{"kind": "is_nothing"}], "change_pos": [0],
         "mappings": [{"kind": "insert", "phones": []}]},
        Rule([IsNothing()], [0], [Insert([])]),
    ),
    "non-string-insert-phone": (
        {"predicates": [{"kind": "is_nothing"}], "change_pos": [0],
         "mappings": [{"kind": "insert", "phones": ["a", 2]}]},
        Rule([IsNothing()], [0], [Insert(["a", 2])]),
    ),
    "non-integer-change-position": (
        {"predicates": _A_SET, "change_pos": [0.0], "mappings": [{"kind": "delete"}]},
        Rule([PhoneSet(["a"])], [0.0], [Delete()]),
    ),
    "no-change-positions": (
        {"predicates": _A_SET, "change_pos": [], "mappings": []},
        Rule([PhoneSet(["a"])], [], []),
    ),
    "empty-substitute-map": (
        {"predicates": _A_SET, "change_pos": [0], "mappings": [{"kind": "substitute", "map": {}}]},
        Rule([PhoneSet(["a"])], [0], [Substitute({})]),
    ),
    "non-string-name": (
        {"predicates": _A_SET, "change_pos": [0], "mappings": [{"kind": "delete"}], "name": 7},
        Rule([PhoneSet(["a"])], [0], [Delete()], name=7),
    ),
}


@pytest.mark.parametrize("fault", sorted(CONTENT_FAULTS))
def test_rule_json_and_callables_get_one_judge(tmp_path, tiny_inv, fault):
    obj, built = CONTENT_FAULTS[fault]
    with pytest.raises(RuleError) as judged:
        built.validate(tiny_inv)
    reason = str(judged.value)
    with pytest.raises(RuleParseError) as parsed:
        parse_rule(json.dumps(obj), tiny_inv)
    assert str(parsed.value) == f"/: {reason}"

    reply = json.dumps({"v": 1, "programs": [obj]})
    command = write_stub(tmp_path, "fault.py", f"""
        import sys
        sys.stdin.readline()
        print({reply!r})
    """)
    request = ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4)
    external = propose(external_proposer(command, "p"), request, tiny_inv)
    in_code = propose(callable_proposer(lambda req: [built], "p"), request, tiny_inv)
    assert external.rules == in_code.rules == []
    assert external.diagnostics == [f"dropped invalid candidate 0 from p: /programs/0: {reason}"]
    assert in_code.diagnostics == [f"dropped invalid candidate 0 from p: {reason}"]


def test_a_shape_fault_in_an_external_program_is_dropped_at_its_member(tmp_path, tiny_inv):
    merge = {"predicates": _A_SET, "change_pos": [0], "mappings": [{"kind": "merge"}]}
    reply = json.dumps({"v": 1, "programs": [merge, VALID_RULE_OBJ]})
    command = write_stub(tmp_path, "merge.py", f"""
        import sys
        sys.stdin.readline()
        print({reply!r})
    """)
    result = propose(external_proposer(command, "p"), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == [sub_rule("a", 0, "a", "e")]
    assert result.diagnostics == [
        "dropped invalid candidate 0 from p: /programs/0/mappings/0/kind: unknown mapping kind 'merge'"
    ]


FEATURE_RULE = Rule([FeatureReq({0: 1})], [0], [Delete()])


@pytest.mark.parametrize("search", ["single", "beam"])
@pytest.mark.parametrize("source", ["callable", "external"])
@pytest.mark.parametrize("with_inventory", [False, True])
def test_a_search_without_an_inventory_drops_a_feature_rule(tmp_path, tiny_inv, search, source, with_inventory):
    # Such a rule once passed the gate and then raised while the search applied it.
    if source == "callable":
        handle = callable_proposer(lambda request: [FEATURE_RULE], "feat")
    else:
        reply = json.dumps({"v": 1, "programs": [rule_to_obj(FEATURE_RULE)]})
        handle = external_proposer(write_stub(tmp_path, "feat.py", f"""
            import sys
            for line in sys.stdin:
                print({reply!r}, flush=True)
        """), "feat")
    data = Dataset([ExamplePair(s, t, "p0") for s, t in pairs(tiny_inv, ("aj", "j"))])
    inv = tiny_inv if with_inventory else None
    diagnostics: list[str] = []
    if search == "single":
        ranked = induce_single_law(handle, data, samples=1, inv=inv, diagnostics=diagnostics)
        found = [rule for rule, _ in ranked]
    else:
        config = SearchConfig(beam_width=2, max_steps=1)
        beams = beam_search_cascade(handle, data, config, inv=inv, diagnostics=diagnostics)
        found = [rule for beam in beams for rule in beam.cascade.rules]
    if with_inventory:
        assert found == [FEATURE_RULE] and diagnostics == []
    else:
        where = "/programs/0: " if source == "external" else ""
        assert found == []
        assert diagnostics == [
            f"dropped invalid candidate 0 from feat: {where}feature requirement at position 0 needs an inventory"
        ]


def test_external_reply_without_a_programs_list(tmp_path, tiny_inv):
    command = write_stub(tmp_path, "no_programs.py", """
        import sys
        sys.stdin.readline()
        print('{"v":1}')
    """)
    result = propose(external_proposer(command), ProposalRequest(pairs(tiny_inv, ("aj", "ej")), 4), tiny_inv)
    assert result.rules == []
    assert result.diagnostics == ["proposer response has no 'programs' list"]


def test_a_request_without_examples_and_a_command_without_argv_are_refused():
    with pytest.raises(ValueError, match="^proposal request has no examples$"):
        ProposalRequest([], 1)
    with pytest.raises(ValueError, match="^external proposer command is empty$"):
        external_proposer([])


def test_request_wire_format(tiny_inv):
    request = ProposalRequest(pairs(tiny_inv, ("kaj", "kej")), 20, step_index=2)
    obj = request_to_obj(request)
    assert obj == {
        "v": 1,
        "examples": [{"source": ["k", "a", "j"], "target": ["k", "e", "j"]}],
        "num_samples": 20,
        "step": 2,
    }
    json.dumps(obj)  # serializable


# --- proposer sessions -----------------------------------------------------------------

# Serves requests until EOF, logs its PID per request, and names each reply
# after the request's step.  The "exit-3" modes write "boom" to stderr, reply
# once and exit with status 3, at once or 0.3 s later.  "junk-after" and
# "junk-late" write a line that is not a reply after each reply, at once or
# 0.2 s later, which is after the next request has been sent.  argv: PID log, mode.
SESSION_STUB = """
    import json, os, sys, time
    log, mode = sys.argv[1], sys.argv[2]
    if mode == "deaf":
        time.sleep(10)
    served = 0
    for line in sys.stdin:
        if not line.strip():
            continue
        step = json.loads(line)["step"]
        served += 1
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\\n")
        if (mode == "crash-at-step-1" and step == 1) or (mode == "crash-second" and served == 2):
            print("boom", file=sys.stderr)
            sys.exit(3)
        if mode == "sleep-at-step-1" and step == 1:
            time.sleep(10)
        if mode == "stderr":
            sys.stderr.write("x" * 100_000)
            sys.stderr.flush()
        if mode == "junk-before":
            print("junk")
        if mode.startswith("exit-3"):
            print("boom", file=sys.stderr, flush=True)
        rule = {"predicates": [{"kind": "phone_set", "phones": ["a"]}], "change_pos": [0],
                "mappings": [{"kind": "substitute", "map": {"a": ["e"]}}], "name": f"step-{step}"}
        print(json.dumps({"v": 1, "programs": [rule]}), flush=True)
        if mode.startswith("exit-3"):
            time.sleep(0.3 if mode == "exit-3-late" else 0)
            sys.exit(3)
        if mode in ("junk-after", "junk-late"):
            time.sleep(0.2 if mode == "junk-late" else 0)
            print("junk", flush=True)
"""


def session_stub(tmp_path, mode, tag=""):
    command = write_stub(tmp_path, "session_stub.py", SESSION_STUB)
    log = tmp_path / f"pids-{mode}{tag}.log"
    return command + [str(log), mode], log


def logged_pids(log):
    return [int(pid) for pid in log.read_text().split()] if log.exists() else []


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def step_request(inv, step, words=(("aj", "ej"),)):
    return ProposalRequest(pairs(inv, *words), 4, step_index=step)


def ask_steps(inv, handle, steps, timeouts=None):
    """One request per step through one session set; ``timeouts`` maps a step to its timeout (ms)."""
    timeouts = timeouts or {}
    results = []
    with ProposerSessions() as sessions, pytest.MonkeyPatch.context() as env:
        for step in range(steps):
            if step in timeouts:
                env.setenv(TIMEOUT_ENV_VAR, str(timeouts[step]))
            else:
                env.delenv(TIMEOUT_ENV_VAR, raising=False)
            results.append(propose(handle, step_request(inv, step), inv, sessions))
    return results


def names(result):
    return [rule.name for rule in result.rules]


def test_external_reply_holds_programs_and_propose_returns_rules(tmp_path, tiny_inv):
    # external_propose hands back the reply's JSON programs as sent; only
    # propose's gate turns them into rules.
    command, _ = session_stub(tmp_path, "serve")
    request = step_request(tiny_inv, 2)
    with ProposerSessions() as sessions:
        reply = proposers.external_propose(command, request, sessions)
        result = propose(external_proposer(command), request, tiny_inv, sessions)
    assert isinstance(reply, proposers.ExternalReply)
    assert reply.diagnostics == []
    assert [program["name"] for program in reply.programs] == ["step-2"]
    assert all(type(program) is dict for program in reply.programs)
    assert all(type(rule) is Rule for rule in result.rules)
    assert names(result) == ["step-2"] and result.diagnostics == []


def search_dataset(inv):
    items = [("aj", "ej"), ("kaj", "kej"), ("tu", "tu")]
    return Dataset([ExamplePair(tokenize(s, inv), tokenize(t, inv), f"p{i}") for i, (s, t) in enumerate(items)])


NO_EARLY_STOP = SearchConfig(beam_width=3, samples_per_step=1, max_steps=3, early_stop_on_perfect=False)


def test_search_reuses_one_process_per_command(tmp_path, tiny_inv):
    command, log = session_stub(tmp_path, "serve")
    diagnostics = []
    beam_search_cascade(
        external_proposer(command), search_dataset(tiny_inv), NO_EARLY_STOP, tiny_inv,
        diagnostics=diagnostics,
    )
    pids = logged_pids(log)
    assert diagnostics == []
    assert len(pids) >= 3 and len(set(pids)) == 1
    assert_reaped(pids)


def test_ensemble_of_distinct_commands_gets_one_process_each(tmp_path, tiny_inv):
    first, first_log = session_stub(tmp_path, "serve", "-a")
    second, second_log = session_stub(tmp_path, "serve", "-b")
    handle = ensemble_proposer([external_proposer(first), external_proposer(second)])
    beam_search_cascade(handle, search_dataset(tiny_inv), NO_EARLY_STOP, tiny_inv)
    first_pids, second_pids = logged_pids(first_log), logged_pids(second_log)
    assert len(first_pids) >= 3 and len(set(first_pids)) == 1
    assert len(second_pids) == len(first_pids) and len(set(second_pids)) == 1
    assert len(set(first_pids) | set(second_pids)) == 2
    assert_reaped(first_pids + second_pids)


def test_one_shot_proposer_gives_the_beams_of_its_programs(tmp_path, tiny_inv):
    programs = [VALID_RULE_OBJ, rule_to_obj(sub_rule("u", 0, "u", "i"))]
    command = write_stub(tmp_path, "one_shot.py", f"""
        import json, sys
        request = json.loads(sys.stdin.readline())
        print(json.dumps({{"v": 1, "programs": {json.dumps(programs)}[: request["num_samples"]]}}))
    """)
    config = SearchConfig(beam_width=3, samples_per_step=2, max_steps=3, early_stop_on_perfect=False)
    dataset = search_dataset(tiny_inv)
    diagnostics = []
    exec_beams = beam_search_cascade(
        external_proposer(command), dataset, config, tiny_inv, diagnostics=diagnostics
    )
    rules = [sub_rule("a", 0, "a", "e"), sub_rule("u", 0, "u", "i")]
    same_beams = beam_search_cascade(callable_proposer(lambda r: rules), dataset, config, tiny_inv)
    assert diagnostics == []
    assert [hypothesis_to_obj(b) for b in exec_beams] == [hypothesis_to_obj(b) for b in same_beams]
    assert max(b.step for b in exec_beams) == 3


# Answers every request line with the first num_samples programs of the
# JSON list in its argument.
REPEATING_STUB = """
    import json, sys
    with open(sys.argv[1]) as fh:
        programs = json.load(fh)
    for line in sys.stdin:
        if line.strip():
            request = json.loads(line)
            print(json.dumps({"v": 1, "programs": programs[: request["num_samples"]]}), flush=True)
"""


def repeating_stub(tmp_path, programs):
    path = tmp_path / "programs.json"
    path.write_text(json.dumps(programs))
    return write_stub(tmp_path, "repeating_stub.py", REPEATING_STUB) + [str(path)]


def counting_decodes(monkeypatch):
    """Counts ``proposers.rule_from_obj`` calls per program, by its JSON text."""
    decoded = Counter()
    real = proposers.rule_from_obj

    def counting(obj, path="", inv=None):
        decoded[json.dumps(obj, sort_keys=True)] += 1
        return real(obj, path, inv)

    monkeypatch.setattr(proposers, "rule_from_obj", counting)
    return decoded


def counting_requests(monkeypatch):
    requests = []
    real = proposers.external_propose

    def counting(command, request, sessions=None):
        requests.append(request)
        return real(command, request, sessions)

    monkeypatch.setattr(proposers, "external_propose", counting)
    return requests


U_TO_I = rule_to_obj(sub_rule("u", 0, "u", "i"))
J_TO_I = rule_to_obj(sub_rule("j", 0, "j", "i"))
ZZ_INSERT = rule_to_obj(BAD_RULE)  # names a phone outside every inventory here


def test_a_search_decodes_each_distinct_valid_program_once(tmp_path, tiny_inv, monkeypatch):
    programs = [VALID_RULE_OBJ, ZZ_INSERT, U_TO_I, VALID_RULE_OBJ, ZZ_INSERT, J_TO_I]
    handle = external_proposer(repeating_stub(tmp_path, programs), name="stub")
    config = SearchConfig(beam_width=3, samples_per_step=10, max_steps=3, early_stop_on_perfect=False)
    decoded = counting_decodes(monkeypatch)
    requests = counting_requests(monkeypatch)
    valid = {json.dumps(p, sort_keys=True) for p in (VALID_RULE_OBJ, U_TO_I, J_TO_I)}
    beams = []
    for search in (1, 2):
        diagnostics = []
        requests.clear()
        beams.append(beam_search_cascade(handle, search_dataset(tiny_inv), config, tiny_inv,
                                         diagnostics=diagnostics))
        assert len(requests) > 3
        assert {text: decoded[text] for text in valid} == dict.fromkeys(valid, search)
        assert decoded[json.dumps(ZZ_INSERT, sort_keys=True)] == 2 * len(requests) * search
        # The invalid program is judged at every request, at each of its indices.
        assert [d.split(":")[0] for d in diagnostics] == ["dropped invalid candidate 1 from stub",
                                                          "dropped invalid candidate 4 from stub"] * len(requests)
        assert all("/programs/1: " in d or "/programs/4: " in d for d in diagnostics)
    assert [hypothesis_to_obj(b) for b in beams[0]] == [hypothesis_to_obj(b) for b in beams[1]]


def test_propose_without_sessions_decodes_every_program(tmp_path, tiny_inv, monkeypatch):
    programs = [VALID_RULE_OBJ, U_TO_I, VALID_RULE_OBJ]
    handle = external_proposer(repeating_stub(tmp_path, programs))
    decoded = counting_decodes(monkeypatch)
    for _ in range(2):
        result = propose(handle, step_request(tiny_inv, 0), tiny_inv)
        assert result.rules == [sub_rule("a", 0, "a", "e"), sub_rule("u", 0, "u", "i"), sub_rule("a", 0, "a", "e")]
    assert sum(decoded.values()) == 2 * len(programs)


def test_a_program_decoded_under_one_inventory_is_judged_afresh_under_another(tmp_path, default_inv, tiny_inv,
                                                                              monkeypatch):
    p_to_b = rule_to_obj(sub_rule("p", 0, "p", "b"))  # "p" is a phone of the default inventory only
    handle = external_proposer(repeating_stub(tmp_path, [p_to_b]), name="stub")
    decoded = counting_decodes(monkeypatch)
    with ProposerSessions() as sessions:
        judged = [propose(handle, step_request(tiny_inv, step), inv, sessions)
                  for step, inv in enumerate((default_inv, tiny_inv, default_inv, tiny_inv, None))]
    assert [len(result.rules) for result in judged] == [1, 0, 1, 0, 1]
    assert judged[0].rules[0] is judged[2].rules[0]
    for result in (judged[1], judged[3]):
        assert result.diagnostics == ["dropped invalid candidate 0 from stub: /programs/0: "
                                      "substitute at position 0: phone 'p' not in inventory"]
    assert sum(decoded.values()) == 4  # once under each inventory, and at each tiny request


def test_a_program_too_deep_to_key_is_dropped_as_nesting_too_deep(tiny_inv, monkeypatch):
    deep = _deep_not_program(2 * sys.getrecursionlimit())
    monkeypatch.setattr(proposers, "external_propose",
                        lambda command, request, sessions=None: proposers.ExternalReply([deep, VALID_RULE_OBJ], []))
    with ProposerSessions() as sessions:
        for step in range(2):
            result = propose(external_proposer(["unused"], name="deep"), step_request(tiny_inv, step),
                             tiny_inv, sessions)
            assert result.rules == [sub_rule("a", 0, "a", "e")]
            assert result.diagnostics == ["dropped invalid candidate 0 from deep: /programs/0: nesting too deep"]


def test_session_crash_is_reported_and_the_next_request_answered(tmp_path, tiny_inv):
    command, log = session_stub(tmp_path, "crash-at-step-1")
    first, second, third = ask_steps(tiny_inv, external_proposer(command), 3)
    assert names(first) == ["step-0"] and first.diagnostics == []
    # the reused process crashes, and so does the fresh one it is retried in
    assert second.rules == []
    assert second.diagnostics[-1] == "proposer produced no response line"
    exits = [d for d in second.diagnostics if d.startswith("proposer exited with status 3")]
    assert len(exits) == 2 and all(d.endswith("boom") for d in exits)
    assert names(third) == ["step-2"] and third.diagnostics == []
    assert len(set(logged_pids(log))) == 3
    assert_reaped(logged_pids(log))


def test_session_retries_a_crashed_reused_process_once(tmp_path, tiny_inv):
    command, log = session_stub(tmp_path, "crash-second")
    results = ask_steps(tiny_inv, external_proposer(command), 3)
    assert [names(r) for r in results] == [["step-0"], ["step-1"], ["step-2"]]
    assert results[0].diagnostics == []
    for result in results[1:]:
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].startswith("proposer exited with status 3")
    assert len(set(logged_pids(log))) == 3


def test_session_timeout_kills_and_the_next_request_is_answered(tmp_path, tiny_inv):
    command, log = session_stub(tmp_path, "sleep-at-step-1")
    started = time.monotonic()
    first, second, third = ask_steps(tiny_inv, external_proposer(command), 3, {1: 400})
    assert time.monotonic() - started < 8
    assert names(first) == ["step-0"]
    assert second.rules == [] and any("timed out" in d for d in second.diagnostics)
    assert names(third) == ["step-2"] and third.diagnostics == []
    assert_reaped(logged_pids(log))


BOOM = "proposer exited with status 3: boom"


def test_single_law_search_reports_its_proposer_exit_status(tmp_path, tiny_inv):
    command, log = session_stub(tmp_path, "exit-3")
    handle = external_proposer(command)
    assert propose(handle, step_request(tiny_inv, 0), tiny_inv).diagnostics == [BOOM]
    diagnostics = []
    ranked = induce_single_law(
        handle, search_dataset(tiny_inv), samples=4, inv=tiny_inv, diagnostics=diagnostics
    )
    assert [rule.name for rule, _ in ranked] == ["step-0"]
    assert diagnostics == [BOOM]
    assert_reaped(logged_pids(log))


def test_single_law_search_that_raises_still_reports_its_proposer_exit_status(tmp_path, tiny_inv):
    command, log = session_stub(tmp_path, "exit-3-late")

    def failing(request):
        raise RuntimeError("callable proposer failed")

    handle = ensemble_proposer([external_proposer(command), callable_proposer(failing)])
    diagnostics = []
    with pytest.raises(RuntimeError, match="callable proposer failed"):
        induce_single_law(
            handle, search_dataset(tiny_inv), samples=4, inv=tiny_inv, diagnostics=diagnostics
        )
    assert diagnostics == [BOOM]
    assert_reaped(logged_pids(log))


def test_beam_search_reports_the_exit_status_of_every_proposer_process(tmp_path, tiny_inv):
    command, log = session_stub(tmp_path, "exit-3")
    diagnostics = []
    beam_search_cascade(
        external_proposer(command), search_dataset(tiny_inv), NO_EARLY_STOP, tiny_inv,
        diagnostics=diagnostics,
    )
    requests = logged_pids(log)  # one process per request
    assert len(requests) >= 3 and len(set(requests)) == len(requests)
    assert diagnostics == [BOOM] * len(requests)


def test_exit_diagnostic_quotes_stderr_written_before_the_last_request(tmp_path, tiny_inv):
    # The process is still alive when the second request comes, exits without
    # answering it, and the request is retried in a fresh process.
    command, _ = session_stub(tmp_path, "exit-3-late")
    first, second = ask_steps(tiny_inv, external_proposer(command), 2)
    assert names(first) == ["step-0"] and first.diagnostics == []
    assert names(second) == ["step-1"] and second.diagnostics == [BOOM]


def test_session_child_writing_lots_of_stderr_does_not_block(tmp_path, tiny_inv):
    command, log = session_stub(tmp_path, "stderr")
    results = ask_steps(tiny_inv, external_proposer(command), 3, {0: 20_000, 1: 5_000, 2: 5_000})
    assert [names(r) for r in results] == [["step-0"], ["step-1"], ["step-2"]]
    assert all(r.diagnostics == [] for r in results)
    assert len(set(logged_pids(log))) == 1


def test_request_larger_than_the_pipe_to_a_deaf_proposer_times_out(tmp_path, tiny_inv, monkeypatch):
    command, _ = session_stub(tmp_path, "deaf")
    request = ProposalRequest(pairs(tiny_inv, *[("kaj", "kej")] * 2000), 4)
    assert len(json.dumps(request_to_obj(request))) > 64 * 1024
    monkeypatch.setenv("CASCADE_FORGE_PROPOSER_TIMEOUT_MS", "400")
    started = time.monotonic()
    result = propose(external_proposer(command), request, tiny_inv)
    assert time.monotonic() - started < 8
    assert result.rules == [] and any("timed out" in d for d in result.diagnostics)


@pytest.mark.parametrize("mode", ["junk-before", "junk-after", "junk-late"])
def test_session_replies_never_cross_requests(tmp_path, tiny_inv, mode):
    command, _ = session_stub(tmp_path, mode)
    results = ask_steps(tiny_inv, external_proposer(command), 3)
    for step, result in enumerate(results):
        assert all(name == f"step-{step}" for name in names(result))
        if step or mode == "junk-before":
            assert result.diagnostics
    assert names(results[0]) == ([] if mode == "junk-before" else ["step-0"])


def test_search_that_raises_still_reaps_its_proposers(tmp_path, tiny_inv):
    command, log = session_stub(tmp_path, "serve")

    def failing(request):
        if request.step_index == 1:
            raise RuntimeError("callable proposer failed")
        return []

    handle = ensemble_proposer([external_proposer(command), callable_proposer(failing)])
    with pytest.raises(RuntimeError, match="callable proposer failed"):
        beam_search_cascade(handle, search_dataset(tiny_inv), NO_EARLY_STOP, tiny_inv)
    assert_reaped(logged_pids(log))


# Runs a search and the failure paths of a session under ``-X dev`` with
# ResourceWarning as an error; any pipe, file or child left open fails it.
DEV_MODE_SCRIPT = """
import gc, os, sys
caught = []
sys.unraisablehook = lambda info: caught.append(repr(info.exc_value))
from cascade_forge.metrics import Dataset, ExamplePair
from cascade_forge.phonology import load_inventory, tokenize
from cascade_forge.proposers import (
    TIMEOUT_ENV_VAR, ProposalRequest, ProposerSessions, external_proposer, propose,
)
from cascade_forge.search import SearchConfig, beam_search_cascade

inv = load_inventory("!feature syllabic\\na\\t1\\ne\\t1\\nj\\t0\\n")
stub = sys.argv[1:]
pairs = [ExamplePair(tokenize("aj", inv), tokenize("ej", inv), "p0")]
config = SearchConfig(beam_width=2, max_steps=2, early_stop_on_perfect=False)
beam_search_cascade(external_proposer(stub + ["serve"]), Dataset(pairs), config, inv)
request = lambda step: ProposalRequest([(pairs[0].source, pairs[0].target)], 1, step_index=step)
for mode in ("crash-at-step-1", "sleep-at-step-1", "junk-after", "junk-late"):
    with ProposerSessions() as sessions:
        for step in range(3):
            if (mode, step) == ("sleep-at-step-1", 1):
                os.environ[TIMEOUT_ENV_VAR] = "400"
            else:
                os.environ.pop(TIMEOUT_ENV_VAR, None)
            propose(external_proposer(stub + [mode]), request(step), inv, sessions)
propose(external_proposer(["/nonexistent/prog"]), request(0), inv)
gc.collect()
sys.exit(1 if caught else 0)
"""


def test_sessions_leak_nothing_under_dev_mode(tmp_path):
    command = write_stub(tmp_path, "session_stub.py", SESSION_STUB)
    log = tmp_path / "pids.log"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", DEV_MODE_SCRIPT,
         *command, str(log)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr
