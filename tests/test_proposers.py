import hashlib
import itertools
import json
import os
import stat
import subprocess
import sys
import textwrap
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from cascade_forge.metrics import Dataset, ExamplePair, reward
from cascade_forge.phonology import TokenizedWord, tokenize
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
    apply_rule,
    rule_to_obj,
    serialize_rule,
)
from cascade_forge.search import SearchConfig, beam_search_cascade, hypothesis_to_obj, induce_single_law
from cascade_forge.synthgen import GenerationError, SmpSpec, gen_smp_examples, gen_smp_law, task_rng


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
    assert result.diagnostics[0].startswith("dropped invalid program 0")
    assert "'@' is not a phone" in result.diagnostics[0]


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
    assert result.diagnostics[0].startswith("dropped invalid program 0")
    assert "/programs/0/predicates/0/reqs/0" in result.diagnostics[0]


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
    assert result.diagnostics[0].startswith("dropped invalid program 0")
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
    assert result.diagnostics[0].startswith("dropped invalid program 0")
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
    assert result.diagnostics[0].startswith("dropped invalid program 0")
    assert "/programs/0/predicates/0/reqs: feature index must be decimal digits" in result.diagnostics[0]
    assert "'00'" in result.diagnostics[0]


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
