"""Seeded fuzz guards for the two ways text enters the engine.

The program fuzzer feeds random and mutated rule programs to the rule JSON
decoder, and sends them, a few to a reply, twice each through one external
proposer session; random rules built in code go to ``Rule.validate``.  The
CLI fuzzer feeds small random pairs and word files to ``cli.main``.  Counts
are kept small enough for the whole file to run in about a second.
"""

import copy
import json
import random
import sys

import pytest

from cascade_forge.cli import main
from cascade_forge.phonology import TokenizedWord, validate_word
from cascade_forge.proposers import ProposalRequest, ProposerSessions, external_proposer, propose
from cascade_forge.rule_engine import (
    MAX_NOT_DEPTH,
    Delete,
    FeatureReq,
    Insert,
    IsNothing,
    Not,
    PhoneSet,
    Rule,
    RuleError,
    RuleParseError,
    Substitute,
    WordEnd,
    WordStart,
    apply_rule,
    parse_rule,
    rule_from_obj,
    rule_to_obj,
    serialize_rule,
)

from oracles import reference_apply

INVENTORY_PHONES = ("a", "e", "i", "u", "t", "s", "ts", "k", "j", "b")  # conftest's TINY_INVENTORY
# Not phones of that inventory: a foreign phone, the reserved tokens, the empty string.
FOREIGN_PHONES = ("zz", "#", "@", "")
PREDICATE_KINDS = ("phone_set", "is_nothing", "word_start", "word_end", "feature_req", "not")


def some_phone(rng, faulty):
    if faulty and rng.random() < 0.15:
        return rng.choice(FOREIGN_PHONES)
    return rng.choice(INVENTORY_PHONES)


# --- rule programs as JSON ----------------------------------------------------------


def random_predicate_obj(rng, faulty, depth=0):
    kind = rng.choice(PREDICATE_KINDS if depth < MAX_NOT_DEPTH + 2 else PREDICATE_KINDS[:-1])
    if kind == "phone_set":
        size = rng.randint(0 if faulty else 1, 3)
        return {"kind": kind, "phones": [some_phone(rng, faulty) for _ in range(size)]}
    if kind == "feature_req":
        indices = (0, 1, 2, 7) if faulty else (0, 1, 2)
        values = (0, 1, 2, -1, True) if faulty else (0, 1)
        return {"kind": kind, "reqs": {str(rng.choice(indices)): rng.choice(values) for _ in range(rng.randint(0, 2))}}
    if kind == "not":
        return {"kind": kind, "inner": random_predicate_obj(rng, faulty, depth + 1)}
    return {"kind": kind}


def random_program(rng, faulty):
    """A program laid out like the engine's rules (phone slots between
    is-nothing slots, inserts on is-nothing), with content faults if ``faulty``."""
    width = rng.randint(1, 3)
    predicates = []
    for k in range(width):
        if k:
            predicates.append({"kind": "is_nothing"})
        predicates.append(random_predicate_obj(rng, faulty))
    if rng.random() < 0.3:
        predicates = [{"kind": "word_start"}, {"kind": "is_nothing"}, *predicates]
    change_pos, mappings = [], []
    for pos in rng.sample(range(len(predicates)), rng.randint(1, min(2, len(predicates)))):
        if predicates[pos]["kind"] == "is_nothing":
            mapping = {"kind": "insert", "phones": [some_phone(rng, faulty) for _ in range(rng.randint(1, 2))]}
        elif rng.random() < 0.3:
            mapping = {"kind": "delete"}
        else:
            mapping = {"kind": "substitute", "map": {some_phone(rng, faulty): [some_phone(rng, faulty)]}}
        change_pos.append(pos)
        mappings.append(mapping)
    if faulty and rng.random() < 0.3:
        change_pos[0] = rng.choice((-1, len(predicates), 0.0, "0", True, change_pos[-1]))
    if faulty and rng.random() < 0.1:
        mappings.append({"kind": "delete"})
    program = {"predicates": predicates, "change_pos": change_pos, "mappings": mappings}
    if rng.random() < 0.3:
        program["name"] = rng.choice(("law", 7, None))
    return program


JUNK_VALUES = (None, 0, -1, 1.5, True, "a", "#", [], {}, ["a"], {"kind": "merge"})


def members(value, path=""):
    """Every (path, container, key) under a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield f"{path}/{key}", value, key
        yield from members(inner, f"{path}/{key}")


def mutate(rng, program):
    """``program`` with one to three members replaced, deleted or duplicated."""
    program = copy.deepcopy(program)
    for _ in range(rng.randint(1, 3)):
        sites = list(members(program))
        if not sites:
            break
        _, container, key = rng.choice(sites)
        roll = rng.random()
        if roll < 0.6:
            container[key] = rng.choice(JUNK_VALUES)
        elif isinstance(container, dict):
            del container[key]
        else:
            container.insert(key, copy.deepcopy(container[key]))
    return program


def random_words(rng, count=4):
    return [TokenizedWord.from_phones(rng.choices(INVENTORY_PHONES, k=rng.randint(0, 5))) for _ in range(count)]


def check_accepted(rule, inv, rng):
    text = serialize_rule(rule)
    again = parse_rule(text, inv)
    assert again == rule and rule_to_obj(again) == rule_to_obj(rule), text
    assert serialize_rule(again) == text
    for word in random_words(rng):
        applied = apply_rule(rule, word, inv)
        assert applied == reference_apply(rule, word, inv), (text, word.surface)
        validate_word(applied, inv)


# Answers a request with the programs of the reply its step names, from the
# JSON list of replies in its argument.
REPLAYING_STUB = """
import json, sys
with open(sys.argv[1]) as fh:
    replies = json.load(fh)
for line in sys.stdin:
    if line.strip():
        print(json.dumps({"v": 1, "programs": replies[json.loads(line)["step"]]}), flush=True)
"""


def check_sent_twice(programs, inv, rng, tmp_path):
    """Send ``programs``, a few to a reply, twice each through one session:
    both times the gate keeps and drops what ``rule_from_obj`` judges of each."""
    replies = []
    while programs:
        size = rng.randint(1, 8)
        replies.append(programs[:size])
        programs = programs[size:]
    (tmp_path / "replies.json").write_text(json.dumps(replies))
    (tmp_path / "stub.py").write_text(REPLAYING_STUB)
    handle = external_proposer([sys.executable, str(tmp_path / "stub.py"), str(tmp_path / "replies.json")], "fuzz")
    words = (TokenizedWord.from_phones(["a"]), TokenizedWord.from_phones(["e"]))
    with ProposerSessions() as sessions:
        for step, reply in enumerate(replies):
            rules, diagnostics = [], []
            for i, program in enumerate(reply):
                try:
                    rules.append(rule_from_obj(program, f"/programs/{i}", inv))
                except RuleParseError as exc:
                    diagnostics.append(f"dropped invalid candidate {i} from fuzz: {exc}")
            request = ProposalRequest([words], len(reply), step_index=step)
            for _ in range(2):
                result = propose(handle, request, inv, sessions)
                assert result.diagnostics == diagnostics, reply
                assert result.rules == rules and [r.name for r in result.rules] == [r.name for r in rules], reply
                assert [serialize_rule(r) for r in result.rules] == [serialize_rule(r) for r in rules], reply


def test_rule_json_decoding_raises_only_rule_parse_errors(tiny_inv, tmp_path):
    rng = random.Random(101)
    accepted = rejected = 0
    whole = []  # the programs sent as they are
    for k in range(900):
        program = random_program(rng, faulty=k % 3 != 0)
        if k % 2:
            program = mutate(rng, program)
        text = json.dumps(program)
        if k % 10 == 9:  # cut the text short, or drop one character
            cut = rng.randrange(len(text))
            text = text[:cut] if rng.random() < 0.5 else text[:cut] + text[cut + 1 :]
        else:
            whole.append(json.loads(text))
        try:
            rule = parse_rule(text, tiny_inv)
        except RuleParseError as exc:
            assert str(exc).startswith("/"), text
            rejected += 1
            continue
        except Exception as exc:  # anything else is a fault of the decoder
            raise AssertionError(f"{type(exc).__name__} from {text}") from exc
        check_accepted(rule, tiny_inv, rng)
        accepted += 1
    assert accepted > 100 and rejected > 300, (accepted, rejected)
    check_sent_twice(whole, tiny_inv, rng, tmp_path)


# --- rules built in code ------------------------------------------------------------


def random_predicate(rng, faulty, depth=0):
    kind = rng.choice(PREDICATE_KINDS if depth <= MAX_NOT_DEPTH else PREDICATE_KINDS[:-1])
    if kind == "phone_set":
        return PhoneSet(some_phone(rng, faulty) for _ in range(rng.randint(0 if faulty else 1, 3)))
    if kind == "feature_req":
        indices, values = ((0, 1, 2, 7), (0, 1, 2, -1, True)) if faulty else ((0, 1, 2), (0, 1))
        return FeatureReq({rng.choice(indices): rng.choice(values) for _ in range(rng.randint(0, 2))})
    if kind == "not":
        return Not(random_predicate(rng, faulty, depth + 1))
    return {"is_nothing": IsNothing, "word_start": WordStart, "word_end": WordEnd}[kind]()


def random_rule(rng):
    """A rule laid out like ``random_program``'s, built in code, with at most
    one structural fault on top of its predicates' faults.  Every fault
    survives ``rule_to_obj``: nothing the JSON form cannot hold, like a phone
    mapped twice or a feature index that is not a non-negative int."""
    faulty = rng.random() < 0.5
    predicates = []
    for k in range(rng.randint(1, 3)):
        if k:
            predicates.append(IsNothing())
        predicates.append(random_predicate(rng, faulty))
    positions = rng.sample(range(len(predicates)), rng.randint(1, min(2, len(predicates))))
    mappings = []
    for pos in positions:
        if isinstance(predicates[pos], IsNothing):
            mappings.append(Insert(some_phone(rng, faulty) for _ in range(rng.randint(1, 2))))
        elif rng.random() < 0.3:
            mappings.append(Delete())
        else:
            mappings.append(Substitute({some_phone(rng, faulty): (some_phone(rng, faulty),)}))
    name = None
    if faulty:
        fault = rng.randrange(10)
        if fault == 0:
            positions[0] = rng.choice((-1, len(predicates), 0.0, "0", True, positions[-1]))
        elif fault == 1:
            mappings.append(Delete())
        elif fault == 2:
            predicates, positions, mappings = rng.choice((([], positions, mappings), (predicates, [], [])))
        elif fault == 3:
            mappings[0] = rng.choice((Insert(()), Substitute({}), Substitute({"a": ()}), Insert(("a",)), Delete()))
        elif fault == 4:
            inner = predicates[0]
            for _ in range(MAX_NOT_DEPTH + 1):
                inner = Not(inner)
            predicates[0] = inner
        elif fault == 5:
            name = 7
    return Rule(predicates, positions, mappings, name=name)


@pytest.mark.parametrize("with_inventory", [True, False])
def test_the_rule_json_gate_judges_a_rule_as_validate_does(tiny_inv, with_inventory):
    rng = random.Random(103 + with_inventory)
    inv = tiny_inv if with_inventory else None
    accepted = 0
    reasons = set()
    for _ in range(500):
        rule = random_rule(rng)
        try:
            rule.validate(inv)
        except RuleError as exc:
            reason = str(exc)
        else:
            reason = None
        try:
            decoded = rule_from_obj(rule_to_obj(rule), "/programs/0", inv)
        except RuleParseError as exc:
            assert reason is not None and str(exc) == f"/programs/0: {reason}", (rule, reason)
            reasons.add(reason.split(" ")[0])
            continue
        assert reason is None and decoded == rule, (rule, reason)
        check_accepted(decoded, inv, rng)
        accepted += 1
    assert accepted > 100 and len(reasons) > 10, (accepted, reasons)


# --- shape faults -------------------------------------------------------------------

MISSING = object()  # drop the member instead of replacing it


def shape_sites(program):
    """(path, container, key, wrong values) for each member of a well-formed
    program whose JSON type the decoders check; a wrong value there is a
    shape fault named at that member's path."""
    yield "/predicates", program, "predicates", (MISSING, None, {}, "a")
    for i, pred in enumerate(program["predicates"]):
        yield from predicate_sites(pred, program["predicates"], i, f"/predicates/{i}")
    yield "/change_pos", program, "change_pos", (MISSING, None, {}, 0)
    yield "/mappings", program, "mappings", (MISSING, None, {}, "delete")
    for i, mapping in enumerate(program["mappings"]):
        path = f"/mappings/{i}"
        yield path, program["mappings"], i, (None, [], "delete")
        yield f"{path}/kind", mapping, "kind", (MISSING, "merge", 1)
        if mapping["kind"] == "substitute":
            yield f"{path}/map", mapping, "map", (MISSING, [], "a")
            for key in mapping["map"]:
                yield f"{path}/map/{key}", mapping["map"], key, ("e", None, {})
        elif mapping["kind"] == "insert":
            yield f"{path}/phones", mapping, "phones", (MISSING, "a", {})


def predicate_sites(pred, container, key, path):
    yield path, container, key, (None, [], "phone_set")
    yield f"{path}/kind", pred, "kind", (MISSING, "merge", 1)
    if pred["kind"] == "phone_set":
        yield f"{path}/phones", pred, "phones", (MISSING, "a", {})
        for k in range(len(pred["phones"])):
            yield f"{path}/phones/{k}", pred["phones"], k, (1, None, ["a"])
    elif pred["kind"] == "feature_req":
        yield f"{path}/reqs", pred, "reqs", (MISSING, [], 1)
    elif pred["kind"] == "not":
        yield from predicate_sites(pred["inner"], pred, "inner", f"{path}/inner")


def test_a_shape_fault_is_named_at_its_members_path(tiny_inv):
    rng = random.Random(107)
    faults = 0
    while faults < 400:
        program = random_program(rng, faulty=False)
        try:
            parse_rule(json.dumps(program), tiny_inv)
        except RuleParseError:
            continue
        path, container, key, wrong = rng.choice(list(shape_sites(program)))
        value = rng.choice(wrong)
        if value is MISSING:
            del container[key]
        else:
            container[key] = value
        text = json.dumps(program)
        with pytest.raises(RuleParseError) as caught:
            parse_rule(text, tiny_inv)
        assert str(caught.value).startswith(f"{path}: "), (text, str(caught.value))
        faults += 1


# --- the CLI ------------------------------------------------------------------------

CLI_PHONES = ("a", "e", "i", "o", "u", "k", "t", "s", "p", "m", "n", "j")
CLI_JUNK = ("X", "?", "#", "@", "\t", "%", " ", "ʰ")
A_TO_E = {"predicates": [{"kind": "phone_set", "phones": ["a"]}, {"kind": "is_nothing"},
                         {"kind": "phone_set", "phones": ["j"]}],
          "change_pos": [0], "mappings": [{"kind": "substitute", "map": {"a": ["e"]}}]}
J_DROP = {"predicates": [{"kind": "phone_set", "phones": ["j"]}, {"kind": "word_end"}],
          "change_pos": [0], "mappings": [{"kind": "delete"}]}


def cli_word(rng):
    phones = [rng.choice(CLI_PHONES) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.1:
        phones.insert(rng.randint(0, len(phones)), rng.choice(CLI_JUNK))
    return "".join(phones)


def cli_lines(rng, pairs):
    lines = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(("", "   ", "% a comment")))
        elif not pairs:
            lines.append(cli_word(rng))
        elif roll < 0.2:
            lines.append("\t".join(cli_word(rng) for _ in range(rng.choice((1, 3)))))
        else:
            source = cli_word(rng)
            target = source.replace("a", "e") if rng.random() < 0.5 else cli_word(rng)
            lines.append(f"{source}\t{target}")
    return "\n".join(lines) + rng.choice(("", "\n"))


def cli_rule_text(rng):
    roll = rng.random()
    if roll < 0.4:
        return json.dumps(A_TO_E)
    if roll < 0.6:
        return json.dumps(J_DROP)
    if roll < 0.9:
        return json.dumps(mutate(rng, A_TO_E) if roll < 0.75 else random_program(rng, faulty=True))
    return json.dumps(A_TO_E)[: rng.randrange(40)]


def test_the_cli_exits_with_a_documented_code_on_random_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(109)
    codes = {}
    for k in range(160):
        command = ("apply", "eval", "induce", "select-examples")[k % 4]
        pairs = command != "apply" or rng.random() < 0.5
        data = f"data{k}.tsv"
        (tmp_path / data).write_text(cli_lines(rng, pairs), encoding="utf-8")
        if command in ("apply", "eval"):
            cascade = rng.random() < 0.3
            rule = f"rule{k}.json"
            text = cli_rule_text(rng)
            (tmp_path / rule).write_text(f"[{text}]" if cascade else text, encoding="utf-8")
            argv = [command, "--cascade" if cascade else "--rule", rule, "--pairs" if pairs else "--words", data]
        elif command == "induce":
            argv = [command, "--mode", "single", "--pairs", data, "--out", f"run{k}"]
        else:
            argv = [command, "--pairs", data, "--out", f"kept{k}.tsv"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err
        codes[code] = codes.get(code, 0) + 1
    assert min(codes.get(code, 0) for code in (0, 2, 3)) >= 10, codes
