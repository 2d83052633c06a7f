"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
and timings.  Where a criterion states a runtime budget the test asserts
it; determinism checks compare data artifacts byte for byte (manifest and
log files carry timestamps and are excluded by design).
"""

import json
import math
import random
import stat
import sys
import textwrap
import time

import pytest

from cascade_forge.cli import main as cli_main
from cascade_forge.metrics import edit_distance, reward
from cascade_forge.phonology import TokenizedWord, default_inventory, detokenize, tokenize
from cascade_forge.proposers import (
    ProposalRequest,
    builtin_proposer,
    ensemble_proposer,
    external_proposer,
    propose,
)
from cascade_forge.resources import strip_markers, tangkhulic_inventory, tangkhulic_laws
from cascade_forge.rule_engine import (
    Cascade,
    Insert,
    IsNothing,
    PhoneSet,
    Rule,
    Substitute,
    apply_rule,
    find_sites,
)
from cascade_forge.search import (
    SearchConfig,
    beam_search_cascade,
    induce_single_law,
    select_examples_ites,
)
from cascade_forge.synthgen import (
    LingSpec,
    SmpSpec,
    gen_ling_language,
    gen_multilaw_evalset,
    gen_smp_examples,
    gen_smp_law,
    sample_change_ops,
    task_rng,
)

from conftest import tree_bytes
from oracles import assert_case_reproduced, brute_distance, make_ground_truth_proposer, reference_apply


@pytest.fixture(scope="module")
def inv():
    return default_inventory()


def verdict(number: int, name: str, started: float, budget: float | None = None) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_c01_law_corpus_conformance():
    started = time.monotonic()
    corpus_inv = tangkhulic_inventory()
    laws = tangkhulic_laws(corpus_inv)
    assert len(laws) == 26
    checked = 0
    for law in laws:
        passed_all = True
        for environment, mapping in law.examples:
            word = tokenize(strip_markers(environment), corpus_inv)
            produced = detokenize(apply_rule(law.rule, word, corpus_inv))
            passed_all = passed_all and produced == strip_markers(mapping)
        assert passed_all, f"{law.language} {law.law}"
        checked += 1
    assert checked == 26
    verdict(1, "law corpus conformance 26/26", started, budget=1.0)


def test_c02_self_feeding_suppression(inv):
    started = time.monotonic()
    rng = random.Random(2026)
    symbols = [s for s in inv.symbols if len(s) == 1]
    passed = 0
    for i in range(200):
        x = rng.choice(symbols)
        y = rng.choice(symbols)
        kind = i % 4
        if kind == 0:  # insert x after x
            rule = Rule([PhoneSet({x}), IsNothing()], [1], [Insert((x,))])
        elif kind == 1:  # insert x before x
            rule = Rule([IsNothing(), PhoneSet({x})], [0], [Insert((x,))])
        elif kind == 2:  # double x
            rule = Rule([PhoneSet({x})], [0], [Substitute({x: (x, x)})])
        else:  # rewrite x to y+x, still containing the trigger
            rule = Rule([PhoneSet({x})], [0], [Substitute({x: (y, x)})])
        words = [
            TokenizedWord.from_phones([x]),
            TokenizedWord.from_phones([x, x, y]),
            TokenizedWord.from_phones([y, x, x, x]),
        ]
        for word in words:
            sites = find_sites(rule, word, inv)
            got = apply_rule(rule, word, inv)
            assert got == reference_apply(rule, word, inv)
            max_insert = max(
                (len(fn.phones) for fn in rule.mappings if isinstance(fn, Insert)),
                default=2,
            )
            assert len(got.phones) <= len(word.phones) + len(sites) * max_insert
        passed += 1
    assert passed == 200
    verdict(2, "self-feeding suppression 200/200", started, budget=5.0)


def test_c03_metrics_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(303)
    alphabet = ["a", "b", "c", "d", "e"]

    def rand_word(max_len=6):
        return TokenizedWord.from_phones(
            [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]
        )

    for _ in range(2000):
        a, b = rand_word(), rand_word()
        assert edit_distance(a, b) == brute_distance(a.phones, b.phones)

    for _ in range(1000):
        n = rng.randint(1, 5)
        sources = [rand_word(4) for _ in range(n)]
        targets = [rand_word(4) for _ in range(n)]
        if all(s == t for s, t in zip(sources, targets)):
            targets[0] = TokenizedWord.from_phones(sources[0].phones + ("e",))
        assert reward(sources, targets, targets) == 1.0
        assert reward(sources, sources, targets) == 0.0
        preds = [rand_word(4) for _ in range(n)]
        assert (reward(sources, preds, targets) == 1.0) == (
            [p.phones for p in preds] == [t.phones for t in targets]
        )
    verdict(3, "metrics oracle equivalence", started)


def test_c04_generator_self_consistency(inv):
    started = time.monotonic()
    smp_spec = SmpSpec(seed=4)
    for i in range(1000):
        rng = task_rng(4, "c4smp", i)
        rule = gen_smp_law(inv, smp_spec, rng)
        case = gen_smp_examples(inv, rule, 50, rng, name=f"c4-{i}")
        assert_case_reproduced(case, inv)
        counts = {}
        for pair in case.dataset.pairs:
            group = pair.id.rsplit("-", 1)[0]
            counts[group] = counts.get(group, 0) + 1
        assert counts == {"rand": 30, "prefix": 5, "suffix": 5, "mid2": 5, "mid3": 5}

    ling_spec = LingSpec(seed=4)
    for i in range(200):
        rng = task_rng(4, "c4ling", i)
        case = gen_ling_language(inv, ling_spec, rng, name=f"c4l-{i}")
        assert_case_reproduced(case, inv)
        sources = [p.source for p in case.dataset.pairs]
        forms = sources
        for rule in case.ground_truth.rules:
            applies = sum(1 for w in forms if find_sites(rule, w, inv))
            assert applies >= ling_spec.min_applicable
            forms = [apply_rule(rule, w, inv) for w in forms]
    verdict(4, "generator self-consistency 1000 smp + 200 ling", started, budget=120.0)


def test_c05_statistical_conformance(inv):
    started = time.monotonic()
    spec = SmpSpec(seed=5)
    sizes = {1: 0, 2: 0, 3: 0}
    boundary = 0
    n_laws = 10_000
    for i in range(n_laws):
        rng = task_rng(5, "c5", i)
        rule = gen_smp_law(inv, spec, rng)
        sizes[sum(isinstance(p, PhoneSet) for p in rule.predicates)] += 1
        first, last = rule.predicates[0], rule.predicates[-1]
        anchored = not isinstance(first, (PhoneSet, IsNothing)) or not isinstance(
            last, (PhoneSet, IsNothing)
        )
        boundary += anchored

    def within(observed, p, n):
        return abs(observed / n - p) <= 3 * math.sqrt(p * (1 - p) / n)

    assert within(sizes[1], 0.7, n_laws), sizes
    assert within(sizes[2], 0.2, n_laws), sizes
    assert within(sizes[3], 0.1, n_laws), sizes
    assert within(boundary, 0.25, n_laws), boundary

    slots = sample_change_ops(10_000, task_rng(5, "c5ops"))
    rates = {"delete": 1 / 8, "substitute": 1 / 8, "ins_before": 1 / 16, "ins_after": 1 / 16}
    for op, p in rates.items():
        count = sum(getattr(s, op) for s in slots)
        assert within(count, p, len(slots)), (op, count)
    verdict(5, "statistical conformance (3-sigma)", started)


def test_c06_search_recovery_with_oracle_proposer(inv):
    started = time.monotonic()
    pool_spec = SmpSpec(seed=6)
    pool = Cascade([
        gen_smp_law(inv, pool_spec, task_rng(6, "pool", i), name=f"pool-{i}")
        for i in range(25)
    ])
    cases = gen_multilaw_evalset(inv, pool, rules_per_set=5, sets=10,
                                 words_per_set=50, rng=task_rng(6, "sets"))
    assert len(cases) == 10
    solved = 0
    for case in cases:
        unchanged = sum(1 for p in case.dataset.pairs if p.source == p.target)
        assert unchanged >= 25
        sources = [p.source for p in case.dataset.pairs]
        handle = make_ground_truth_proposer(case.ground_truth, sources, inv)
        config = SearchConfig(beam_width=20, samples_per_step=1, max_steps=5)
        beams = beam_search_cascade(handle, case.dataset, config, inv=inv)
        if beams[0].reward == 1.0:
            solved += 1
    assert solved == 10
    verdict(6, "beam search recovery with oracle proposer 10/10", started, budget=120.0)


def test_c07_search_recovery_with_builtin_proposer(inv):
    started = time.monotonic()
    spec = SmpSpec(seed=7)
    passed = 0
    for i in range(100):
        rng = task_rng(7, "c7", i)
        rule = gen_smp_law(inv, spec, rng)
        assert sum(isinstance(p, PhoneSet) for p in rule.predicates) <= 3
        case = gen_smp_examples(inv, rule, 50, rng, name=f"c7-{i}")
        ranked = induce_single_law(builtin_proposer(), case.dataset, samples=20, inv=inv)
        if ranked and ranked[0][1].reward == 1.0:
            passed += 1
    rate = passed / 100
    assert rate >= 0.95, f"pass rate {rate}"
    verdict(7, f"builtin proposer recovery pass rate {rate:.2f}", started, budget=300.0)


def test_c08_ites_soundness(inv):
    started = time.monotonic()
    spec = SmpSpec(seed=8)
    for i in range(500):
        rng = task_rng(8, "c8", i)
        rule = gen_smp_law(inv, spec, rng)
        case = gen_smp_examples(inv, rule, 50, rng, name=f"c8-{i}")
        filtered, _ = select_examples_ites(case.dataset.pairs)
        changed = [p for p in case.dataset.pairs if p.source != p.target]
        kept = {p.id for p in filtered}
        assert all(p.id in kept for p in changed)
        full_pass = all(
            apply_rule(rule, p.source, inv) == p.target for p in case.dataset.pairs
        )
        filtered_pass = all(
            apply_rule(rule, p.source, inv) == p.target for p in filtered
        )
        assert full_pass == filtered_pass
    verdict(8, "example-selection soundness 500/500", started)


def test_c09_cli_determinism(tmp_path, capsys):
    started = time.monotonic()
    (tmp_path / "pairs.tsv").write_text("kaj\tkej\naja\teje\nta\tta\n", encoding="utf-8")
    commands = [
        ["generate", "smp", "--laws", "4", "--n", "20", "--seed", "11"],
        ["generate", "multilaw", "--sets", "2", "--rules-per-set", "3",
         "--words", "10", "--pool-laws", "8", "--seed", "12"],
        ["induce", "--pairs", str(tmp_path / "pairs.tsv"), "--mode", "single",
         "--proposer", "builtin", "--seed", "13"],
    ]
    for index, command in enumerate(commands):
        outputs = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"cmd{index}{attempt}"
            code = cli_main([*command, "--out", str(out_dir)])
            capsys.readouterr()
            assert code == 0
            outputs.append(tree_bytes(out_dir, ("manifest.json", "log.txt")))
        assert outputs[0] == outputs[1], f"command {index} not reproducible"
        assert outputs[0], "no artifacts produced"
    verdict(9, "seeded commands byte-identical 3/3", started)


STUB_VALID_TEMPLATE = """
    import json, sys
    sys.stdin.readline()
    print(json.dumps({"v": 1, "programs": [%s]}))
"""


def _write_stub(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return [sys.executable, str(path)]


def test_c10_external_proposer_protocol(tmp_path, inv, monkeypatch):
    started = time.monotonic()
    word_pairs = ((tokenize("aj", inv), tokenize("ej", inv)),)
    request = ProposalRequest(word_pairs, 8)
    rule_a = json.dumps({
        "predicates": [{"kind": "phone_set", "phones": ["a"]}],
        "change_pos": [0],
        "mappings": [{"kind": "substitute", "map": {"a": ["e"]}}],
    })
    rule_b = json.dumps({
        "predicates": [{"kind": "phone_set", "phones": ["j"]}],
        "change_pos": [0],
        "mappings": [{"kind": "delete"}],
    })
    scenarios = 0

    # 1: two valid proposers pooled through an ensemble
    stub_a = _write_stub(tmp_path, "a.py", STUB_VALID_TEMPLATE % rule_a)
    stub_b = _write_stub(tmp_path, "b.py", STUB_VALID_TEMPLATE % rule_b)
    pooled = propose(
        ensemble_proposer([external_proposer(stub_a), external_proposer(stub_b)]),
        request, inv,
    )
    assert len(pooled.rules) == 2
    scenarios += 1

    # 2: empty program list
    stub_empty = _write_stub(tmp_path, "empty.py", STUB_VALID_TEMPLATE % "")
    empty = propose(external_proposer(stub_empty), request, inv)
    assert empty.rules == [] and empty.diagnostics == []
    scenarios += 1

    # 3: one valid and one schema-violating program
    bad = json.dumps({
        "predicates": [{"kind": "is_nothing"}],
        "change_pos": [0],
        "mappings": [{"kind": "delete"}],
    })
    stub_mixed = _write_stub(tmp_path, "mixed.py", STUB_VALID_TEMPLATE % f"{rule_a}, {bad}")
    mixed = propose(external_proposer(stub_mixed), request, inv)
    assert len(mixed.rules) == 1
    assert len(mixed.diagnostics) == 1
    scenarios += 1

    # 4: timeout
    stub_slow = _write_stub(tmp_path, "slow.py", """
        import sys, time
        sys.stdin.readline()
        time.sleep(30)
    """)
    monkeypatch.setenv("CASCADE_FORGE_PROPOSER_TIMEOUT_MS", "400")
    late = propose(external_proposer(stub_slow), request, inv)
    assert late.rules == []
    assert any("timed out" in d for d in late.diagnostics)
    scenarios += 1

    assert scenarios == 4
    verdict(10, "external proposer protocol 4/4", started)
