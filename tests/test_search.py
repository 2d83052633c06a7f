import functools
import json
import random
from collections import Counter
from dataclasses import replace

import pytest

import oracles
from cascade_forge import proposers
from cascade_forge.metrics import Dataset, ExamplePair, RewardReport, Scorer, reward_report
from cascade_forge.phonology import TokenizedWord, tokenize
from cascade_forge.proposers import (
    ProposalRequest,
    builtin_enumerative_propose,
    builtin_proposer,
    callable_proposer,
)
from cascade_forge.resources import strip_markers, tangkhulic_inventory, tangkhulic_laws
from cascade_forge.rule_engine import (
    Cascade,
    Delete,
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
    layout_rule,
    serialize_cascade,
    serialize_rule,
)
from cascade_forge.search import (
    SearchConfig,
    beam_search_cascade as beam_search,
    induce_single_law,
    select_examples_ites,
)
from cascade_forge.synthgen import (
    GenerationError,
    SmpSpec,
    gen_multilaw_evalset,
    gen_smp_examples,
    gen_smp_law,
    task_rng,
)

from oracles import dp_distance, make_ground_truth_proposer, reference_apply, reference_beam_search


def sub_rule(env, pos, old, new):
    predicates = []
    for i, phone in enumerate(env):
        if i:
            predicates.append(IsNothing())
        predicates.append(PhoneSet({phone}))
    return Rule(predicates, [2 * pos], [Substitute({old: (new,)})])


def dataset(inv, *items):
    return Dataset(
        [ExamplePair(tokenize(s, inv), tokenize(t, inv), f"p{i}") for i, (s, t) in enumerate(items)]
    )


# --- select_examples_ites ---------------------------------------------------------


def test_ites_drops_triggerless_identity_pair(tiny_inv):
    ds = dataset(tiny_inv, ("aj", "ej"), ("tu", "tu"))
    filtered, triggers = select_examples_ites(ds.pairs)
    assert [p.id for p in filtered] == ["p0"]
    assert {"a", "j"} <= triggers


def test_ites_keeps_identity_pair_with_trigger_phone(tiny_inv):
    ds = dataset(tiny_inv, ("aj", "ej"), ("ka", "ka"))
    filtered, triggers = select_examples_ites(ds.pairs)
    assert [p.id for p in filtered] == ["p0", "p1"]
    assert "a" in triggers


def test_ites_all_changed_is_identity_filter(tiny_inv):
    ds = dataset(tiny_inv, ("aj", "ej"), ("ak", "ek"))
    filtered, _ = select_examples_ites(ds.pairs)
    assert [p.id for p in filtered] == ["p0", "p1"]


def test_ites_all_identity_drops_everything(tiny_inv):
    ds = dataset(tiny_inv, ("aj", "aj"), ("tu", "tu"))
    filtered, triggers = select_examples_ites(ds.pairs)
    assert filtered == []
    assert triggers == set()


def test_ites_preserves_order(tiny_inv):
    ds = dataset(tiny_inv, ("tu", "tu"), ("aj", "ej"), ("ua", "ua"), ("ak", "ek"))
    filtered, _ = select_examples_ites(ds.pairs)
    assert [p.id for p in filtered] == ["p1", "p2", "p3"]


# --- induce_single_law ---------------------------------------------------------------


def test_induce_with_oracle_proposer(tiny_inv):
    truth = sub_rule("aj", 0, "a", "e")
    ds = dataset(tiny_inv, ("aj", "ej"), ("ka", "ka"), ("kaj", "kej"))
    ranked = induce_single_law(callable_proposer(lambda r: [truth]), ds, samples=5, inv=tiny_inv)
    assert ranked[0][0] == truth
    assert ranked[0][1].reward == 1.0 and ranked[0][1].passed


def test_induce_with_junk_proposer_scores_zero(tiny_inv):
    junk = sub_rule("b", 0, "b", "k")  # never applies to these words
    ds = dataset(tiny_inv, ("aj", "ej"))
    ranked = induce_single_law(callable_proposer(lambda r: [junk]), ds, samples=5, inv=tiny_inv)
    assert ranked[0][1].reward == 0.0
    assert not ranked[0][1].passed


def test_induce_ranks_a_rule_returned_under_two_names_once(tiny_inv):
    # Rule equality ignores the name: the copies are one candidate, counted
    # once in the ranking, under the first copy's name.
    truth = sub_rule("aj", 0, "a", "e")
    named = [replace(truth, name="x"), replace(truth, name="y")]
    ds = dataset(tiny_inv, ("aj", "ej"), ("kaj", "kej"))
    ranked = induce_single_law(callable_proposer(lambda r: named), ds, samples=5, inv=tiny_inv)
    assert [(rule.name, report.reward) for rule, report in ranked] == [("x", 1.0)]


def test_induce_empty_proposal(tiny_inv):
    ds = dataset(tiny_inv, ("aj", "ej"))
    assert induce_single_law(callable_proposer(lambda r: []), ds, inv=tiny_inv) == []


def test_induce_builtin_on_smp_case(default_inv):
    rng = task_rng(101, "induce", 0)
    law = gen_smp_law(default_inv, SmpSpec(), rng)
    case = gen_smp_examples(default_inv, law, 50, rng)
    ranked = induce_single_law(builtin_proposer(), case.dataset, samples=20, inv=default_inv)
    assert ranked[0][1].reward == 1.0


def test_induce_keeps_the_builtin_order_on_the_same_pairs(default_inv):
    # C07 law 72: two 5-predicate rules tie at reward 1.0, so any other
    # tie-break than the builtin's would change which one ranks first.
    rng = task_rng(7, "c7", 72)
    law = gen_smp_law(default_inv, SmpSpec(seed=7), rng)
    case = gen_smp_examples(default_inv, law, 50, rng, name="c7-72")
    request = ProposalRequest([(p.source, p.target) for p in case.dataset.pairs], 20)
    builtin = builtin_enumerative_propose(request)
    ranked = induce_single_law(builtin_proposer(), case.dataset, samples=20, inv=default_inv)
    assert [serialize_rule(rule) for rule, _ in ranked] == [serialize_rule(r) for r in builtin]
    assert [report.reward for _, report in ranked[:2]] == [1.0, 1.0]


def test_induce_scores_on_full_dataset_with_ites(tiny_inv):
    truth = sub_rule("a", 0, "a", "e")
    ds = dataset(tiny_inv, ("aj", "ej"), ("tu", "tu"), ("ku", "ku"))
    seen = {}

    def spy(request):
        seen["n"] = len(request.examples)
        return [truth]

    ranked = induce_single_law(callable_proposer(spy), ds, use_ites=True, inv=tiny_inv)
    assert seen["n"] == 1  # proposer saw only the changed pair
    assert ranked[0][1].per_pair == (0, 0, 0)  # scored on all three


def smp_cases(inv, label, count, n):
    """Seeded smp cases with ``n`` pairs each, skipping laws the generator gives up on."""
    for i in range(count):
        rng = task_rng(21, label, i)
        law = gen_smp_law(inv, SmpSpec(), rng)
        try:
            yield gen_smp_examples(inv, law, n, rng)
        except GenerationError:
            continue


def test_single_induction_applies_each_rule_to_each_source_once(default_inv, monkeypatch):
    # The builtin ranks its pool on the request's scorer, and induction ranks
    # on that same scorer, so it finds every report it needs already made.
    applied = Counter()
    real = proposers.apply_rule

    def counting(rule, word, inv=None, sites=None):
        applied[rule, id(word)] += 1
        return real(rule, word, inv, sites)

    monkeypatch.setattr(proposers, "apply_rule", counting)
    checked = 0
    for case in smp_cases(default_inv, "apply-once", 6, 50):
        applied.clear()
        ranked = induce_single_law(builtin_proposer(), case.dataset, samples=20, inv=default_inv)
        assert ranked and applied
        assert max(applied.values()) == 1
        checked += 1
    assert checked >= 5


def test_single_induction_with_ites_reports_on_a_fresh_full_scorer(default_inv):
    inv = default_inv
    checked = 0
    for case in smp_cases(inv, "ites-fresh", 6, 50):
        ds = case.dataset
        filtered, _ = select_examples_ites(ds.pairs)
        assert 0 < len(filtered) < len(ds)  # the proposer sees fewer pairs
        ranked = induce_single_law(builtin_proposer(), ds, samples=20, use_ites=True, inv=inv)
        fresh = Scorer(ds.sources, ds.targets)
        assert ranked
        for rule, report in ranked:
            assert report == fresh.report([apply_rule(rule, s, inv) for s in ds.sources])
        checked += 1
    assert checked >= 5


@pytest.fixture
def brute_distance(monkeypatch):
    """The oracle's recursive distance with its recursion memoised, fast enough for whole words."""
    monkeypatch.setattr(oracles, "brute_distance", functools.cache(oracles.brute_distance))
    return oracles.brute_distance


def ranking_from_scratch(rules, pairs, inv, distance):
    """``rank_rules`` rebuilt from the oracles: no ``Scorer``, anchor or memo."""
    original = sum(distance(s.phones, t.phones) for s, t in pairs)
    reports = {}
    for rule in rules:
        per_pair = tuple(distance(reference_apply(rule, s, inv).phones, t.phones) for s, t in pairs)
        remaining = sum(per_pair)
        if original == 0:
            value = 1.0 if remaining == 0 else 1.0 - remaining
        else:
            value = 1.0 - remaining / original
        reports.setdefault(rule, RewardReport(per_pair, original, remaining, value, remaining == 0))
    order = sorted(reports, key=lambda r: (-reports[r].reward, len(r.predicates), serialize_rule(r)))
    return [(rule, reports[rule]) for rule in order]


@pytest.mark.parametrize("use_ites", [False, True])
def test_single_induction_equals_a_ranking_from_scratch(default_inv, brute_distance, use_ites):
    # The builtin's pool is taken as a set: the oracles rank it on the pairs
    # the proposer saw, keep the top 20, and rank those on every pair.
    inv = default_inv
    checked = 0
    for case in smp_cases(inv, "scratch-rank", 16, 30):
        pairs = [(p.source, p.target) for p in case.dataset.pairs]
        seen = pairs
        if use_ites:
            filtered, _ = select_examples_ites(case.dataset.pairs)
            seen = [(p.source, p.target) for p in filtered] or pairs
        pool = builtin_enumerative_propose(ProposalRequest(seen, 1))
        chosen = [rule for rule, _ in ranking_from_scratch(pool, seen, inv, brute_distance)[:20]]
        expected = ranking_from_scratch(chosen, pairs, inv, brute_distance)
        got = induce_single_law(builtin_proposer(), case.dataset, samples=20, use_ites=use_ites, inv=inv)
        assert got == expected
        checked += 1
    assert checked >= 12


def test_builtin_recovers_at_least_23_of_the_26_tangkhulic_laws_in_sample():
    # Each law's own examples, with the corpus inventory: a speed-up must not
    # lower this floor silently.
    inv = tangkhulic_inventory()
    perfect = empty = 0
    for law in tangkhulic_laws(inv):
        ds = Dataset(
            ExamplePair(tokenize(strip_markers(env), inv), tokenize(strip_markers(out), inv), f"p{i}")
            for i, (env, out) in enumerate(law.examples)
        )
        ranked = induce_single_law(builtin_proposer(), ds, inv=inv)
        empty += not ranked
        perfect += bool(ranked) and ranked[0][1].reward == 1.0
    assert empty == 0 and perfect >= 23, (perfect, empty)


def test_builtin_beam_search_recovers_all_20_seed_0_multilaw_cascades(default_inv):
    # The generate-multilaw corpus at seed 0 (a 25-law pool, 20 sets of 5
    # laws over 20 words), searched as multilaw-beam searches it.
    pool = Cascade(gen_smp_law(default_inv, SmpSpec(), task_rng(0, "pool", i)) for i in range(25))
    cases = gen_multilaw_evalset(default_inv, pool, 5, 20, 20, task_rng(0, "multilaw"))
    config = SearchConfig(beam_width=20, samples_per_step=1, max_steps=5)
    solved = sum(
        beam_search(builtin_proposer(), case.dataset, config, inv=default_inv)[0].reward == 1.0 for case in cases
    )
    assert solved == 20


# --- beam search against the reference -------------------------------------------------


def _beams(hypotheses):
    return [(serialize_cascade(h.cascade), h.reward, h.forms, h.step) for h in hypotheses]


def test_builtin_beam_search_equals_the_reference_search(default_inv):
    # multilaw-beam's shape: 5-law cascades over 20 words, beam 20 x 1 sample.
    pool = Cascade(gen_smp_law(default_inv, SmpSpec(), task_rng(3, "pool", i)) for i in range(25))
    cases = gen_multilaw_evalset(default_inv, pool, 5, 20, 6, task_rng(3, "reference-beam"))
    config = SearchConfig(beam_width=20, samples_per_step=1, max_steps=5)
    for case in cases:
        got = _beams(beam_search(builtin_proposer(), case.dataset, config, inv=default_inv))
        assert got == reference_beam_search(builtin_enumerative_propose, case.dataset, config, default_inv)


def _random_search_rule(rng, alphabet):
    """A rule over 1-2 phone slots, each a phone set or a negated one (so
    some rules have no anchor), with optional word-edge conditions, one
    delete or substitute and sometimes an insert."""
    preds = []
    for _ in range(rng.randint(1, 2)):
        phones = rng.sample(alphabet, rng.randint(1, 2))
        preds.append(Not(PhoneSet(phones)) if rng.random() < 0.3 else PhoneSet(phones))
    if rng.random() < 0.3:
        preds.insert(0, rng.choice((WordStart(), Not(WordStart()))))
    if rng.random() < 0.3:
        preds.append(rng.choice((WordEnd(), Not(WordEnd()))))
    slot = rng.choice([k for k, p in enumerate(preds) if isinstance(getattr(p, "inner", p), PhoneSet)])
    change = Delete() if rng.random() < 0.4 else Substitute({phone: (rng.choice(alphabet),) for phone in alphabet})
    inserts = {rng.randint(0, len(preds)): (rng.choice(alphabet),)} if rng.random() < 0.3 else {}
    return layout_rule(preds, {slot: change}, inserts)


def _seeded_proposer(alphabet):
    """A callable whose reply is a function of the request alone: valid
    rules with and without an anchor, invalid ones, and a rule under two names."""
    invalid = (Rule([PhoneSet(set())], [0], [Delete()]), Rule([PhoneSet({"ʘ"})], [0], [Delete()]))

    def propose(request):
        rng = random.Random(f"{request.step_index}:{[source.tokens for source, _ in request.examples]}")
        rules = []
        for _ in range(rng.randint(0, 4)):
            rules.append(rng.choice(invalid) if rng.random() < 0.2 else _random_search_rule(rng, alphabet))
        if rules and rng.random() < 0.3:
            twin = rules[-1]
            rules.insert(rng.randint(0, len(rules)), Rule(twin.predicates, twin.change_pos, twin.mappings, "twin"))
        return rules

    return propose


def test_beam_search_equals_the_reference_search_on_random_data(tiny_inv):
    rng = random.Random("reference-beam")
    settings = set()
    for i in range(400):
        alphabet = rng.sample(("a", "e", "i", "u", "t", "k", "s"), rng.randint(4, 6))
        sources = [
            TokenizedWord.from_phones(rng.choices(alphabet, k=rng.randint(0, 5))) for _ in range(rng.randint(2, 7))
        ]
        targets = sources
        for _ in range(rng.randint(1, 2)):
            hidden = _random_search_rule(rng, alphabet)
            targets = [reference_apply(hidden, word, tiny_inv) for word in targets]
        ds = Dataset(ExamplePair(s, t, f"p{k}") for k, (s, t) in enumerate(zip(sources, targets)))
        config = SearchConfig(
            beam_width=rng.randint(1, 5),
            samples_per_step=rng.randint(1, 3),
            max_steps=rng.randint(1, 3),
            early_stop_on_perfect=rng.random() < 0.5,
        )
        use_ites = rng.random() < 0.5
        settings.add((config.early_stop_on_perfect, use_ites))
        fn = _seeded_proposer(alphabet)
        got = _beams(beam_search(callable_proposer(fn), ds, config, inv=tiny_inv, use_ites=use_ites))
        assert got == reference_beam_search(fn, ds, config, tiny_inv, use_ites), i
    assert len(settings) == 4


# --- beam search -----------------------------------------------------------------------


def test_beam_search_degenerate_single_step(tiny_inv):
    from cascade_forge.metrics import reward

    truth = sub_rule("aj", 0, "a", "e")
    ds = dataset(tiny_inv, ("aj", "ej"), ("kaj", "kej"))
    cfg = SearchConfig(beam_width=1, samples_per_step=1, max_steps=1)
    beams = beam_search(callable_proposer(lambda r: [truth]), ds, cfg, inv=tiny_inv)
    assert len(beams) == 1
    assert beams[0].reward == 1.0
    assert len(beams[0].cascade) == 1
    # hypothesis reward is recomputable from its forms
    assert beams[0].reward == reward(ds.sources, list(beams[0].forms), ds.targets)


def test_beam_search_keeps_the_forms_a_rule_cannot_reach(tiny_inv):
    # Only "kaj" holds the anchor "j"; "kat" holds "a" but no "j".
    ds = dataset(tiny_inv, ("kaj", "kej"), ("kat", "ket"), ("tu", "tu"))
    cfg = SearchConfig(beam_width=1, samples_per_step=1, max_steps=1)
    (beam,) = beam_search(callable_proposer(lambda r: [sub_rule("aj", 0, "a", "e")]), ds, cfg, inv=tiny_inv)
    assert len(beam.cascade) == 1
    assert [f.surface for f in beam.forms] == ["kej", "kat", "tu"]
    assert beam.forms[1] is ds.pairs[1].source and beam.forms[2] is ds.pairs[2].source


def test_beam_search_builds_one_scorer(tiny_inv, monkeypatch):
    built = []
    real = Scorer.__init__

    def counting(self, sources, targets):
        built.append(self)
        real(self, sources, targets)

    monkeypatch.setattr(Scorer, "__init__", counting)
    ds = dataset(tiny_inv, ("aj", "ej"), ("kat", "ket"))
    cfg = SearchConfig(beam_width=2, samples_per_step=1, max_steps=2, early_stop_on_perfect=False)
    beam_search(callable_proposer(lambda r: [sub_rule("a", 0, "a", "e")]), ds, cfg, inv=tiny_inv)
    assert len(built) == 1


def test_beam_search_expansion_counts(tiny_inv):
    calls = []

    def proposer(request):
        calls.append(request.num_samples)
        return [sub_rule("a", 0, "a", "e")]

    ds = dataset(tiny_inv, ("aj", "ij"), ("ka", "ki"))
    cfg = SearchConfig(beam_width=20, samples_per_step=1, max_steps=2,
                       early_stop_on_perfect=False)
    beams = beam_search(callable_proposer(proposer), ds, cfg, inv=tiny_inv)
    # one proposal request per live beam per step, one sample each
    assert all(n == 1 for n in calls)
    assert len(beams) <= 20


def test_beam_search_recovers_three_rule_cascade(tiny_inv):
    truth = Cascade([
        sub_rule("aj", 0, "a", "e"),
        sub_rule("ej", 0, "e", "i"),
        sub_rule("k", 0, "k", "t"),
    ])
    ds_words = ["kaj", "aju", "kak", "uu"]
    sources = [tokenize(w, tiny_inv) for w in ds_words]
    targets = [apply_cascade(truth, w, tiny_inv)[0] for w in sources]
    ds = Dataset([
        ExamplePair(s, t, f"w{i}") for i, (s, t) in enumerate(zip(sources, targets))
    ])
    handle = make_ground_truth_proposer(truth, sources, tiny_inv)
    cfg = SearchConfig(beam_width=4, samples_per_step=1, max_steps=5)
    beams = beam_search(handle, ds, cfg, inv=tiny_inv)
    best = beams[0]
    assert best.reward == 1.0
    assert len(best.cascade) <= 3


def test_beam_search_reward_monotone_with_stand_pat(tiny_inv, tmp_path):
    # a proposer that suggests progressively harmful rules: reward must not regress
    harmful = sub_rule("e", 0, "e", "b")

    def proposer(request):
        return [harmful]

    truth = sub_rule("aj", 0, "a", "e")
    ds = dataset(tiny_inv, ("aj", "ej"), ("ej", "ej"))
    cfg = SearchConfig(beam_width=3, samples_per_step=1, max_steps=4,
                       early_stop_on_perfect=False)
    run_dir = tmp_path / "run"
    beams = beam_search(callable_proposer(proposer), ds, cfg, inv=tiny_inv,
                        run_dir=str(run_dir))
    steps = sorted((run_dir / "beams").glob("step_*.json"))
    assert len(steps) == 4
    best_rewards = [max(h["reward"] for h in json.loads(p.read_text())) for p in steps]
    for earlier, later in zip(best_rewards, best_rewards[1:]):
        assert later >= earlier


@pytest.mark.parametrize("value", [2.5, True, "3", 0])
@pytest.mark.parametrize("field", ["beam_width", "samples_per_step", "max_steps"])
def test_search_config_limits_must_be_positive_integers(field, value):
    # A width of 2.5 was never reached, so the beam grew without bound.
    with pytest.raises(ValueError, match=f"^{field} must be a positive integer, got "):
        SearchConfig(**{field: value})


def test_beam_search_carries_forward_on_empty_proposals(tiny_inv):
    ds = dataset(tiny_inv, ("aj", "ej"))
    cfg = SearchConfig(beam_width=2, samples_per_step=1, max_steps=3,
                       early_stop_on_perfect=False)
    beams = beam_search(callable_proposer(lambda r: []), ds, cfg, inv=tiny_inv)
    assert len(beams) == 1
    assert beams[0].cascade.rules == ()
    assert beams[0].reward == 0.0


def test_beam_search_dedups_by_resulting_forms(tiny_inv):
    # two distinct rules with the same effect occupy one beam slot
    r1 = sub_rule("a", 0, "a", "e")
    r2 = sub_rule("aj", 0, "a", "e")

    def proposer(request):
        return [r1, r2]

    ds = dataset(tiny_inv, ("aj", "ij"))
    cfg = SearchConfig(beam_width=10, samples_per_step=2, max_steps=1,
                       early_stop_on_perfect=False)
    beams = beam_search(callable_proposer(proposer), ds, cfg, inv=tiny_inv)
    fingerprints = [tuple(w.tokens for w in b.forms) for b in beams]
    assert len(fingerprints) == len(set(fingerprints))
    assert len(beams) == 2  # the shared effect plus the stand-pat parent


def test_beam_search_early_stop(tiny_inv):
    truth = sub_rule("a", 0, "a", "e")
    calls = []

    def proposer(request):
        calls.append(request.step_index)
        return [truth]

    ds = dataset(tiny_inv, ("aj", "ej"))
    cfg = SearchConfig(beam_width=2, samples_per_step=1, max_steps=9)
    beam_search(callable_proposer(proposer), ds, cfg, inv=tiny_inv)
    assert calls == [0]


def test_beam_search_run_dir_layout(tiny_inv, tmp_path):
    truth = sub_rule("a", 0, "a", "e")
    ds = dataset(tiny_inv, ("aj", "ej"))
    run_dir = tmp_path / "run"
    beams = beam_search(
        callable_proposer(lambda r: [truth]), ds,
        SearchConfig(beam_width=2, samples_per_step=1, max_steps=3),
        inv=tiny_inv, run_dir=str(run_dir),
    )
    assert (run_dir / "best.json").exists()
    assert (run_dir / "log.txt").exists()
    assert sorted(p.name for p in (run_dir / "beams").iterdir()) == ["step_001.json"]
    best = json.loads((run_dir / "best.json").read_text())
    assert best["reward"] == 1.0


def test_beam_search_deterministic(default_inv):
    rng = task_rng(31, "beamdet", 0)
    law = gen_smp_law(default_inv, SmpSpec(), rng)
    case = gen_smp_examples(default_inv, law, 30, rng)
    cfg = SearchConfig(beam_width=5, samples_per_step=2, max_steps=2)
    runs = []
    for _ in range(2):
        beams = beam_search(builtin_proposer(), case.dataset, cfg, inv=default_inv)
        runs.append([(serialize_cascade(b.cascade), b.reward) for b in beams])
    assert runs[0] == runs[1]


def test_beam_search_scores_every_final_hypothesis_as_a_fresh_report(default_inv):
    # Successors are scored against their parent's forms and distances; the
    # result must be what scoring the final forms from scratch gives.
    rng = task_rng(37, "beamscore", 0)
    pool = Cascade([gen_smp_law(default_inv, SmpSpec(), rng, f"law-{k}") for k in range(3)])
    (case,) = gen_multilaw_evalset(default_inv, pool, 3, 1, 16, rng)
    sources, targets = case.dataset.sources, case.dataset.targets
    config = SearchConfig(beam_width=6, samples_per_step=3, max_steps=3, early_stop_on_perfect=False)
    beams = beam_search(builtin_proposer(), case.dataset, config, inv=default_inv)
    assert len(beams) > 1 and max(len(b.cascade) for b in beams) == 3
    for beam in beams:
        fresh = reward_report(sources, beam.forms, targets)
        assert (beam.reward, beam.per_pair) == (fresh.reward, fresh.per_pair)
        assert beam.per_pair == tuple(
            dp_distance(f.phones, t.phones) for f, t in zip(beam.forms, targets)
        )


# --- beam order ------------------------------------------------------------------------


def test_beam_order_tie_prefers_fewer_rules(tiny_inv):
    # Every cascade below leaves "at" one edit from "et", so all rewards tie.
    # [a>i, i>s] serializes before [a>u], yet the shorter cascades rank first.
    a_to_u, a_to_i, i_to_s = sub_rule("a", 0, "a", "u"), sub_rule("a", 0, "a", "i"), sub_rule("i", 0, "i", "s")

    def proposer(request):
        return [a_to_u, a_to_i] if request.step_index == 0 else [i_to_s]

    ds = dataset(tiny_inv, ("at", "et"))
    cfg = SearchConfig(beam_width=10, samples_per_step=2, max_steps=2, early_stop_on_perfect=False)
    beams = beam_search(callable_proposer(proposer), ds, cfg, inv=tiny_inv)
    assert serialize_cascade(Cascade([a_to_i, i_to_s])) < serialize_cascade(Cascade([a_to_u]))
    assert len({b.reward for b in beams}) == 1
    assert [b.cascade.rules for b in beams] == [(), (a_to_i,), (a_to_u,), (a_to_i, i_to_s)]
    assert [b.forms[0].surface for b in beams] == ["at", "it", "ut", "st"]


# --- ITES soundness on generated cases -----------------------------------------------


def test_ites_sound_for_generated_rules(default_inv):
    for i in range(25):
        rng = task_rng(37, "ites", i)
        law = gen_smp_law(default_inv, SmpSpec(), rng)
        case = gen_smp_examples(default_inv, law, 30, rng)
        filtered, _ = select_examples_ites(case.dataset.pairs)
        changed = [p for p in case.dataset.pairs if p.source != p.target]
        assert all(p in filtered for p in changed)
        # the ground truth passes on both views
        from cascade_forge.rule_engine import apply_rule
        for view in (case.dataset.pairs, filtered):
            assert all(apply_rule(law, p.source, default_inv) == p.target for p in view)
