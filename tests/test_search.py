import json
from dataclasses import replace

from cascade_forge.metrics import Dataset, ExamplePair, reward_report
from cascade_forge.phonology import tokenize
from cascade_forge.proposers import (
    ProposalRequest,
    builtin_enumerative_propose,
    builtin_proposer,
    callable_proposer,
)
from cascade_forge.rule_engine import (
    Cascade,
    IsNothing,
    PhoneSet,
    Rule,
    Substitute,
    apply_cascade,
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
    SmpSpec,
    gen_multilaw_evalset,
    gen_smp_examples,
    gen_smp_law,
    task_rng,
)

from oracles import dp_distance, make_ground_truth_proposer


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
