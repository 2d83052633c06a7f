import random

import pytest

from cascade_forge.metrics import (
    Dataset,
    ExamplePair,
    RewardReport,
    Scorer,
    edit_distance,
    edit_script,
    pass_rate,
    reward,
    reward_at_m,
    reward_report,
)
from cascade_forge.phonology import TokenizedWord
from cascade_forge.rule_engine import Delete, PhoneSet, Substitute, apply_rule, layout_rule

from oracles import brute_distance, dp_distance, replay_script


def word(*phones):
    return TokenizedWord.from_phones(phones)


def random_word(rng, max_len=6, alphabet="abcde"):
    return word(*(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))))


# --- edit_distance ------------------------------------------------------------


def test_edit_distance_identity():
    assert edit_distance(word("k", "a", "t"), word("k", "a", "t")) == 0


def test_edit_distance_single_substitution():
    assert edit_distance(word("k", "a", "t"), word("k", "o", "t")) == 1


def test_edit_distance_pure_insertion():
    assert edit_distance(word(), word("a", "b")) == 2


def test_edit_distance_counts_phones_not_codepoints():
    assert edit_distance(word("ts̄", "a"), word("b", "a")) == 1


def test_edit_distance_matches_brute_force():
    rng = random.Random(41)
    for _ in range(500):
        a, b = random_word(rng), random_word(rng)
        assert edit_distance(a, b) == brute_distance(a.phones, b.phones)


def test_bit_parallel_distance_matches_the_full_dp():
    # Lengths around and past 64 phones, empty words, and phones of several
    # codepoints that share codepoints with single-codepoint phones.
    rng = random.Random(47)
    alphabet = ("a", "t", "s", "ts", "tʃʰ", "ŋ̊")
    lengths = (0, 1, 2, 63, 64, 65, 128, 130)
    for trial in range(300):
        length_a = rng.choice(lengths) if trial % 3 == 0 else rng.randint(0, 9)
        length_b = rng.choice(lengths) if trial % 4 == 0 else rng.randint(0, 9)
        letters = alphabet[: rng.randint(1, len(alphabet))]
        a = tuple(rng.choice(letters) for _ in range(length_a))
        b = tuple(rng.choice(letters) for _ in range(length_b))
        assert edit_distance(word(*a), word(*b)) == dp_distance(a, b), (a, b)
    assert edit_distance(word("ts"), word("t", "s")) == 2


def test_edit_distance_is_a_metric():
    rng = random.Random(43)
    words = [random_word(rng, max_len=5) for _ in range(40)]
    for a in words:
        for b in words:
            d = edit_distance(a, b)
            assert d == edit_distance(b, a)
            assert (d == 0) == (a.phones == b.phones)
    for _ in range(300):
        a, b, c = (rng.choice(words) for _ in range(3))
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


# --- summed distance (RewardReport.dist_pred_target) ------------------------------


def test_dist_identical_lists():
    words = [word("a"), word("b", "c")]
    report = Scorer(words, words).report(words)
    assert report.per_pair == (0, 0) and report.dist_pred_target == 0


def test_dist_sums_pairs():
    preds = [word("k", "a", "t"), word("i", "p")]
    targets = [word("k", "o", "t"), word("i")]
    report = Scorer(targets, targets).report(preds)
    assert report.per_pair == (1, 1) and report.dist_pred_target == 2


def test_dist_singleton_equals_edit_distance():
    a, b = word("a", "b"), word("b")
    assert Scorer([b], [b]).report([a]).dist_pred_target == edit_distance(a, b)


def test_dist_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        Scorer([word("a")], [word("b")]).report([word("a"), word("b")])


# --- reward ----------------------------------------------------------------------


def test_reward_perfect():
    sources = [word("k", "a", "t")]
    targets = [word("k", "o", "t")]
    assert reward(sources, targets, targets) == 1.0


def test_reward_zero_when_preds_equal_sources():
    sources = [word("k", "a", "t")]
    targets = [word("k", "o", "t")]
    assert reward(sources, sources, targets) == 0.0


def test_reward_equidistant_prediction():
    sources = [word("k", "a", "t")]
    targets = [word("k", "o", "t")]
    preds = [word("k", "i", "t")]
    assert reward(sources, preds, targets) == 0.0


def test_reward_can_go_negative():
    sources = [word("k", "a", "t")]
    targets = [word("k", "o", "t")]
    preds = [word("x", "y", "z")]
    assert reward(sources, preds, targets) < 0


def test_reward_zero_denominator_policy():
    sources = targets = [word("a", "b")]
    assert reward(sources, sources, targets) == 1.0
    worse = [word("a", "c", "d")]
    assert reward(sources, worse, targets) == 1.0 - 2


def test_reward_at_most_one():
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(1, 4)
        sources = [random_word(rng) for _ in range(n)]
        targets = [random_word(rng) for _ in range(n)]
        preds = [random_word(rng) for _ in range(n)]
        assert reward(sources, preds, targets) <= 1.0


def test_reward_invariant_under_joint_permutation():
    rng = random.Random(53)
    n = 6
    sources = [random_word(rng) for _ in range(n)]
    targets = [random_word(rng) for _ in range(n)]
    preds = [random_word(rng) for _ in range(n)]
    base = reward(sources, preds, targets)
    for _ in range(10):
        perm = list(range(n))
        rng.shuffle(perm)
        assert reward([sources[i] for i in perm], [preds[i] for i in perm],
                      [targets[i] for i in perm]) == base


def test_reward_report_fields():
    sources = [word("k", "a", "t"), word("i", "p")]
    targets = [word("k", "o", "t"), word("i")]
    report = reward_report(sources, sources, targets)
    assert report.per_pair == (1, 1)
    assert report.dist_source_target == 2
    assert report.dist_pred_target == 2
    assert report.reward == 0.0
    assert not report.passed
    perfect = reward_report(sources, targets, targets)
    assert perfect.passed and perfect.reward == 1.0


# --- Scorer ---------------------------------------------------------------------------

PHONES = ("a", "b", "c", "ts", "tʃʰ")


def random_phone_word(rng, max_len=7):
    return word(*(rng.choice(PHONES) for _ in range(rng.randint(0, max_len))))


def random_rule(rng):
    """A phone-set rule of 1-3 units with random deletes, substitutions and inserts."""
    preds, changes = [], {}
    for i in range(rng.randint(1, 3)):
        phone = rng.choice(PHONES)
        preds.append(PhoneSet({phone}))
        kind = rng.choice([None, None, "del", "sub"])
        if kind == "del":
            changes[i] = Delete()
        elif kind == "sub":
            new = tuple(rng.choice(PHONES) for _ in range(rng.randint(1, 2)))
            changes[i] = Substitute({phone: new})
    inserts = {}
    if rng.random() < 0.3 or not changes:
        inserts[rng.randint(0, len(preds))] = (rng.choice(PHONES),)
    return layout_rule(preds, changes, inserts)


def dp_report(sources, preds, targets):
    """The reward report recomputed from scratch with the full-matrix DP."""
    per_pair = tuple(dp_distance(p.phones, t.phones) for p, t in zip(preds, targets))
    original = sum(dp_distance(s.phones, t.phones) for s, t in zip(sources, targets))
    remaining = sum(per_pair)
    if original == 0:
        value = 1.0 if remaining == 0 else 1.0 - remaining
    else:
        value = 1.0 - remaining / original
    return RewardReport(per_pair, original, remaining, value, remaining == 0)


def test_scorer_report_matches_a_from_scratch_dp_reward():
    rng = random.Random(61)
    reused = 0
    for trial in range(300):
        n = rng.randint(1, 6)
        sources = [random_phone_word(rng) for _ in range(n)]
        if trial % 5 == 0:
            targets = [word(*s.phones) for s in sources]  # sources equal targets
        else:
            targets = [random_phone_word(rng) for _ in range(n)]
        scorer = Scorer(sources, targets)
        forms, prior = sources, None
        for _ in range(3):  # a short cascade, each step scored against the last
            rule = random_rule(rng)
            preds = [apply_rule(rule, form) for form in forms]
            reused += sum(pred is form for pred, form in zip(preds, forms))
            report = scorer.report(preds, prior)
            assert repr(report) == repr(dp_report(sources, preds, targets))
            assert report == reward_report(sources, preds, targets)
            forms, prior = preds, (preds, report.per_pair)
        # equal to the sources, but other objects: measured, not reused
        copies = [TokenizedWord(s.tokens) for s in sources]
        assert scorer.report(copies) == dp_report(sources, copies, targets)
    assert reused > 100  # the identity path was exercised


def test_scorer_reuses_a_distance_only_for_the_very_prior_object():
    sources = [word("k", "a"), word("t")]
    targets = [word("k", "e"), word("t")]
    scorer = Scorer(sources, targets)
    stale = (sources, (7, 7))  # known distances that are deliberately wrong
    assert scorer.report([sources[0], word("t")], stale).per_pair == (7, 0)
    assert scorer.report([word("k", "a"), sources[1]]).per_pair == (1, 0)


def test_scorer_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        Scorer([word("a")], [word("a"), word("b")])
    with pytest.raises(ValueError, match="length mismatch"):
        Scorer([word("a")], [word("b")]).report([])
    with pytest.raises(ValueError, match="length mismatch"):
        reward_report([word("a")], [word("a"), word("b")], [word("b")])


# --- reward@m and pass rate ---------------------------------------------------------


def test_reward_at_m_mean_of_top():
    assert reward_at_m([[1.0, 0.5, 0.0]], 2) == 0.75


def test_reward_at_1_is_best():
    assert reward_at_m([[0.2, 0.9, 0.4]], 1) == 0.9


def test_reward_at_m_all_perfect():
    for m in (1, 2, 3, 7):
        assert reward_at_m([[1.0, 1.0, 1.0]], m) == 1.0


def test_reward_at_m_pads_short_instances():
    # an instance with fewer than m hypotheses contributes the mean of all it has
    assert reward_at_m([[1.0, 0.0]], 5) == 0.5


def test_reward_at_m_averages_instances():
    assert reward_at_m([[1.0], [0.0]], 1) == 0.5


def test_reward_at_m_refuses_an_instance_without_rewards():
    with pytest.raises(ValueError, match="^instance with no hypothesis rewards$"):
        reward_at_m([[1.0], []], 1)


def test_reward_at_m_non_increasing_in_m():
    rng = random.Random(59)
    for _ in range(100):
        instances = [
            sorted((rng.uniform(-1, 1) for _ in range(rng.randint(1, 8))), reverse=True)
            for _ in range(rng.randint(1, 5))
        ]
        values = [reward_at_m(instances, m) for m in range(1, 9)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12


def test_reward_at_m_validations():
    with pytest.raises(ValueError):
        reward_at_m([[1.0]], 0)
    with pytest.raises(ValueError):
        reward_at_m([], 1)


def test_pass_rate():
    assert pass_rate([1.0, 1.0, 0.5]) == pytest.approx(2 / 3)
    assert pass_rate([1.0, 1.0]) == 1.0
    assert pass_rate([0.9999]) == 0.0
    with pytest.raises(ValueError):
        pass_rate([])


# --- datasets -------------------------------------------------------------------------


def test_dataset_requires_unique_ids():
    pair = ExamplePair(word("a"), word("b"), "x")
    with pytest.raises(ValueError, match="duplicate"):
        Dataset([pair, pair])
    with pytest.raises(ValueError, match="no pairs"):
        Dataset([])


@pytest.mark.parametrize("side", ["source", "target"])
def test_example_pair_rejects_a_raw_string_naming_the_pair(side):
    words = {"source": word("k", "a"), "target": word("k", "e")}
    words[side] = "ka"
    with pytest.raises(TypeError, match=f"pair 'p7': {side} is a str"):
        ExamplePair(words["source"], words["target"], "p7")


def test_dataset_rejects_an_item_that_is_not_a_pair():
    pair = ExamplePair(word("a"), word("b"), "x")
    with pytest.raises(TypeError, match="dataset item 1 is a tuple"):
        Dataset([pair, (word("a"), word("b"))])


# --- edit scripts ----------------------------------------------------------------------


def test_edit_script_cost_equals_distance_and_replays():
    rng = random.Random(61)
    for _ in range(500):
        a, b = random_word(rng), random_word(rng)
        ops = edit_script(a.phones, b.phones)
        cost = sum(len(op.new) if op.kind == "ins" else 1 for op in ops)
        assert cost == edit_distance(a, b)
        assert replay_script(a.phones, ops) == b.phones
        assert all(x.pos <= y.pos and not (x.kind == y.kind == "ins" and x.pos == y.pos) for x, y in zip(ops, ops[1:]))


def test_edit_script_prefers_substitution():
    ops = edit_script(("a", "b"), ("c", "b"))
    assert [op.kind for op in ops] == ["sub"]
    assert ops[0].pos == 0 and ops[0].old == "a" and ops[0].new == ("c",)


def test_edit_script_deletion_and_insertion():
    assert [op.kind for op in edit_script(("a", "b"), ("b",))] == ["del"]
    ins = edit_script(("b",), ("a", "b"))
    assert [op.kind for op in ins] == ["ins"]
    assert ins[0].pos == 0 and ins[0].new == ("a",)


def test_edit_script_coalesces_insertions():
    ops = edit_script(("b",), ("a", "a", "b"))
    assert len(ops) == 1
    assert ops[0].kind == "ins" and ops[0].new == ("a", "a")


def test_edit_script_leftmost_preference():
    # deleting one of two equal phones: the leftmost is chosen
    ops = edit_script(("a", "a"), ("a",))
    assert ops == [ops[0]]
    assert ops[0].kind == "del" and ops[0].pos == 0


def test_edit_script_is_deterministic():
    rng = random.Random(67)
    for _ in range(100):
        a, b = random_word(rng), random_word(rng)
        assert edit_script(a.phones, b.phones) == edit_script(a.phones, b.phones)
