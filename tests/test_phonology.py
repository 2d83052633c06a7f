import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cascade_forge.phonology import (
    BOUNDARY,
    MAX_FEATURES,
    SEPARATOR,
    Inventory,
    InventoryError,
    Phone,
    TokenizedWord,
    TokenizeError,
    default_inventory,
    detokenize,
    load_inventory,
    realize_feature_change,
    requirement_masks,
    tokenize,
    validate_word,
)
from oracles import feature_holds


def test_load_inventory_basic():
    inv = load_inventory("a\t0,1,0\nj\t1,0,0\nk\t0,0,1\n")
    assert len(inv) == 3
    assert inv.num_features == 3
    assert inv.symbols == ("a", "j", "k")
    assert inv.feature_names == ("f0", "f1", "f2")


def test_symbols_are_built_once(default_inv):
    # the generators read the symbol tuple on every call
    assert default_inv.symbols is default_inv.symbols
    assert default_inv.symbols == tuple(p.symbol for p in default_inv.phones)


def test_load_inventory_feature_names_and_comments():
    text = "# comment\n!feature high,low\na\t1,0\nb\t0,1\n"
    inv = load_inventory(text)
    assert inv.feature_names == ("high", "low")


def test_load_inventory_duplicate_symbol():
    with pytest.raises(InventoryError, match="duplicate"):
        load_inventory("a\t0\na\t1\n")


def test_load_inventory_reserved_symbols():
    for reserved in (BOUNDARY, SEPARATOR):
        with pytest.raises(InventoryError, match="reserved"):
            load_inventory(f"a\t0\n{reserved}\t0\n")


def test_load_inventory_ragged_vectors():
    with pytest.raises(InventoryError, match="ragged"):
        load_inventory("a\t0,1\nb\t0\n")


def test_load_inventory_feature_name_count_mismatch():
    with pytest.raises(InventoryError):
        load_inventory("!feature one,two,three\na\t0,1\n")


def test_load_inventory_bad_value():
    with pytest.raises(InventoryError):
        load_inventory("a\t0,2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("a\t1,0\nb 1,0\n", "line 2: expected 'symbol<TAB>values', got 'b 1,0'"),
        ("a\t1,x", "line 1: non-integer feature value in '1,x'"),
    ],
)
def test_load_inventory_names_a_malformed_line(text, message):
    with pytest.raises(InventoryError) as raised:
        load_inventory(text)
    assert str(raised.value) == message


def test_tokenize_simple(tiny_inv):
    word = tokenize("aj", tiny_inv)
    assert word.tokens == ("#", "@", "a", "@", "j", "@", "#")
    assert word.phones == ("a", "j")


def test_tokenize_empty(tiny_inv):
    assert tokenize("", tiny_inv).tokens == ("#", "@", "#")


def _all_segmentations(word, symbols):
    if not word:
        return [()]
    results = []
    for symbol in symbols:
        if word.startswith(symbol):
            for rest in _all_segmentations(word[len(symbol):], symbols):
                results.append((symbol, *rest))
    return results


def _greedy_longest(word, symbols):
    phones = []
    while word:
        match = max((s for s in symbols if word.startswith(s)), key=len, default=None)
        if match is None:
            return None
        phones.append(match)
        word = word[len(match):]
    return tuple(phones)


def test_tokenize_prefers_longest_symbol(tiny_inv):
    word = tokenize("tsa", tiny_inv)
    assert word.phones == ("ts", "a")
    # exhaustive oracle: both parses exist, greedy longest-first picks (ts, a)
    parses = _all_segmentations("tsa", tiny_inv.symbols)
    assert ("t", "s", "a") in parses and ("ts", "a") in parses
    assert _greedy_longest("tsa", tiny_inv.symbols) == ("ts", "a")


def test_tokenize_matches_greedy_oracle_on_random_words(tiny_inv):
    rng = random.Random(11)
    for _ in range(300):
        surface = "".join(rng.choice(tiny_inv.symbols) for _ in range(rng.randint(0, 6)))
        assert tokenize(surface, tiny_inv).phones == _greedy_longest(surface, tiny_inv.symbols)


def test_tokenize_unsegmentable_reports_offset(tiny_inv):
    with pytest.raises(TokenizeError) as exc:
        tokenize("aXj", tiny_inv)
    assert exc.value.offset == 1
    assert "offset 1" in str(exc.value)


def test_detokenize_inverse(tiny_inv):
    assert detokenize(TokenizedWord(("#", "@", "a", "@", "j", "@", "#"))) == "aj"
    assert detokenize(TokenizedWord(("#", "@", "#"))) == ""


def test_detokenize_rejects_malformed():
    for tokens in [("#", "@"), ("@", "a", "#"), ("#", "a", "#"), ("#", "@", "#", "@", "#")]:
        with pytest.raises(Exception):
            detokenize(TokenizedWord(tokens))


def test_roundtrip_random_inventory_words(default_inv):
    rng = random.Random(99)
    for _ in range(1000):
        phones = [rng.choice(default_inv.symbols) for _ in range(rng.randint(0, 7))]
        word = TokenizedWord.from_phones(phones)
        surface = detokenize(word)
        again = tokenize(surface, default_inv)
        # greedy segmentation may merge adjacent symbols, but surfaces agree
        assert detokenize(again) == surface
        # and canonical words tokenize back to themselves
        assert tokenize(detokenize(again), default_inv) == again


def test_canonical_layout_even_odd_invariant(default_inv):
    rng = random.Random(5)
    for _ in range(100):
        phones = [rng.choice(default_inv.symbols) for _ in range(rng.randint(0, 5))]
        word = TokenizedWord.from_phones(phones)
        validate_word(word, default_inv)
        for index, token in enumerate(word.tokens):
            if index % 2 == 1:
                assert token == SEPARATOR
            else:
                assert token == BOUNDARY or token not in (BOUNDARY, SEPARATOR)


def _holds(phone, reqs):
    """``Inventory.satisfies`` for ``phone`` and the requirement map ``reqs``."""
    return Inventory([phone]).satisfies(phone.symbol, requirement_masks(reqs.items()))


def test_feature_match_empty_requirements(default_inv):
    for phone in default_inv.phones:
        assert default_inv.satisfies(phone.symbol, requirement_masks(()))
    assert default_inv.matching_phones(()) == frozenset(default_inv.symbols)


def test_feature_match_basic():
    phone = Phone("x", (1, 0, 0))
    assert _holds(phone, {0: 1})
    assert not _holds(phone, {0: 1, 1: 1})
    assert _holds(phone, {0: 1, 1: 0, 2: 0})


def test_feature_match_unspecified_never_satisfies():
    phone = Phone("x", (-1, 0, 1))
    assert not _holds(phone, {0: 0})
    assert not _holds(phone, {0: 1})
    # nor does requiring a value other than 0 or 1 match anything
    assert not _holds(phone, {0: -1})
    assert not _holds(phone, {2: 2})


def test_feature_match_monotone_under_growing_requirements():
    rng = random.Random(3)
    inv = default_inventory()
    for _ in range(200):
        phone = rng.choice(inv.phones)
        indices = rng.sample(range(inv.num_features), 6)
        reqs = {}
        previous = True
        for idx in indices:
            reqs[idx] = rng.choice((0, 1))
            current = inv.satisfies(phone.symbol, requirement_masks(reqs.items()))
            assert previous or not current  # once false, stays false
            previous = current


def test_feature_match_index_out_of_range():
    with pytest.raises(InventoryError, match="out of range"):
        Inventory([Phone("x", (0,))]).matching_phones(((4, 1),))


def test_realize_empty_changes_is_identity(default_inv):
    for phone in default_inv.phones[:20]:
        assert realize_feature_change(phone, {}, default_inv) is phone


def test_realize_exact_match_dominates(default_inv):
    p = default_inv.phone("p")
    b = default_inv.phone("b")
    voice = default_inv.feature_names.index("voice")
    assert realize_feature_change(p, {voice: 1}, default_inv) == b
    assert realize_feature_change(b, {voice: 0}, default_inv) == p


def test_realize_tie_breaks_by_inventory_order():
    inv = load_inventory("a\t0,0\nb\t1,1\nc\t0,1\nd\t1,0\n")
    # target (1, 0) from a via {0: 1} -> d matches exactly
    assert realize_feature_change(inv.phone("a"), {0: 1}, inv).symbol == "d"
    # target (1,1,0) from m: n and o are both at distance 1, m at 2; n declared first
    tie_inv = load_inventory("m\t0,0,0\nn\t1,1,1\no\t1,0,0\n")
    assert realize_feature_change(tie_inv.phone("m"), {0: 1, 1: 1}, tie_inv).symbol == "n"


def _random_inventory(rng):
    """A small inventory with many unspecified values and repeated vectors,
    so that distances tie often."""
    width = rng.randint(1, 6)
    phones = [
        Phone(f"p{i}", tuple(rng.choice((-1, -1, 0, 1)) for _ in range(width)))
        for i in range(rng.randint(1, 12))
    ]
    return Inventory(phones)


def test_realize_brute_force_oracle(default_inv):
    rng = random.Random(17)
    inventories = [default_inv] * 200 + [_random_inventory(rng) for _ in range(400)]
    ties = 0
    for inv in inventories:
        phone = rng.choice(inv.phones)
        changes = {rng.randrange(inv.num_features): rng.choice((0, 1))
                   for _ in range(rng.randint(1, 4))}
        got = realize_feature_change(phone, changes, inv)
        target = list(phone.features)
        for idx, value in changes.items():
            target[idx] = value
        distances = [
            sum(1 for i, v in enumerate(target) if v != -1 and c.features[i] != v)
            for c in inv.phones
        ]
        best = min(distances)
        ties += distances.count(best) > 1
        # ties go to the first phone in inventory order
        assert got is inv.phones[distances.index(best)]
    assert ties > 100


def test_matching_phones_agrees_with_feature_match(default_inv):
    rng = random.Random(31)
    inventories = [default_inv] + [_random_inventory(rng) for _ in range(60)]
    for inv in inventories:
        assert inv.matching_phones(()) == frozenset(inv.symbols)
        for _ in range(20):
            indices = rng.sample(range(inv.num_features), rng.randint(0, min(4, inv.num_features)))
            reqs = tuple(sorted((i, rng.choice((0, 1, 0, 1, -1, 2))) for i in indices))
            expected = frozenset(p.symbol for p in inv.phones if feature_holds(p.features, reqs))
            assert inv.matching_phones(reqs) == expected
        for index in range(inv.num_features):  # one index required to hold 0 and 1
            reqs = ((index, 0), (index, 1))
            assert not any(feature_holds(p.features, reqs) for p in inv.phones)
            assert inv.matching_phones(reqs) == frozenset()


@pytest.mark.parametrize("reqs", [
    ((3, 1),), ((0, 1), (3, 0)), ((-1, 1),), ((MAX_FEATURES, 1),), ((10**20, 1),),
])
def test_matching_phones_index_out_of_range(reqs):
    inv = load_inventory("a\t0,1,0\nb\t1,1,0\n")
    with pytest.raises(InventoryError, match="out of range"):
        inv.matching_phones(reqs)


def test_requirement_masks_give_an_unreachable_index_no_bit():
    # An index no inventory can hold costs no memory, however large.
    assert requirement_masks(((0, 1), (10**20, 1))) == (1, 0, sys.maxsize)
    assert requirement_masks(((MAX_FEATURES - 1, 0),)) == (0, 1 << (MAX_FEATURES - 1), MAX_FEATURES)


def test_inventory_rejects_more_than_max_features():
    Inventory([Phone("a", (0,) * MAX_FEATURES)])
    with pytest.raises(InventoryError, match="at most"):
        Inventory([Phone("a", (0,) * (MAX_FEATURES + 1))])


@pytest.mark.parametrize("changes, message", [
    ({3: 1}, "out of range"),
    ({-1: 1}, "out of range"),
    ({0: 2}, "0 or 1"),
    ({1.0: 1}, "out of range"),
    ({True: 1}, "out of range"),
])
def test_realize_rejects_bad_changes(changes, message):
    inv = load_inventory("a\t0,1,0\nb\t1,1,0\n")
    with pytest.raises(InventoryError, match=message):
        realize_feature_change(inv.phone("a"), changes, inv)


def test_realize_idempotent_when_changes_hold(default_inv):
    rng = random.Random(23)
    for _ in range(100):
        phone = rng.choice(default_inv.phones)
        changes = {rng.randrange(default_inv.num_features): rng.choice((0, 1))
                   for _ in range(rng.randint(1, 5))}
        once = realize_feature_change(phone, changes, default_inv)
        if feature_holds(once.features, changes.items()):
            assert realize_feature_change(once, changes, default_inv) == once


def test_default_inventory_shape(default_inv):
    assert 100 <= len(default_inv) <= 140
    assert default_inv.num_features == 24
    assert len(default_inv.feature_names) == 24
    vectors = {p.features for p in default_inv.phones}
    assert len(vectors) == len(default_inv)  # unique vectors


def test_default_inventory_matches_its_generator():
    root = Path(__file__).resolve().parent.parent
    built = subprocess.run(
        [sys.executable, str(root / "scripts" / "build_default_inventory.py")],
        capture_output=True, check=True, env={**os.environ, "PYTHONIOENCODING": "utf-8"},
    ).stdout
    assert built == (root / "src" / "cascade_forge" / "data" / "default_inventory.tsv").read_bytes()


def test_inventory_requires_phones():
    with pytest.raises(InventoryError):
        Inventory([])
