"""Executable sound-law rules and cascades.

A rule is an environment (a list of predicates over consecutive tokens)
plus change positions and mapping functions.  Application is two-stage:
all match sites are detected on the unmodified input first, then every
mapping is applied at every recorded site.  Because detection never sees
material produced by the rule itself, a rule cannot feed its own
environment ("suppression of self-feeding"): inserting ``a`` after ``a``
in ``ba`` yields ``baa``, not an unbounded run of ``a``.

Each predicate kind decides its own token test (``Predicate.matches``)
and each mapping kind its own edit (``MappingFn.edit``).  When two
recorded sites would edit the same token index, the leftmost site wins and
the conflicting mapping is skipped.
Rules and cascades are immutable after construction and application is
pure, so everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from cascade_forge.phonology import (
    BOUNDARY,
    MAX_FEATURES,
    RESERVED_TOKENS,
    SEPARATOR,
    Inventory,
    TokenizedWord,
    requirement_masks,
)


class RuleError(ValueError):
    """Raised for structurally invalid rules."""


class RuleParseError(RuleError):
    """Raised for malformed rule JSON; carries a JSON-pointer-style location."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path


# --- predicates -------------------------------------------------------------


@dataclass(frozen=True)
class Predicate:
    def matches(self, token: str, is_first: bool, is_last: bool, inv: Inventory | None) -> bool:
        """Evaluate the predicate against one token at a known word position."""
        raise RuleError(f"unknown predicate {self!r}")


@dataclass(frozen=True)
class PhoneSet(Predicate):
    """Matches any phone token in the set."""

    phones: frozenset[str]

    def __init__(self, phones):
        object.__setattr__(self, "phones", frozenset(phones))

    def matches(self, token, is_first, is_last, inv):
        return token in self.phones


@dataclass(frozen=True)
class IsNothing(Predicate):
    """Matches exactly the separator token."""

    def matches(self, token, is_first, is_last, inv):
        return token == SEPARATOR


@dataclass(frozen=True)
class WordStart(Predicate):
    """Matches the boundary token in first position only."""

    def matches(self, token, is_first, is_last, inv):
        return token == BOUNDARY and is_first


@dataclass(frozen=True)
class WordEnd(Predicate):
    """Matches the boundary token in last position only."""

    def matches(self, token, is_first, is_last, inv):
        return token == BOUNDARY and is_last


@dataclass(frozen=True)
class FeatureReq(Predicate):
    """Matches phone tokens whose features satisfy the partial requirements.

    Needs an inventory at match time to resolve symbols to feature vectors;
    boundary and separator tokens, and tokens the inventory lacks, never
    satisfy it.  ``masks`` holds the requirements as bit masks
    (``phonology.requirement_masks``), built at construction so that
    matching a token is two mask tests; it takes no part in equality.
    """

    reqs: tuple[tuple[int, int], ...]  # sorted (feature index, value) pairs
    masks: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __init__(self, reqs):
        items = tuple(sorted(dict(reqs).items())) if not isinstance(reqs, tuple) else tuple(sorted(reqs))
        object.__setattr__(self, "reqs", items)
        object.__setattr__(self, "masks", requirement_masks(items))

    def matches(self, token, is_first, is_last, inv):
        if token == BOUNDARY or token == SEPARATOR:
            return False
        if inv is None:
            raise RuleError("feature predicates require an inventory to match")
        return inv.satisfies(token, self.masks)


@dataclass(frozen=True)
class Not(Predicate):
    inner: Predicate

    def matches(self, token, is_first, is_last, inv):
        return not self.inner.matches(token, is_first, is_last, inv)


# --- mapping functions ------------------------------------------------------


@dataclass(frozen=True)
class MappingFn:
    def edit(self, token: str) -> tuple[str, ...] | None:
        """The phones replacing the token, or None where the mapping skips it."""
        raise RuleError(f"unknown mapping function {self!r}")


@dataclass(frozen=True)
class Delete(MappingFn):
    def edit(self, token):
        return None if token == BOUNDARY or token == SEPARATOR else ()


@dataclass(frozen=True)
class Substitute(MappingFn):
    """Per-phone replacement; phones absent from the map are left alone."""

    mapping: tuple[tuple[str, tuple[str, ...]], ...]

    def __init__(self, mapping):
        if isinstance(mapping, tuple):
            items = tuple(sorted(mapping))
        else:
            items = tuple(sorted((k, tuple(v)) for k, v in dict(mapping).items()))
        object.__setattr__(self, "mapping", items)

    def get(self, phone: str) -> tuple[str, ...] | None:
        for key, value in self.mapping:
            if key == phone:
                return value
        return None

    def edit(self, token):
        return None if token == BOUNDARY or token == SEPARATOR else self.get(token)


@dataclass(frozen=True)
class Insert(MappingFn):
    phones: tuple[str, ...]

    def __init__(self, phones):
        object.__setattr__(self, "phones", tuple(phones))

    def edit(self, token):
        return self.phones if token == SEPARATOR else None


# --- rule / cascade ---------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One sound law: environment predicates, change positions, mappings.

    ``name`` is free-form metadata and excluded from equality.
    """

    predicates: tuple[Predicate, ...]
    change_pos: tuple[int, ...]
    mappings: tuple[MappingFn, ...]
    name: str | None = field(default=None, compare=False)

    def __init__(self, predicates, change_pos, mappings, name=None):
        object.__setattr__(self, "predicates", tuple(predicates))
        object.__setattr__(self, "change_pos", tuple(change_pos))
        object.__setattr__(self, "mappings", tuple(mappings))
        object.__setattr__(self, "name", name)

    def validate(self, inv: Inventory | None = None) -> None:
        """Raise ``RuleError`` unless the rule is well formed.

        Rule JSON, proposers and the generators all check rules here.
        Every predicate and mapping must be one of the kinds defined here,
        every change position and feature index an ``int`` (not a ``bool``),
        every substitute target a tuple, the name a string or ``None``, and
        every phone the rule names (phone sets, substitute keys and targets,
        inserts) a non-empty string other than ``#``/``@`` and, given an
        inventory, one of its phones.  So a rule that passes serializes to
        rule JSON that ``parse_rule`` reads back as an equal rule.
        """
        if self.name is not None and not isinstance(self.name, str):
            raise RuleError(f"rule name {self.name!r} is not a string")
        if not self.predicates:
            raise RuleError("rule has no predicates")
        if not self.change_pos:
            raise RuleError("rule has no change positions")
        if len(self.change_pos) != len(self.mappings):
            raise RuleError(
                f"{len(self.change_pos)} change positions but {len(self.mappings)} mappings"
            )
        for pos in self.change_pos:
            if type(pos) is not int:
                raise RuleError(f"change position {pos!r} is not an integer")
        if len(set(self.change_pos)) != len(self.change_pos):
            raise RuleError("duplicate change positions")
        for pos, fn in zip(self.change_pos, self.mappings):
            if not isinstance(fn, (Delete, Substitute, Insert)):
                raise RuleError(f"unknown mapping {fn!r} at position {pos}")
            if pos < 0 or pos >= len(self.predicates):
                raise RuleError(f"change position {pos} outside environment of length {len(self.predicates)}")
            pred = self.predicates[pos]
            if isinstance(fn, Insert):
                if not isinstance(pred, IsNothing):
                    raise RuleError(f"insert at position {pos} requires an is-nothing predicate")
                if not fn.phones:
                    raise RuleError("insert sequence is empty")
                for phone in fn.phones:
                    _check_phone(phone, f"insert at position {pos}", inv)
            elif not isinstance(pred, (PhoneSet, FeatureReq, Not)):
                # Any negation can match a phone token (Not(WordEnd()) does).
                raise RuleError(
                    f"{type(fn).__name__.lower()} at position {pos} requires a phone-matching predicate"
                )
            if isinstance(fn, Substitute):
                if not fn.mapping:
                    raise RuleError("substitute map is empty")
                keys = [key for key, _ in fn.mapping]
                if len(set(keys)) != len(keys):
                    # The JSON object keeps one target per key.
                    raise RuleError(f"substitute at position {pos} maps a phone twice")
                for key, value in fn.mapping:
                    if not isinstance(value, tuple):
                        raise RuleError(f"substitute target for {key!r} is not a tuple of phones")
                    if not value:
                        raise RuleError(f"substitute target for {key!r} is empty")
                    for phone in (key, *value):
                        _check_phone(phone, f"substitute at position {pos}", inv)
        for i, pred in enumerate(self.predicates):
            _validate_predicate(pred, i, inv)


def _check_phone(symbol: str, where: str, inv: Inventory | None) -> None:
    if not isinstance(symbol, str) or not symbol or symbol in RESERVED_TOKENS:
        raise RuleError(f"{where}: {symbol!r} is not a phone")
    if inv is not None and symbol not in inv:
        raise RuleError(f"{where}: phone {symbol!r} not in inventory")


def _is_bit(value: object) -> bool:
    """An int 0 or 1; ``True`` and ``1.0`` equal 1 but serialize differently."""
    return type(value) is int and value in (0, 1)


def _validate_predicate(pred: Predicate, position: int, inv: Inventory | None) -> None:
    if isinstance(pred, PhoneSet):
        if not pred.phones:
            raise RuleError(f"empty phone set at position {position}")
        # key=str: a phone that is not a string fails _check_phone, not the sort.
        for symbol in sorted(pred.phones, key=str):
            _check_phone(symbol, f"phone set at position {position}", inv)
    elif isinstance(pred, FeatureReq):
        indices = [idx for idx, _ in pred.reqs]
        if len(set(indices)) != len(indices):
            # The JSON object keeps one value per index.
            raise RuleError(f"feature requirement at position {position} names an index twice")
        for idx, value in pred.reqs:
            if type(idx) is not int:
                raise RuleError(f"feature index {idx!r} at position {position} is not an integer")
            if not _is_bit(value):
                raise RuleError(f"feature requirement value {value!r} at position {position}")
            if not 0 <= idx < (MAX_FEATURES if inv is None else inv.num_features):
                raise RuleError(f"feature index {idx} out of range at position {position}")
    elif isinstance(pred, Not):
        _validate_predicate(pred.inner, position, inv)
    elif not isinstance(pred, (IsNothing, WordStart, WordEnd)):
        raise RuleError(f"unknown predicate {pred!r} at position {position}")


def layout_rule(
    preds: Sequence[Predicate],
    changes: Mapping[int, MappingFn],
    inserts: Mapping[int, Sequence[str]],
    name: str | None = None,
) -> Rule:
    """Lay a rule out over the canonical ``# @ p @ … #`` token layout.

    ``preds`` holds one predicate per phone or word-edge position, in
    order.  ``changes`` maps a position to the delete or substitute
    mapping applied there.  ``inserts`` maps a gap (0 before the first
    position, ``len(preds)`` after the last) to the phones inserted there.
    Adjacent positions are separated by an ``is_nothing`` predicate; an
    outer gap gets one only when it inserts.  Change positions ascend.
    The rule is not validated.  Every phone-edit rule is laid out through
    ``proposers.candidate_to_rule``.
    """
    if any(not 0 <= gap <= len(preds) for gap in inserts):
        raise RuleError(f"insert gaps {sorted(inserts)} outside 0..{len(preds)}")
    predicates: list[Predicate] = []
    change_pos: list[int] = []
    mappings: list[MappingFn] = []
    for gap in range(len(preds) + 1):
        phones = inserts.get(gap)
        if phones:
            change_pos.append(len(predicates))
            mappings.append(Insert(phones))
        if phones or 0 < gap < len(preds):
            predicates.append(IsNothing())
        if gap < len(preds):
            fn = changes.get(gap)
            if fn is not None:
                change_pos.append(len(predicates))
                mappings.append(fn)
            predicates.append(preds[gap])
    return Rule(predicates, change_pos, mappings, name)


@dataclass(frozen=True)
class Cascade:
    """An ordered sequence of rules; order is significant, empty is identity."""

    rules: tuple[Rule, ...] = ()

    def __init__(self, rules=()):
        object.__setattr__(self, "rules", tuple(rules))

    def __len__(self) -> int:
        return len(self.rules)


# --- matching and application -----------------------------------------------


def find_sites(rule: Rule, word: TokenizedWord, inv: Inventory | None = None) -> list[int]:
    """All start indices where the environment matches, scanning left to right.

    Sites are detected on the given word only; windows running past the end
    never match.  Overlapping sites are all recorded.
    """
    tokens = word.tokens
    n = len(tokens)
    last = n - 1
    preds = rule.predicates
    width = len(preds)
    sites: list[int] = []
    for start in range(n - width + 1):
        for offset, pred in enumerate(preds):
            pos = start + offset
            if not pred.matches(tokens[pos], pos == 0, pos == last, inv):
                break
        else:
            sites.append(start)
    return sites


def apply_rule(
    rule: Rule,
    word: TokenizedWord,
    inv: Inventory | None = None,
) -> TokenizedWord:
    """Apply one rule with two-stage semantics and return the canonical result.

    Stage 1 records all sites on the input; stage 2 applies every mapping at
    every recorded site against the original token indices, then the output
    is rebuilt in canonical layout.  A mapping is skipped where an earlier
    site already edits its token, where a substitution has no entry for the
    matched phone, and where its kind does not fit the token.
    """
    tokens = word.tokens
    sites = find_sites(rule, word, inv)
    if not sites:
        return word

    edits: dict[int, tuple[str, ...]] = {}  # token index -> its replacement phones
    for site in sites:
        for pos, fn in zip(rule.change_pos, rule.mappings):
            target = site + pos
            if target not in edits:
                edit = fn.edit(tokens[target])
                if edit is not None:
                    edits[target] = edit

    phones: list[str] = []
    for idx, token in enumerate(tokens):
        if token == BOUNDARY:
            continue
        edit = edits.get(idx)
        if edit is not None:
            phones.extend(edit)
        elif token != SEPARATOR:
            phones.append(token)
    return TokenizedWord.from_phones(phones)


def apply_cascade(
    cascade: Cascade,
    word: TokenizedWord,
    inv: Inventory | None = None,
) -> tuple[TokenizedWord, list[TokenizedWord]]:
    """Fold the rules over the word in order; the trace has one entry per rule."""
    trace: list[TokenizedWord] = []
    current = word
    for rule in cascade.rules:
        current = apply_rule(rule, current, inv)
        trace.append(current)
    return current, trace


# --- serialization ----------------------------------------------------------


def predicate_to_obj(pred: Predicate) -> dict[str, Any]:
    if isinstance(pred, PhoneSet):
        return {"kind": "phone_set", "phones": sorted(pred.phones)}
    if isinstance(pred, IsNothing):
        return {"kind": "is_nothing"}
    if isinstance(pred, WordStart):
        return {"kind": "word_start"}
    if isinstance(pred, WordEnd):
        return {"kind": "word_end"}
    if isinstance(pred, FeatureReq):
        return {"kind": "feature_req", "reqs": {str(i): v for i, v in pred.reqs}}
    if isinstance(pred, Not):
        return {"kind": "not", "inner": predicate_to_obj(pred.inner)}
    raise RuleError(f"unknown predicate {pred!r}")


def mapping_to_obj(fn: MappingFn) -> dict[str, Any]:
    if isinstance(fn, Delete):
        return {"kind": "delete"}
    if isinstance(fn, Substitute):
        return {"kind": "substitute", "map": {k: list(v) for k, v in fn.mapping}}
    if isinstance(fn, Insert):
        return {"kind": "insert", "phones": list(fn.phones)}
    raise RuleError(f"unknown mapping function {fn!r}")


def rule_to_obj(rule: Rule) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "predicates": [predicate_to_obj(p) for p in rule.predicates],
        "change_pos": list(rule.change_pos),
        "mappings": [mapping_to_obj(m) for m in rule.mappings],
    }
    if rule.name is not None:
        obj["name"] = rule.name
    return obj


def serialize_rule(rule: Rule) -> str:
    """Canonical JSON text: sorted keys, sorted phone sets, compact separators."""
    return json.dumps(rule_to_obj(rule), sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _expect(obj: Any, kind: type, path: str, what: str) -> Any:
    if not isinstance(obj, kind):
        raise RuleParseError(f"expected {what}, got {type(obj).__name__}", path)
    return obj


def predicate_from_obj(obj: Any, path: str = "") -> Predicate:
    _expect(obj, dict, path, "an object")
    kind = obj.get("kind")
    if kind == "phone_set":
        phones = _expect(obj.get("phones"), list, f"{path}/phones", "a list")
        if not phones:
            raise RuleParseError("empty phone set", f"{path}/phones")
        for i, symbol in enumerate(phones):
            _expect(symbol, str, f"{path}/phones/{i}", "a string")
        return PhoneSet(phones)
    if kind == "is_nothing":
        return IsNothing()
    if kind == "word_start":
        return WordStart()
    if kind == "word_end":
        return WordEnd()
    if kind == "feature_req":
        reqs_obj = _expect(obj.get("reqs"), dict, f"{path}/reqs", "an object")
        reqs: dict[int, int] = {}
        for key, value in reqs_obj.items():
            # int() would also read "1_0", "+5", " 5" and non-ASCII digits, and
            # a leading zero would let "5" and "05" name one feature.
            if not (isinstance(key, str) and key.isascii() and key.isdigit() and (key == "0" or key[0] != "0")):
                raise RuleParseError(
                    f"feature index must be decimal digits without a leading zero, got {key!r}",
                    f"{path}/reqs",
                )
            if not _is_bit(value):
                raise RuleParseError(f"requirement value must be 0 or 1, got {value!r}", f"{path}/reqs/{key}")
            reqs[int(key)] = value
        return FeatureReq(reqs)
    if kind == "not":
        return Not(predicate_from_obj(obj.get("inner"), f"{path}/inner"))
    raise RuleParseError(f"unknown predicate kind {kind!r}", f"{path}/kind")


def mapping_from_obj(obj: Any, path: str = "") -> MappingFn:
    _expect(obj, dict, path, "an object")
    kind = obj.get("kind")
    if kind == "delete":
        return Delete()
    if kind == "substitute":
        map_obj = _expect(obj.get("map"), dict, f"{path}/map", "an object")
        mapping: dict[str, tuple[str, ...]] = {}
        for key, value in map_obj.items():
            seq = _expect(value, list, f"{path}/map/{key}", "a list")
            if not seq:
                raise RuleParseError("empty substitute target", f"{path}/map/{key}")
            mapping[key] = tuple(_expect(s, str, f"{path}/map/{key}", "a string") for s in seq)
        return Substitute(mapping)
    if kind == "insert":
        phones = _expect(obj.get("phones"), list, f"{path}/phones", "a list")
        if not phones:
            raise RuleParseError("empty insert sequence", f"{path}/phones")
        return Insert(_expect(s, str, f"{path}/phones", "a string") for s in phones)
    raise RuleParseError(f"unknown mapping kind {kind!r}", f"{path}/kind")


def rule_from_obj(obj: Any, path: str = "", inv: Inventory | None = None) -> Rule:
    _expect(obj, dict, path, "an object")
    predicates = [
        predicate_from_obj(p, f"{path}/predicates/{i}")
        for i, p in enumerate(_expect(obj.get("predicates"), list, f"{path}/predicates", "a list"))
    ]
    change_pos = _expect(obj.get("change_pos"), list, f"{path}/change_pos", "a list")
    for i, pos in enumerate(change_pos):
        if not isinstance(pos, int) or isinstance(pos, bool):
            raise RuleParseError(f"expected an integer, got {pos!r}", f"{path}/change_pos/{i}")
    mappings = [
        mapping_from_obj(m, f"{path}/mappings/{i}")
        for i, m in enumerate(_expect(obj.get("mappings"), list, f"{path}/mappings", "a list"))
    ]
    name = obj.get("name")
    if name is not None:
        _expect(name, str, f"{path}/name", "a string")
    rule = Rule(predicates, change_pos, mappings, name)
    try:
        rule.validate(inv)
    except RuleError as exc:
        raise RuleParseError(str(exc), path) from None
    return rule


def _loads(text: str) -> Any:
    """The JSON value of rule or cascade text; malformed JSON is a ``RuleParseError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise RuleParseError(f"invalid JSON: {exc}") from None


def parse_rule(text: str, inv: Inventory | None = None) -> Rule:
    return rule_from_obj(_loads(text), "", inv)


def cascade_to_obj(cascade: Cascade) -> list[dict[str, Any]]:
    return [rule_to_obj(r) for r in cascade.rules]


def serialize_cascade(cascade: Cascade) -> str:
    return json.dumps(cascade_to_obj(cascade), sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def cascade_from_obj(obj: Any, inv: Inventory | None = None) -> Cascade:
    _expect(obj, list, "", "a list")
    return Cascade(rule_from_obj(r, f"/{i}", inv) for i, r in enumerate(obj))


def parse_cascade(text: str, inv: Inventory | None = None) -> Cascade:
    return cascade_from_obj(_loads(text), inv)
