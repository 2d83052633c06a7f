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

Matching is anchor-seeded: a rule's anchor is its top-level phone-set
predicate with the fewest phones, and the predicates are tested only at the
starts where the anchor's token is one of those phones, so an unvalidated
predicate raises only once such a window reaches it.  ``find_sites`` does
this on one word.  A ``WordListText`` does it on a whole word list in one
bit-parallel pass (Shift-And): its words are laid end to end, each token
kind and word edge is a bit mask over the text, and a rule's starts are
its anchor's mask narrowed by each predicate's mask in turn, left to
right.  ``effect_key`` names what those starts make a rule edit, so rules
that edit the same tokens the same way can share one result.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Collection, Iterable, Mapping, Sequence

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
    """Raised for rule JSON that fails to decode or validate; the message starts with a JSON-pointer path."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path or '/'}: {message}")


def _sorted_items(items: Collection[Any]) -> tuple:
    """``items`` sorted, or in the given order when they do not sort.

    Items that do not sort (a ``str`` key beside an ``int`` one) fail
    ``Rule.validate``, not the constructor.
    """
    try:
        return tuple(sorted(items))
    except TypeError:
        return tuple(items)


QUOTE_LIMIT = 80  # the most characters of a value a diagnostic quotes


def _quote(value: Any) -> str:
    """``repr(value)``, cut to ``QUOTE_LIMIT`` characters ending in ``…``.

    Rules arrive from outside programs, so a diagnostic quoting one of
    their values must not grow with it.
    """
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[: QUOTE_LIMIT - 1] + "…"


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

    reqs: tuple[tuple[int, int], ...]  # sorted (feature index, value) pairs, if they sort
    masks: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __init__(self, reqs):
        items = _sorted_items(reqs if isinstance(reqs, tuple) else dict(reqs).items())
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
        if not isinstance(mapping, tuple):
            mapping = [(k, tuple(v)) for k, v in dict(mapping).items()]
        object.__setattr__(self, "mapping", _sorted_items(mapping))

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

    ``name`` is free-form metadata and excluded from equality.  ``anchor``
    is ``(offset, phones)`` of the top-level phone-set predicate with the
    fewest phones, the lowest offset winning a tie, or None when there is
    none (a phone set inside ``not`` never anchors); every site holds one
    of ``phones`` at ``offset``.  It is built at construction and takes no
    part in equality.  The hash is computed on first use and cached, so a
    slot that does not hash fails where the rule is first hashed, not here;
    ``serialize_rule`` caches its text the same way.  Copies and pickles
    carry neither cache but remake both on first use: a string's hash
    differs between processes.
    """

    predicates: tuple[Predicate, ...]
    change_pos: tuple[int, ...]
    mappings: tuple[MappingFn, ...]
    name: str | None = field(default=None, compare=False)
    anchor: tuple[int, frozenset[str]] | None = field(init=False, repr=False, compare=False)

    def __init__(self, predicates, change_pos, mappings, name=None):
        object.__setattr__(self, "predicates", tuple(predicates))
        object.__setattr__(self, "change_pos", tuple(change_pos))
        object.__setattr__(self, "mappings", tuple(mappings))
        object.__setattr__(self, "name", name)
        anchor = None
        for offset, pred in enumerate(self.predicates):
            if isinstance(pred, PhoneSet) and (anchor is None or len(pred.phones) < len(anchor[1])):
                anchor = (offset, pred.phones)
        object.__setattr__(self, "anchor", anchor)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.predicates, self.change_pos, self.mappings))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict[str, Any]:
        state = dict(vars(self))
        state.pop("_hash", None)
        state.pop("_text", None)
        return state

    def validate(self, inv: Inventory | None = None) -> None:
        """Raise ``RuleError`` unless the rule is well formed.

        Rule JSON, proposers and the generators all check rules here.
        Every predicate and mapping must be one of the kinds defined here,
        every change position and feature index an ``int`` (not a ``bool``),
        every substitute target a tuple, the name a string or ``None``, and
        every phone the rule names (phone sets, substitute keys and targets,
        inserts) a non-empty string other than ``#``/``@`` and, given an
        inventory, one of its phones; ``not`` nests at most ``MAX_NOT_DEPTH``
        deep.  So a rule that passes hashes without exhausting the stack, and
        serializes to rule JSON that ``parse_rule`` reads back as an equal rule.
        Without an inventory a feature requirement cannot match, so a rule
        holding one, under ``not`` too, fails once every other check passes.
        """
        if self.name is not None and not isinstance(self.name, str):
            raise RuleError(f"rule name {_quote(self.name)} is not a string")
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
                raise RuleError(f"change position {_quote(pos)} is not an integer")
        if len(set(self.change_pos)) != len(self.change_pos):
            raise RuleError("duplicate change positions")
        for pos, fn in zip(self.change_pos, self.mappings):
            if not isinstance(fn, (Delete, Substitute, Insert)):
                raise RuleError(f"unknown mapping {_quote(fn)} at position {pos}")
            if pos < 0 or pos >= len(self.predicates):
                raise RuleError(f"change position {pos} outside environment of length {len(self.predicates)}")
            pred = self.predicates[pos]
            if isinstance(fn, Insert):
                if not isinstance(pred, IsNothing):
                    raise RuleError(f"insert at position {pos} requires an is-nothing predicate")
                if not fn.phones:
                    raise RuleError(f"insert sequence is empty at position {pos}")
                for phone in fn.phones:
                    _check_phone(phone, f"insert at position {pos}", inv)
            elif not isinstance(pred, (PhoneSet, FeatureReq, Not)):
                # Any negation can match a phone token (Not(WordEnd()) does).
                raise RuleError(
                    f"{type(fn).__name__.lower()} at position {pos} requires a phone-matching predicate"
                )
            if isinstance(fn, Substitute):
                if not fn.mapping:
                    raise RuleError(f"substitute map is empty at position {pos}")
                keys = [key for key, _ in fn.mapping]
                if len(set(keys)) != len(keys):
                    # The JSON object keeps one target per key.
                    raise RuleError(f"substitute at position {pos} maps a phone twice")
                for key, value in fn.mapping:
                    if not isinstance(value, tuple):
                        raise RuleError(f"substitute target for {_quote(key)} is not a tuple of phones")
                    if not value:
                        raise RuleError(f"substitute target for {_quote(key)} is empty at position {pos}")
                    for phone in (key, *value):
                        _check_phone(phone, f"substitute at position {pos}", inv)
        bases = [_validate_predicate(pred, i, inv) for i, pred in enumerate(self.predicates)]
        if inv is None:
            for i, base in enumerate(bases):
                if isinstance(base, FeatureReq):
                    raise RuleError(f"feature requirement at position {i} needs an inventory")


def _check_phone(symbol: str, where: str, inv: Inventory | None) -> None:
    if not isinstance(symbol, str) or not symbol or symbol in RESERVED_TOKENS:
        raise RuleError(f"{where}: {_quote(symbol)} is not a phone")
    if inv is not None and symbol not in inv:
        raise RuleError(f"{where}: phone {_quote(symbol)} not in inventory")


MAX_NOT_DEPTH = 8  # the most ``not`` predicates one predicate may nest


def _validate_predicate(pred: Predicate, position: int, inv: Inventory | None) -> Predicate:
    """Check one predicate; returns it with its ``not`` wrappers removed."""
    depth = 0
    while isinstance(pred, Not):
        pred, depth = pred.inner, depth + 1
        if depth > MAX_NOT_DEPTH:
            raise RuleError(f"'not' nested over {MAX_NOT_DEPTH} deep at position {position}")
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
                raise RuleError(f"feature index {_quote(idx)} at position {position} is not an integer")
            # True and 1.0 equal 1 but serialize differently.
            if type(value) is not int or value not in (0, 1):
                raise RuleError(f"feature requirement value {_quote(value)} at position {position}")
            if not 0 <= idx < (MAX_FEATURES if inv is None else inv.num_features):
                raise RuleError(f"feature index {idx} out of range at position {position}")
    elif not isinstance(pred, (IsNothing, WordStart, WordEnd)):
        raise RuleError(f"unknown predicate {_quote(pred)} at position {position}")
    return pred


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
    never match.  Overlapping sites are all recorded.  Only the starts whose
    token at the rule's anchor offset is one of its anchor phones are tried
    (every start when the rule has no anchor), and the whole predicate
    chain is evaluated there, so a predicate that cannot match (an unknown
    kind, or a feature requirement without an inventory) raises only once
    such a window reaches it.
    """
    tokens = word.tokens
    n = len(tokens)
    last = n - 1
    preds = rule.predicates
    width = len(preds)
    if rule.anchor is None:
        starts: Iterable[int] = range(n - width + 1)
    else:
        # Token i of the slice is the anchor token of the window starting at i;
        # a stop below ``at`` would count from the end, so no window fits.
        at, phones = rule.anchor
        stop = at + n - width + 1
        starts = [i for i, token in enumerate(tokens[at:stop]) if token in phones] if stop > at else ()
    sites: list[int] = []
    for start in starts:
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
    sites: Sequence[int] | None = None,
) -> TokenizedWord:
    """Apply one rule with two-stage semantics and return the canonical result.

    Stage 1 records all sites on the input (``find_sites``, unless the
    caller gives them, ascending, as ``sites``); stage 2 applies every
    mapping at every recorded site against the original token indices,
    then the output is rebuilt in canonical layout.  A mapping is skipped
    where an earlier site already edits its token, where a substitution
    has no entry for the matched phone, and where its kind does not fit the
    token.  With no site, the input object itself is returned.
    """
    tokens = word.tokens
    if sites is None:
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


class WordListText:
    """A word list laid end to end as one text, matched by every rule at once.

    Each word's tokens (``#`` and ``@`` included) take one position each,
    and one gap position follows each word.  The text holds a bit mask of
    the positions of each token symbol and of the word-start and word-end
    boundaries; masks of the phone positions holding a feature value are
    built on first use, per inventory.  No mask covers a gap, so no window
    of consecutive matched positions spans two words.  It is built once
    per word list and shared by the rules matched on it.
    """

    def __init__(self, words: Sequence[TokenizedWord]) -> None:
        self._words = tuple(words)
        self._bases: list[int] = []  # the text position of each word's first token
        holding: dict[str, int] = {}
        every = first = last = 0
        base = 0
        for word in self._words:
            tokens = word.tokens
            self._bases.append(base)
            for offset, token in enumerate(tokens):
                holding[token] = holding.get(token, 0) | 1 << (base + offset)
            if tokens:
                every |= ((1 << len(tokens)) - 1) << base
                first |= 1 << base
                last |= 1 << (base + len(tokens) - 1)
            base += len(tokens) + 1
        self._holding = holding
        self._tokens = every
        boundary = holding.get(BOUNDARY, 0)
        self._nothing = holding.get(SEPARATOR, 0)
        self._word_start = first & boundary
        self._word_end = last & boundary
        self._features: dict[tuple[Inventory, int | None, int | None], int] = {}

    def starts(self, rule: Rule, inv: Inventory | None = None) -> int:
        """The mask of the text positions where the rule has a site.

        Shift-And, seeded with the anchor: the starts are first the
        positions the anchor's offset before an anchor phone (every token
        position when the rule has no anchor), and each other predicate, left to
        right, keeps the starts whose token at its offset it matches; the
        pass stops once no start is left.  Once it reaches a predicate that
        has no mask here (a kind this module does not define, or a feature
        requirement the inventory cannot evaluate), the starts are those of
        ``find_sites`` on each word instead, so it raises exactly where
        ``find_sites`` does.  A pass that stops before that predicate
        raises nowhere, and neither does ``find_sites``: each anchored
        window it tries fails at a predicate left of that one.
        """
        preds = rule.predicates
        if rule.anchor is None:
            at, starts = -1, self._tokens
        else:
            at, phones = rule.anchor
            starts = 0
            for phone in phones:
                starts |= self._holding.get(phone, 0)
            starts >>= at
        for offset, pred in enumerate(preds):
            if not starts:
                break
            if offset == at:
                continue
            mask = self._mask(pred, inv)
            if mask is None:
                starts = 0
                for base, word in zip(self._bases, self._words):
                    for site in find_sites(rule, word, inv):
                        starts |= 1 << (base + site)
                break
            starts &= mask >> offset
        return starts

    def word_sites(self, starts: int) -> list[tuple[int, list[int]]]:
        """``(word index, its sites)`` for each word the ``starts`` fall in, ascending.

        Sites are token indices into the word, as ``find_sites`` gives them.
        """
        found: list[tuple[int, list[int]]] = []
        bits = bin(starts)[:1:-1]  # bits[p] is the bit of text position p
        bases = self._bases
        word = 0
        pos = bits.find("1")
        while pos != -1:
            word = bisect_right(bases, pos, word) - 1
            site = pos - bases[word]
            if found and found[-1][0] == word:
                found[-1][1].append(site)
            else:
                found.append((word, [site]))
            pos = bits.find("1", pos + 1)
        return found

    def _mask(self, pred: Predicate, inv: Inventory | None) -> int | None:
        """The positions whose token ``pred`` matches, or None where it has no mask."""
        kind = type(pred)
        if kind is PhoneSet:
            mask = 0
            for phone in pred.phones:
                mask |= self._holding.get(phone, 0)
            return mask
        if kind is IsNothing:
            return self._nothing
        if kind is WordStart:
            return self._word_start
        if kind is WordEnd:
            return self._word_end
        if kind is FeatureReq:
            ones, zeros, span = pred.masks
            if inv is None or span > inv.num_features:
                return None  # FeatureReq.matches raises on a phone token
            mask = self._feature(inv, None, None)
            for required, value in ((ones, 1), (zeros, 0)):
                while required and mask:
                    low = required & -required
                    mask &= self._feature(inv, low.bit_length() - 1, value)
                    required ^= low
            return mask
        if kind is Not:
            inner = self._mask(pred.inner, inv)
            return None if inner is None else self._tokens & ~inner
        return None

    def _feature(self, inv: Inventory, index: int | None, value: int | None) -> int:
        """The phone positions whose phone ``inv`` has with feature ``index`` at
        ``value``; every position of an ``inv`` phone when ``index`` is None."""
        key = (inv, index, value)
        mask = self._features.get(key)
        if mask is None:
            masks = requirement_masks(() if index is None else ((index, value),))
            mask = 0
            for symbol, held in self._holding.items():
                if symbol not in RESERVED_TOKENS and inv.satisfies(symbol, masks):
                    mask |= held
            self._features[key] = mask
        return mask


def effect_key(rule: Rule, starts: int) -> frozenset | None:
    """What the rule edits at ``starts`` on one ``WordListText``, or None.

    The key pairs the starts mask shifted to each change position with
    that position's mapping.  Where no two shifted masks overlap, each
    edited token has exactly one mapping, so rules with equal keys on one
    text make identical edits, whatever their order of change positions or
    their contexts.  Where they overlap, leftmost-wins decides the edits
    and the key is None.  No start edits nothing: the key is empty.  A
    mapping's edit never reads the inventory, so neither does the key.
    """
    if not starts:
        return frozenset()
    positions = rule.change_pos
    for i, left in enumerate(positions):
        for right in positions[i + 1 :]:
            if starts & (starts << abs(right - left)):
                return None
    return frozenset((starts << pos, fn) for pos, fn in zip(positions, rule.mappings))


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
    """Canonical JSON text: sorted keys, sorted phone sets, compact separators.

    The text is made on the rule's first call and cached on it.
    """
    try:
        return rule._text
    except AttributeError:
        text = json.dumps(rule_to_obj(rule), sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        object.__setattr__(rule, "_text", text)
        return text


def _expect(obj: Any, kind: type, path: str, what: str) -> Any:
    if not isinstance(obj, kind):
        raise RuleParseError(f"expected {what}, got {type(obj).__name__}", path)
    return obj


def predicate_from_obj(obj: Any, path: str = "") -> Predicate:
    """The predicate a JSON object describes, read for JSON shape only (see ``rule_from_obj``)."""
    _expect(obj, dict, path, "an object")
    kind = obj.get("kind")
    if kind == "phone_set":
        phones = _expect(obj.get("phones"), list, f"{path}/phones", "a list")
        # A frozenset needs hashable members: [["a"]] would raise TypeError.
        return PhoneSet(_expect(s, str, f"{path}/phones/{i}", "a string") for i, s in enumerate(phones))
    if kind == "is_nothing":
        return IsNothing()
    if kind == "word_start":
        return WordStart()
    if kind == "word_end":
        return WordEnd()
    if kind == "feature_req":
        reqs = _expect(obj.get("reqs"), dict, f"{path}/reqs", "an object")
        for key in reqs:
            # int() would also read "1_0", "+5", " 5" and non-ASCII digits, and
            # a leading zero would let "5" and "05" name one feature.
            if not (isinstance(key, str) and key.isascii() and key.isdigit() and (key == "0" or key[0] != "0")):
                raise RuleParseError(
                    f"feature index must be decimal digits without a leading zero, got {_quote(key)}",
                    f"{path}/reqs",
                )
        return FeatureReq({int(key): value for key, value in reqs.items()})
    if kind == "not":
        return Not(predicate_from_obj(obj.get("inner"), f"{path}/inner"))
    raise RuleParseError(f"unknown predicate kind {_quote(kind)}", f"{path}/kind")


def mapping_from_obj(obj: Any, path: str = "") -> MappingFn:
    _expect(obj, dict, path, "an object")
    kind = obj.get("kind")
    if kind == "delete":
        return Delete()
    if kind == "substitute":
        map_obj = _expect(obj.get("map"), dict, f"{path}/map", "an object")
        return Substitute({
            key: tuple(_expect(value, list, f"{path}/map/{key}", "a list")) for key, value in map_obj.items()
        })
    if kind == "insert":
        return Insert(_expect(obj.get("phones"), list, f"{path}/phones", "a list"))
    raise RuleParseError(f"unknown mapping kind {_quote(kind)}", f"{path}/kind")


def rule_from_obj(obj: Any, path: str = "", inv: Inventory | None = None) -> Rule:
    """The rule a JSON object describes, validated against ``inv``.

    The decoders check only JSON shape, at the offending member's path.
    ``Rule.validate`` alone judges content; its ``RuleError``, like nesting
    too deep to decode, becomes a ``RuleParseError`` at ``path``.
    """
    try:
        _expect(obj, dict, path, "an object")
        predicates = [
            predicate_from_obj(p, f"{path}/predicates/{i}")
            for i, p in enumerate(_expect(obj.get("predicates"), list, f"{path}/predicates", "a list"))
        ]
        change_pos = _expect(obj.get("change_pos"), list, f"{path}/change_pos", "a list")
        mappings = [
            mapping_from_obj(m, f"{path}/mappings/{i}")
            for i, m in enumerate(_expect(obj.get("mappings"), list, f"{path}/mappings", "a list"))
        ]
        rule = Rule(predicates, change_pos, mappings, obj.get("name"))
        rule.validate(inv)
    except RuleParseError:
        raise
    except RuleError as exc:
        raise RuleParseError(str(exc), path) from None
    except RecursionError:
        raise RuleParseError("nesting too deep", path) from None
    return rule


def _loads(text: str) -> Any:
    """The JSON value of rule or cascade text; malformed or over-deep JSON is a ``RuleParseError``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise RuleParseError(f"invalid JSON: {exc}") from None


def parse_rule(text: str, inv: Inventory | None = None) -> Rule:
    return rule_from_obj(_loads(text), "", inv)


def cascade_to_obj(cascade: Cascade) -> list[dict[str, Any]]:
    return [rule_to_obj(r) for r in cascade.rules]


def serialize_cascade(cascade: Cascade) -> str:
    """The JSON text of ``cascade_to_obj`` in ``serialize_rule``'s format: its rules' texts joined."""
    return "[" + ",".join(serialize_rule(r) for r in cascade.rules) + "]"


def cascade_from_obj(obj: Any, inv: Inventory | None = None) -> Cascade:
    _expect(obj, list, "", "a list")
    return Cascade(rule_from_obj(r, f"/{i}", inv) for i, r in enumerate(obj))


def parse_cascade(text: str, inv: Inventory | None = None) -> Cascade:
    return cascade_from_obj(_loads(text), inv)
