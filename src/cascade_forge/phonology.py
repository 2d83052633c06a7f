"""Phone inventories, articulatory feature vectors, and word tokenization.

A word is held as an explicit token sequence in which every phone is
flanked by separator tokens and the whole word is wrapped in boundary
tokens:

    "kaj"  ->  # @ k @ a @ j @ #
    ""     ->  # @ #

Separator slots give rewrite rules an addressable position between any two
phones and between a boundary and the edge phone, which is what makes
word-edge insertions expressible.

Feature vectors are ternary: +1 and 0 are real values, -1 means the
feature is unspecified for that phone and never satisfies a requirement.
Feature arithmetic runs on bit masks: bit ``i`` of a phone's ``ones``
(``zeros``) is set where feature ``i`` is 1 (0).  Each phone builds these
from its own vector; any other ``(index, value)`` pairs become masks only
through :func:`requirement_masks`, and :meth:`Inventory.satisfies` alone
tests a phone against requirement masks.  An inventory keeps no index of
its phones by feature: :meth:`Inventory.matching_phones` filters the
phones through :meth:`Inventory.satisfies`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping

BOUNDARY = "#"
SEPARATOR = "@"
RESERVED_TOKENS = (BOUNDARY, SEPARATOR)
# The widest feature geometry an inventory may declare.
MAX_FEATURES = 1 << 16


class InventoryError(ValueError):
    """Raised for malformed inventory files or phone definitions."""


class TokenizeError(ValueError):
    """Raised when a surface string cannot be segmented into inventory phones."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class WordFormatError(ValueError):
    """Raised when a token sequence violates the canonical word layout."""


@dataclass(frozen=True)
class Phone:
    """One segment: a symbol (possibly multi-codepoint) plus its feature vector.

    ``ones`` and ``zeros`` are the vector as bit masks (bit ``i`` set where
    feature ``i`` is 1, resp. 0), built at construction and never written
    after; they take no part in equality.
    """

    symbol: str
    features: tuple[int, ...]
    ones: int = field(init=False, repr=False, compare=False)
    zeros: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.symbol:
            raise InventoryError("phone symbol is empty")
        if self.symbol in RESERVED_TOKENS:
            raise InventoryError(f"reserved symbol {self.symbol!r} declared as a phone")
        ones = zeros = 0
        for i, value in enumerate(self.features):
            if value == 1:
                ones |= 1 << i
            elif value == 0:
                zeros |= 1 << i
            elif value != -1:
                raise InventoryError(
                    f"phone {self.symbol!r} has feature value {value!r}, expected -1, 0 or 1"
                )
        object.__setattr__(self, "ones", ones)
        object.__setattr__(self, "zeros", zeros)


class Inventory:
    """A closed, ordered set of phones sharing one feature geometry.

    Immutable after construction: each phone's feature masks are built
    when the phone is, and no lookup stores anything on the instance, so
    instances can be shared freely across threads.  Across phones it
    derives only the symbols, the symbol lookup and the symbol lengths.
    """

    def __init__(self, phones: Iterable[Phone], feature_names: Iterable[str] | None = None):
        self.phones: tuple[Phone, ...] = tuple(phones)
        if not self.phones:
            raise InventoryError("inventory is empty")
        self.symbols: tuple[str, ...] = tuple(p.symbol for p in self.phones)
        sizes = {len(p.features) for p in self.phones}
        if len(sizes) != 1:
            raise InventoryError(f"ragged feature vectors: lengths {sorted(sizes)}")
        self.num_features: int = sizes.pop()
        if self.num_features > MAX_FEATURES:
            raise InventoryError(f"{self.num_features} features, at most {MAX_FEATURES} allowed")
        if feature_names is None:
            names = tuple(f"f{i}" for i in range(self.num_features))
        else:
            names = tuple(feature_names)
        if len(names) != self.num_features:
            raise InventoryError(
                f"{len(names)} feature names declared but vectors have {self.num_features} entries"
            )
        self.feature_names: tuple[str, ...] = names

        self._by_symbol: dict[str, Phone] = {}
        for phone in self.phones:
            if phone.symbol in self._by_symbol:
                raise InventoryError(f"duplicate symbol {phone.symbol!r}")
            self._by_symbol[phone.symbol] = phone

        # Symbol lengths, longest first, drive greedy segmentation in tokenize.
        self._symbol_lengths: tuple[int, ...] = tuple(
            sorted({len(s) for s in self._by_symbol}, reverse=True)
        )

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._by_symbol

    def __len__(self) -> int:
        return len(self.phones)

    def phone(self, symbol: str) -> Phone:
        try:
            return self._by_symbol[symbol]
        except KeyError:
            raise InventoryError(f"unknown phone {symbol!r}") from None

    def matching_phones(self, requirements: tuple[tuple[int, int], ...]) -> frozenset[str]:
        """Symbols of all phones satisfying the partial feature requirements.

        ``requirements`` holds ``(index, value)`` pairs, as ``FeatureReq.reqs``
        does.  The phones are filtered through :meth:`satisfies`, on every
        call.
        """
        masks = requirement_masks(requirements)
        return frozenset(s for s in self.symbols if self.satisfies(s, masks))

    def satisfies(self, symbol: str, masks: tuple[int, int, int]) -> bool:
        """True iff ``symbol`` is a phone of this inventory meeting ``masks``.

        ``masks`` comes from :func:`requirement_masks`; requirements reaching
        past this inventory's features raise ``InventoryError``.
        """
        ones, zeros, span = masks
        if span > self.num_features:
            raise InventoryError(f"feature index out of range (F={self.num_features})")
        phone = self._by_symbol.get(symbol)
        return phone is not None and (phone.ones & ones) == ones and (phone.zeros & zeros) == zeros


@dataclass(frozen=True)
class TokenizedWord:
    """Canonical token sequence: ``# @ p1 @ p2 @ ... pn @ #`` (``# @ #`` if empty)."""

    tokens: tuple[str, ...]

    @classmethod
    def from_phones(cls, phones: Iterable[str]) -> "TokenizedWord":
        tokens: list[str] = [BOUNDARY, SEPARATOR]
        for phone in phones:
            tokens.append(phone)
            tokens.append(SEPARATOR)
        tokens.append(BOUNDARY)
        return cls(tuple(tokens))

    @property
    def phones(self) -> tuple[str, ...]:
        return self.tokens[2:-1:2]

    @property
    def surface(self) -> str:
        return "".join(self.phones)

    def __len__(self) -> int:
        return len(self.phones)


def validate_word(word: TokenizedWord, inv: Inventory | None = None) -> None:
    """Check the canonical layout; with an inventory, also check phone membership."""
    tokens = word.tokens
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        raise WordFormatError(f"token count {len(tokens)} is not of the form 2n+3")
    if tokens[0] != BOUNDARY or tokens[-1] != BOUNDARY:
        raise WordFormatError("word is not wrapped in boundary tokens")
    for i, token in enumerate(tokens[1:-1], start=1):
        if i % 2 == 1:
            if token != SEPARATOR:
                raise WordFormatError(f"expected separator at index {i}, found {token!r}")
        else:
            if token in RESERVED_TOKENS:
                raise WordFormatError(f"reserved token {token!r} in phone position {i}")
            if inv is not None and token not in inv:
                raise WordFormatError(f"token {token!r} at index {i} is not an inventory phone")


def load_inventory(source: str) -> Inventory:
    """Parse inventory file content.

    Format: one phone per line as ``symbol<TAB>f1,f2,...,fF`` with values in
    {-1,0,1}; ``!feature name,...`` lines declare feature names in order;
    ``#``-prefixed lines are comments.
    """
    feature_names: list[str] = []
    phones: list[Phone] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            # a line of the form "#<TAB>..." is an attempt to declare the
            # reserved boundary token as a phone, not a comment
            if line.split("\t", 1)[0].strip() != BOUNDARY:
                continue
        if line.startswith("!feature"):
            rest = line[len("!feature") :].strip()
            if rest:
                feature_names.extend(n.strip() for n in rest.split(",") if n.strip())
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise InventoryError(f"line {lineno}: expected 'symbol<TAB>values', got {raw!r}")
        symbol, values_text = parts[0].strip(), parts[1].strip()
        try:
            values = tuple(int(v) for v in values_text.split(","))
        except ValueError:
            raise InventoryError(f"line {lineno}: non-integer feature value in {values_text!r}") from None
        try:
            phones.append(Phone(symbol, values))
        except InventoryError as exc:
            raise InventoryError(f"line {lineno}: {exc}") from None
    inv = Inventory(phones, feature_names or None)
    return inv


def tokenize(word: str, inv: Inventory) -> TokenizedWord:
    """Segment a surface string greedily, preferring the longest symbol at each position."""
    phones: list[str] = []
    pos = 0
    n = len(word)
    while pos < n:
        for length in inv._symbol_lengths:
            candidate = word[pos : pos + length]
            if len(candidate) == length and candidate in inv:
                phones.append(candidate)
                pos += length
                break
        else:
            raise TokenizeError(
                f"unsegmentable residue {word[pos:]!r} at offset {pos} in {word!r}", pos
            )
    return TokenizedWord.from_phones(phones)


def detokenize(word: TokenizedWord) -> str:
    """Concatenate the phone tokens; inverse of :func:`tokenize` on valid words."""
    validate_word(word)
    return word.surface


def requirement_masks(requirements: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """``(ones, zeros, span)`` for partial requirements of ``(index, value)`` pairs.

    Bit ``i`` of ``ones`` (``zeros``) is set where feature ``i`` must be 1
    (0).  A value that is neither, or an index required to hold two values,
    sets both bits, which no phone has.  ``span`` is one past the highest
    index (0 without requirements) and unbounded if an index is not an
    ``int``, is negative or is at least :data:`MAX_FEATURES`, so no inventory
    narrower than ``span`` accepts the requirements; such an index gets no
    bit, so an index read from untrusted input costs no memory and raises
    nothing before validation rejects it.
    """
    ones = zeros = span = 0
    for idx, value in requirements:
        if type(idx) is not int or idx < 0 or idx >= MAX_FEATURES:
            span = sys.maxsize
            continue
        bit = 1 << idx
        if value == 1:
            ones |= bit
        elif value == 0:
            zeros |= bit
        else:
            ones |= bit
            zeros |= bit
        span = max(span, idx + 1)
    return ones, zeros, span


def realize_feature_change(
    phone: Phone, changes: Mapping[int, int], inv: Inventory
) -> Phone:
    """Map a phone to the inventory phone closest to its vector after `changes`.

    Distance is Hamming distance over the specified entries of the target
    vector; ties go to the earlier phone in inventory order.  An empty change
    map returns the phone itself; an index outside the vector or a value
    other than 0 or 1 raises ``InventoryError``.  The changes become masks
    through :func:`requirement_masks`, the target is held as masks
    ``t1``/``t0`` of its 1 and 0 entries, and the distance to a candidate is
    the count of target bits missing from the candidate's masks.
    """
    if not changes:
        return phone
    width = len(phone.features)
    set_ones, set_zeros, span = requirement_masks(changes.items())
    if span > width:
        raise InventoryError(f"feature index out of range (F={width}) in {dict(changes)!r}")
    if set_ones & set_zeros:
        raise InventoryError(f"change values must be 0 or 1, got {dict(changes)!r}")
    kept = ~(set_ones | set_zeros)
    t1 = (phone.ones & kept) | set_ones
    t0 = (phone.zeros & kept) | set_zeros
    best = phone
    best_distance = width + 1
    for candidate in inv.phones:
        distance = (t1 & ~candidate.ones).bit_count() + (t0 & ~candidate.zeros).bit_count()
        if distance < best_distance:
            best = candidate
            best_distance = distance
            if not distance:
                break
    return best


def default_inventory() -> Inventory:
    """The bundled inventory: ~120 IPA segments with 24 articulatory features."""
    text = resources.files("cascade_forge.data").joinpath("default_inventory.tsv").read_text("utf-8")
    return load_inventory(text)
