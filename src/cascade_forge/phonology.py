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
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping

BOUNDARY = "#"
SEPARATOR = "@"
RESERVED_TOKENS = (BOUNDARY, SEPARATOR)


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
    """One segment: a symbol (possibly multi-codepoint) plus its feature vector."""

    symbol: str
    features: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.symbol:
            raise InventoryError("phone symbol is empty")
        if self.symbol in RESERVED_TOKENS:
            raise InventoryError(f"reserved symbol {self.symbol!r} declared as a phone")
        for value in self.features:
            if value not in (-1, 0, 1):
                raise InventoryError(
                    f"phone {self.symbol!r} has feature value {value!r}, expected -1, 0 or 1"
                )


class Inventory:
    """A closed, ordered set of phones sharing one feature geometry.

    Immutable after construction: no lookup stores anything on the
    instance, so instances can be shared freely across threads.
    """

    def __init__(self, phones: Iterable[Phone], feature_names: Iterable[str] | None = None):
        self.phones: tuple[Phone, ...] = tuple(phones)
        if not self.phones:
            raise InventoryError("inventory is empty")
        sizes = {len(p.features) for p in self.phones}
        if len(sizes) != 1:
            raise InventoryError(f"ragged feature vectors: lengths {sorted(sizes)}")
        self.num_features: int = sizes.pop()
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

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(p.symbol for p in self.phones)

    def matching_phones(self, requirements: tuple[tuple[int, int], ...]) -> frozenset[str]:
        """Symbols of all phones satisfying the partial feature requirements.

        ``requirements`` holds ``(index, value)`` pairs, as ``FeatureReq.reqs``
        does.  The answer is computed on every call.
        """
        reqs = dict(requirements)
        return frozenset(p.symbol for p in self.phones if feature_match(p, reqs))


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


def feature_match(phone: Phone, requirements: Mapping[int, int]) -> bool:
    """True iff every required feature index has exactly the required value.

    Unspecified values (-1) never satisfy a requirement of 0 or 1; an empty
    requirement map matches every phone.
    """
    features = phone.features
    for idx, value in requirements.items():
        if idx < 0 or idx >= len(features):
            raise InventoryError(f"feature index {idx} out of range (F={len(features)})")
        if features[idx] != value:
            return False
    return True


def realize_feature_change(
    phone: Phone, changes: Mapping[int, int], inv: Inventory
) -> Phone:
    """Map a phone to the inventory phone closest to its vector after `changes`.

    Distance is Hamming distance over the specified entries of the target
    vector; ties go to the earlier phone in inventory order.  An empty change
    map returns the phone itself.
    """
    if not changes:
        return phone
    target = list(phone.features)
    for idx, value in changes.items():
        if idx < 0 or idx >= len(target):
            raise InventoryError(f"feature index {idx} out of range (F={len(target)})")
        if value not in (0, 1):
            raise InventoryError(f"change value must be 0 or 1, got {value!r}")
        target[idx] = value
    specified = [i for i, v in enumerate(target) if v != -1]
    best: Phone | None = None
    best_distance = -1
    for candidate in inv.phones:
        distance = 0
        for i in specified:
            if candidate.features[i] != target[i]:
                distance += 1
        if best is None or distance < best_distance:
            best = candidate
            best_distance = distance
    assert best is not None
    return best


def default_inventory() -> Inventory:
    """The bundled inventory: ~120 IPA segments with 24 articulatory features."""
    text = resources.files("cascade_forge.data").joinpath("default_inventory.tsv").read_text("utf-8")
    return load_inventory(text)
