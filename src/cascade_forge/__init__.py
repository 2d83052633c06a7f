"""Sound-law induction toolkit.

Sound changes are represented as executable rewrite rules over tokenized
phone sequences.  Ordered rule sequences (cascades) are applied to
protoforms to derive reflexes, scored with an edit-distance reward, and
induced from example pairs by beam search over pluggable rule proposers.
Synthetic training/evaluation corpora can be generated and everything is
reproducible from a seed.
"""

__version__ = "0.1.0"

from cascade_forge.phonology import (
    BOUNDARY,
    SEPARATOR,
    Inventory,
    Phone,
    TokenizedWord,
    default_inventory,
    detokenize,
    load_inventory,
    realize_feature_change,
    tokenize,
)
from cascade_forge.rule_engine import (
    Cascade,
    Delete,
    FeatureReq,
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
    find_sites,
    parse_cascade,
    parse_rule,
    serialize_cascade,
    serialize_rule,
)

__all__ = [
    "BOUNDARY",
    "SEPARATOR",
    "Cascade",
    "Delete",
    "FeatureReq",
    "Insert",
    "Inventory",
    "IsNothing",
    "Not",
    "Phone",
    "PhoneSet",
    "Rule",
    "Substitute",
    "TokenizedWord",
    "WordEnd",
    "WordStart",
    "apply_cascade",
    "apply_rule",
    "default_inventory",
    "detokenize",
    "find_sites",
    "load_inventory",
    "parse_cascade",
    "parse_rule",
    "realize_feature_change",
    "serialize_cascade",
    "serialize_rule",
    "tokenize",
    "__version__",
]
