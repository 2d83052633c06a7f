"""Independent reference implementations used as test oracles.

These deliberately avoid the library's internals: the Levenshtein oracles
are a plain recursion and a full-matrix dynamic programme (for words too
long for the recursion), the rule-application oracle detects sites with a
naive window scan and then splices a mutable token list right to left.
They exist to check the production code against a second, differently
shaped computation.
"""

from __future__ import annotations

from cascade_forge.phonology import BOUNDARY, SEPARATOR, TokenizedWord
from cascade_forge.rule_engine import Delete, Insert, IsNothing, Not, PhoneSet, Substitute
from cascade_forge.rule_engine import FeatureReq, WordEnd, WordStart


def brute_distance(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Plain recursive Levenshtein with an equal-head shortcut."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[0] == b[0]:
        return brute_distance(a[1:], b[1:])
    return 1 + min(
        brute_distance(a[1:], b[1:]),  # substitute
        brute_distance(a[1:], b),      # delete
        brute_distance(a, b[1:]),      # insert
    )


def dp_distance(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Textbook Levenshtein: the full (len(a)+1) x (len(b)+1) table."""
    table = [[i + j if i == 0 or j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


def feature_holds(features: tuple[int, ...], reqs) -> bool:
    """True iff each ``(index, value)`` of ``reqs`` has a value of 0 or 1
    equal to ``features[index]``.

    An unspecified feature (-1) satisfies no requirement, not even a
    required -1, and empty requirements hold for every vector.
    """
    return all(value in (0, 1) and features[index] == value for index, value in reqs)


def _pred_holds(pred, token, first, last, inv) -> bool:
    if isinstance(pred, PhoneSet):
        return token in pred.phones
    if isinstance(pred, IsNothing):
        return token == SEPARATOR
    if isinstance(pred, WordStart):
        return first and token == BOUNDARY
    if isinstance(pred, WordEnd):
        return last and token == BOUNDARY
    if isinstance(pred, FeatureReq):
        if token in (BOUNDARY, SEPARATOR) or inv is None or token not in inv:
            return False
        return feature_holds(inv.phone(token).features, pred.reqs)
    if isinstance(pred, Not):
        return not _pred_holds(pred.inner, token, first, last, inv)
    raise AssertionError(f"unexpected predicate {pred!r}")


def scan_sites(rule, word: TokenizedWord, inv=None) -> list[int]:
    """Window scan over every start position."""
    tokens = word.tokens
    width = len(rule.predicates)
    found = []
    for start in range(len(tokens) - width + 1):
        if all(
            _pred_holds(rule.predicates[k], tokens[start + k], start + k == 0,
                        start + k == len(tokens) - 1, inv)
            for k in range(width)
        ):
            found.append(start)
    return found


def reference_apply(rule, word: TokenizedWord, inv=None) -> TokenizedWord:
    """Two-stage oracle: detect on the original, then splice right to left.

    Leftmost site wins a conflict; a substitution without an entry for the
    matched phone is a no-op, mirroring the engine's contract.
    """
    tokens = list(word.tokens)
    edits: dict[int, tuple[str, tuple[str, ...]]] = {}
    for site in scan_sites(rule, word, inv):
        for pos, fn in zip(rule.change_pos, rule.mappings):
            index = site + pos
            if index in edits:
                continue
            token = tokens[index]
            if isinstance(fn, Insert):
                if token == SEPARATOR:
                    edits[index] = ("ins", fn.phones)
            elif isinstance(fn, Delete):
                if token not in (BOUNDARY, SEPARATOR):
                    edits[index] = ("del", ())
            elif isinstance(fn, Substitute):
                if token not in (BOUNDARY, SEPARATOR):
                    replacement = fn.get(token)
                    if replacement is not None:
                        edits[index] = ("sub", replacement)
    for index in sorted(edits, reverse=True):
        kind, phones = edits[index]
        if kind == "del":
            tokens[index : index + 2] = []
        elif kind == "sub":
            spliced: list[str] = []
            for k, phone in enumerate(phones):
                if k:
                    spliced.append(SEPARATOR)
                spliced.append(phone)
            tokens[index : index + 1] = spliced
        else:
            spliced = [SEPARATOR]
            for phone in phones:
                spliced.append(phone)
                spliced.append(SEPARATOR)
            tokens[index : index + 1] = spliced
    return TokenizedWord(tuple(tokens))


def assert_case_reproduced(case, inv) -> None:
    """Assert a generated case's master invariant with ``reference_apply``:
    folding the ground-truth rules over each source gives its target."""
    for pair in case.dataset.pairs:
        produced = pair.source
        for rule in case.ground_truth.rules:
            produced = reference_apply(rule, produced, inv)
        assert produced == pair.target, (
            f"case {case.dataset.name}: pair {pair.id} not reproduced "
            f"({produced.surface!r} != {pair.target.surface!r})"
        )


def make_ground_truth_proposer(cascade, sources, inv):
    """A proposer that knows the true cascade.

    Given a beam's current forms it finds the longest cascade prefix whose
    output matches them and returns the next true rule (nothing once the
    full cascade is reproduced).
    """
    from cascade_forge.proposers import callable_proposer
    from cascade_forge.rule_engine import apply_rule

    prefixes = [list(sources)]
    current = list(sources)
    for rule in cascade.rules:
        current = [apply_rule(rule, w, inv) for w in current]
        prefixes.append(list(current))

    def oracle(request):
        forms = [s for s, _ in request.examples]
        for depth in range(len(prefixes) - 1, -1, -1):
            if forms == prefixes[depth]:
                if depth < len(cascade.rules):
                    return [cascade.rules[depth]]
                return []
        return [cascade.rules[0]]

    return callable_proposer(oracle, "ground-truth")


def reference_beam_search(fn, dataset, config, inv=None, use_ites=False) -> list[tuple]:
    """``search.beam_search_cascade`` rebuilt from the oracles, with no
    ``Scorer``, text, shared effect or reused distance.

    ``fn`` is the proposer callable, asked directly; of what it returns,
    the first ``config.samples_per_step`` rules that pass ``Rule.validate``
    are kept.  Every kept rule is applied to every form with
    ``reference_apply`` and every reward is measured with ``dp_distance``.
    Each step's candidates (the parents, standing pat, and one successor
    per kept rule) are sorted in full by (-reward, rules, serialization),
    then deduplicated by forms, and cut to the width.  Returns the final
    beams as ``(cascade serialization, reward, forms, step)``, best first.
    """
    from cascade_forge.metrics import ExamplePair
    from cascade_forge.proposers import ProposalRequest
    from cascade_forge.rule_engine import Cascade, Rule, RuleError, serialize_cascade
    from cascade_forge.search import select_examples_ites

    targets = dataset.targets
    original = sum(dp_distance(p.source.phones, p.target.phones) for p in dataset.pairs)

    def reward(forms):
        remaining = sum(dp_distance(f.phones, t.phones) for f, t in zip(forms, targets))
        if original == 0:
            return 1.0 if remaining == 0 else 1.0 - remaining
        return 1.0 - remaining / original

    def kept_rules(request):
        kept = []
        for item in fn(request):
            if not isinstance(item, Rule):
                continue
            try:
                item.validate(inv)
            except RuleError:
                continue
            kept.append(item)
            if len(kept) == config.samples_per_step:
                break
        return kept

    beams = [(Cascade(), tuple(dataset.sources), reward(dataset.sources), 0)]
    for step in range(1, config.max_steps + 1):
        candidates = [(cascade, forms, value, step) for cascade, forms, value, _ in beams]
        for cascade, forms, _, _ in beams:
            examples = list(zip(forms, targets))
            if use_ites:
                pairs = [ExamplePair(form, p.target, p.id) for form, p in zip(forms, dataset.pairs)]
                filtered, _ = select_examples_ites(pairs)
                examples = [(p.source, p.target) for p in filtered] or examples
            request = ProposalRequest(examples, config.samples_per_step, step - 1)
            for rule in kept_rules(request):
                successor = tuple(reference_apply(rule, form, inv) for form in forms)
                candidates.append((Cascade(cascade.rules + (rule,)), successor, reward(successor), step))
        candidates.sort(key=lambda c: (-c[2], len(c[0]), serialize_cascade(c[0])))
        beams, seen = [], set()
        for candidate in candidates:
            if candidate[1] not in seen:
                seen.add(candidate[1])
                beams.append(candidate)
        beams = beams[: config.beam_width]
        if config.early_stop_on_perfect and beams[0][2] == 1.0:
            break
    return [(serialize_cascade(cascade), value, forms, step) for cascade, forms, value, step in beams]


def reference_edit_candidates(src: tuple[str, ...], script, max_span: int, max_context: int) -> list[tuple]:
    """Every distinct edit candidate of one pair's edit script, in discovery order.

    Each run of consecutive ops gets its source window from a min/max scan
    over all of its ops (a substitution or deletion covers its phone, an
    insertion the empty span at its gap), and a window wider than
    ``max_span`` phones is skipped.  Each side then takes every context of
    up to ``max_context`` phones that fits, plain and with its word-edge
    predicate: at the edge when the context reaches it, not at it otherwise.
    """
    found: dict[tuple, None] = {}
    for start in range(len(script)):
        for stop in range(start + 1, len(script) + 1):
            group = script[start:stop]
            lo = min(op.pos for op in group)
            hi = max(op.pos + (op.kind != "ins") for op in group)
            if hi - lo > max_span:
                continue
            ops = tuple((op.kind, op.pos - lo, op.old, op.new) for op in group)
            lefts = []
            for radius in range(min(lo, max_context) + 1):
                edge = WordStart() if radius == lo else Not(WordStart())
                lefts += [(src[lo - radius : lo], None), (src[lo - radius : lo], edge)]
            rights = []
            for radius in range(min(len(src) - hi, max_context) + 1):
                edge = WordEnd() if radius == len(src) - hi else Not(WordEnd())
                rights += [(src[hi : hi + radius], None), (src[hi : hi + radius], edge)]
            for left, left_edge in lefts:
                for right, right_edge in rights:
                    found[(ops, src[lo:hi], left, right, left_edge, right_edge)] = None
    return list(found)


def replay_script(src: tuple[str, ...], ops) -> tuple[str, ...]:
    """Apply a metrics edit script to the source phone sequence."""
    out: list[str] = []
    consumed = 0
    for op in ops:
        while consumed < op.pos:
            out.append(src[consumed])
            consumed += 1
        if op.kind == "ins":
            out.extend(op.new)
        elif op.kind == "del":
            consumed += 1
        else:
            out.extend(op.new)
            consumed += 1
    out.extend(src[consumed:])
    return tuple(out)
