"""Candidate-rule sources: callables (the builtin among them), external processes, ensembles.

A proposer receives example pairs and returns candidate rules.  The
builtin proposer is a callable proposer that needs no model or
randomness: it aligns each changed pair with a minimal edit script, lifts
groups of nearby edit operations into rules under every context window of
up to two phones per side (optionally anchored to, or away from, a word
edge), and returns its whole pool ranked with ``rank_rules`` on the
request's own ``scorer``.  ``rank_rules`` is the one ranking of candidate
rules: by reward, then fewer predicates, then canonical serialization.
It remembers each report it made on a scorer without an inventory, so
ranking a rule again on that scorer (as single-law induction does after
the builtin) applies and scores it no more.
Edit candidates are named tuples, hashed and compared as plain tuples.

``propose`` is the one gate: it reads the rules a callable returns, or
the programs of an external reply, one at a time in order, decodes and
validates each, drops each invalid one with a diagnostic, and keeps
the first ``num_samples`` valid ones, so an invalid rule never takes a
valid rule's place and nothing after the cut is read: a callable that is
a generator is not resumed after it.  Within one search, each distinct
valid external program is decoded once: ``ProposerSessions`` keeps the
rule it gave, keyed by inventory and the program's canonical JSON text.

External proposers are child processes speaking one JSON object per line
on stdin/stdout; ``external_propose`` only exchanges the lines.  A search
keeps one process per command for all of its requests
(``ProposerSessions``).  Invalid or late replies degrade to an empty
candidate list with diagnostics and never abort a search.
Ensembles pool their members' candidates, deduplicated by rule equality
(which ignores a rule's name); the pool is not cut to ``num_samples``.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from cascade_forge.metrics import EditOp, RewardReport, Scorer, edit_script
from cascade_forge.metrics import reward  # noqa: F401  (a binding perfbench/tracing.WRAPPED counts)
from cascade_forge.phonology import Inventory, TokenizedWord
from cascade_forge.rule_engine import (
    Delete,
    MappingFn,
    Not,
    PhoneSet,
    Predicate,
    Rule,
    RuleError,
    Substitute,
    WordEnd,
    WordStart,
    apply_rule,
    effect_key,
    layout_rule,
    rule_from_obj,
    serialize_rule,
)

TIMEOUT_ENV_VAR = "CASCADE_FORGE_PROPOSER_TIMEOUT_MS"
DEFAULT_TIMEOUT_MS = 120_000
# Seconds a proposer process gets to exit once its stdin is closed, and
# the step at which its exit is polled meanwhile.
CLOSE_GRACE_S = 1.0
_EXIT_POLL_S = 0.001
_READ_SIZE = 65536
_STDERR_TAIL_CHARS = 200
_STDERR_TAIL_BYTES = 4 * _STDERR_TAIL_CHARS  # enough for 200 characters of UTF-8

# Caps for the builtin candidate grammar: edit groups may span at most
# MAX_SPAN source phones and carry up to MAX_CONTEXT context phones per side.
MAX_SPAN = 3
MAX_CONTEXT = 2
MAX_POOL = 768

# Each side's (at the word edge, not at it) conditions, as _side_variants offers them.
LEFT_EDGES = (WordStart(), Not(WordStart()))
RIGHT_EDGES = (WordEnd(), Not(WordEnd()))


@dataclass(frozen=True)
class ProposalRequest:
    """Examples plus sampling budget handed to a proposer.

    ``scorer``, a ``Scorer`` over the examples, is built on first use; it
    takes no part in equality, ``repr`` or ``request_to_obj``.
    """

    examples: tuple[tuple[TokenizedWord, TokenizedWord], ...]
    num_samples: int
    step_index: int = 0

    def __init__(self, examples, num_samples, step_index=0):
        object.__setattr__(self, "examples", tuple((s, t) for s, t in examples))
        object.__setattr__(self, "num_samples", num_samples)
        object.__setattr__(self, "step_index", step_index)
        if not self.examples:
            raise ValueError("proposal request has no examples")
        if type(num_samples) is not int or num_samples < 1:
            raise ValueError(f"num_samples must be a positive integer, got {num_samples!r}")

    @cached_property
    def scorer(self) -> Scorer:
        return Scorer([s for s, _ in self.examples], [t for _, t in self.examples])


@dataclass(frozen=True)
class ProposerHandle:
    """Address of a rule source: a callable, an external command, or an ensemble."""

    kind: str
    name: str = ""
    command: tuple[str, ...] = ()
    members: tuple["ProposerHandle", ...] = ()
    fn: Callable[[ProposalRequest], Iterable[Rule]] | None = field(default=None, compare=False)


def builtin_proposer() -> ProposerHandle:
    """``builtin_enumerative_propose``, looked up at each call, as a callable proposer."""
    return callable_proposer(builtin_enumerative_propose, "builtin")


def external_proposer(command: Sequence[str], name: str | None = None) -> ProposerHandle:
    """The program ``command`` (an argv sequence, run without a shell) as a proposer.

    A ``str`` is refused with ``TypeError`` rather than split into characters.
    """
    if isinstance(command, str):
        raise TypeError(f"external proposer command must be an argv sequence, not the string {command!r}")
    argv = tuple(command)
    if not argv:
        raise ValueError("external proposer command is empty")
    return ProposerHandle(kind="external", name=name or argv[0], command=argv)


def ensemble_proposer(members: Iterable[ProposerHandle], name: str = "ensemble") -> ProposerHandle:
    members = tuple(members)
    if len(members) < 2:
        raise ValueError("an ensemble needs at least two members")
    return ProposerHandle(kind="ensemble", name=name, members=members)


def callable_proposer(
    fn: Callable[[ProposalRequest], Iterable[Rule]], name: str = "callable"
) -> ProposerHandle:
    return ProposerHandle(kind="callable", name=name, fn=fn)


@dataclass
class ProposeResult:
    rules: list[Rule]
    diagnostics: list[str]


class ExternalReply(NamedTuple):
    """An external proposer's reply: its programs as sent, undecoded."""

    programs: list[Any]
    diagnostics: list[str]


# --- edit candidate extraction ------------------------------------------------


class EditCandidate(NamedTuple):
    """A group of edit operations plus one context window around them.

    ``ops`` hold positions relative to the covered source window: phone
    offsets for substitutions/deletions, gap offsets (0..len(covered)) for
    insertions.  ``left``/``right`` are context phones adjacent to the
    window.  ``left_edge``/``right_edge`` are the predicates that side's
    word-edge condition adds beyond its context: ``WordStart()`` or
    ``Not(WordStart())`` on the left, ``WordEnd()`` or ``Not(WordEnd())``
    on the right, and None when that side is unconstrained.  It compares
    equal to the plain tuple of these fields in this order.
    """

    ops: tuple[EditOp, ...]
    covered: tuple[str, ...]
    left: tuple[str, ...]
    right: tuple[str, ...]
    left_edge: Predicate | None
    right_edge: Predicate | None


def _side_variants(
    room: int, edges: tuple[Predicate, Predicate]
) -> Iterator[tuple[int, Predicate | None]]:
    """(radius, edge predicate) pairs available when `room` phones exist on a side.

    ``edges`` is that side's (at the word edge, not at it) pair: a context
    of all ``room`` phones reaches the edge, a shorter one stops short of it.
    """
    at, not_at = edges
    for radius in range(min(room, MAX_CONTEXT) + 1):
        yield radius, None
        yield radius, at if radius == room else not_at


def extract_edit_candidates(source: TokenizedWord, target: TokenizedWord) -> list[EditCandidate]:
    """One pair's distinct edit candidates, in discovery order.

    An unchanged pair has an empty edit script and gives none.
    """
    src = source.phones
    script = edit_script(src, target.phones)
    candidates: dict[EditCandidate, None] = {}
    for start in range(len(script)):
        # The script is in source order (see ``EditOp``), so the group
        # script[start:stop + 1] covers the source window [lo, hi).
        lo = script[start].pos
        for stop in range(start, len(script)):
            hi = script[stop].pos + (script[stop].kind != "ins")
            if hi - lo > MAX_SPAN:
                break
            group = script[start : stop + 1]
            rel_ops = tuple(EditOp(op.kind, op.pos - lo, op.old, op.new) for op in group)
            covered = tuple(src[lo:hi])
            for left_radius, left_edge in _side_variants(lo, LEFT_EDGES):
                left = tuple(src[lo - left_radius : lo])
                for right_radius, right_edge in _side_variants(len(src) - hi, RIGHT_EDGES):
                    right = tuple(src[hi : hi + right_radius])
                    candidates[EditCandidate(rel_ops, covered, left, right, left_edge, right_edge)] = None
    return list(candidates)


def candidate_to_rule(candidate: EditCandidate) -> Rule:
    """Realize an edit candidate (the builtin's, or an smp law) as a rule."""
    preds: list[Predicate] = [] if candidate.left_edge is None else [candidate.left_edge]
    preds += [PhoneSet({phone}) for phone in candidate.left]
    first = len(preds)  # unit of the first covered phone
    preds += [PhoneSet({phone}) for phone in candidate.covered]
    preds += [PhoneSet({phone}) for phone in candidate.right]
    if candidate.right_edge is not None:
        preds.append(candidate.right_edge)

    changes: dict[int, MappingFn] = {}
    inserts: dict[int, tuple[str, ...]] = {}
    for op in candidate.ops:
        unit = first + op.pos
        if op.kind == "ins":
            inserts[unit] = inserts.get(unit, ()) + op.new
        elif op.kind == "del":
            changes[unit] = Delete()
        else:
            changes[unit] = Substitute({op.old: op.new})
    return layout_rule(preds, changes, inserts)


def builtin_enumerative_propose(request: ProposalRequest) -> list[Rule]:
    """Deterministic candidate rules, best first by ``rank_rules`` on ``request.scorer``.

    A candidate's support is the number of changed pairs it comes from.  The
    pool holds the candidates with at least two supporting pairs, or every
    candidate when none has two, most supported first and capped at
    ``MAX_POOL``; the whole pool is returned ranked, and ``propose`` keeps
    ``num_samples``.
    """
    changed = [(s, t) for s, t in request.examples if s.phones != t.phones]
    if not changed:
        return []

    support = Counter(c for s, t in changed for c in extract_edit_candidates(s, t))
    min_support = min(2, max(support.values()))
    # most_common sorts stably, so candidates of equal support keep discovery order.
    pool = [c for c, n in support.most_common() if n >= min_support][:MAX_POOL]

    return [rule for rule, _ in rank_rules([candidate_to_rule(c) for c in pool], request.scorer)]


def rank_rules(
    rules: Iterable[Rule], scorer: Scorer, inv: Inventory | None = None
) -> list[tuple[Rule, RewardReport]]:
    """Each distinct rule with its report on ``scorer``'s pairs, best first.

    Rules are deduplicated by equality, which ignores ``name``, keeping the
    first copy, and ordered by reward, then fewer predicates, then serialization.
    A rule's starts over every source are found in one pass over
    ``scorer.text``, and the rule is applied only to the sources they fall
    in; every other prediction is the source itself, whose distance the
    scorer knows.  Rules with one ``effect_key`` make identical predictions,
    so within a call they share one report, made for the first of them.

    A report made without an inventory is kept in ``scorer.ranked`` and
    serves later calls on the same scorer with any inventory: without one,
    a rule that reaches a feature predicate on a phone raises, and nothing
    else a rule does reads the inventory.  A report made with an inventory
    is not kept.
    """
    scored: dict[Rule, RewardReport] = {}
    shared: dict[frozenset, RewardReport] = {}  # effect key -> report
    for rule in rules:
        if rule in scored:
            continue
        report = scorer.ranked.get(rule)
        if report is None:
            text = scorer.text
            starts = text.starts(rule, inv)
            key = effect_key(rule, starts)
            report = shared.get(key)
            if report is None:
                preds = list(scorer.sources)
                for i, sites in text.word_sites(starts):
                    preds[i] = apply_rule(rule, preds[i], inv, sites)
                report = scorer.report(preds)
                if key is not None:
                    shared[key] = report
            if inv is None:
                scorer.ranked[rule] = report
        scored[rule] = report
    order = sorted(scored, key=lambda r: (-scored[r].reward, len(r.predicates), serialize_rule(r)))
    return [(rule, scored[rule]) for rule in order]


# --- external protocol --------------------------------------------------------


def request_to_obj(request: ProposalRequest) -> dict[str, Any]:
    return {
        "v": 1,
        "examples": [
            {"source": list(s.phones), "target": list(t.phones)} for s, t in request.examples
        ],
        "num_samples": request.num_samples,
        "step": request.step_index,
    }


def _timeout_seconds() -> float:
    """The request timeout: ``TIMEOUT_ENV_VAR`` milliseconds, or DEFAULT_TIMEOUT_MS when unset."""
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw is None:
        return DEFAULT_TIMEOUT_MS / 1000.0
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise ValueError(f"{TIMEOUT_ENV_VAR} must be a positive integer of milliseconds, got {raw!r}")
    return int(raw) / 1000.0


_STALE_OUTPUT = "proposer wrote output that answers no request; restarted it"


def _programs(reply: bytes) -> tuple[list | None, str | None]:
    """The ``programs`` list of a reply line, or None and what is wrong with it (too deep to decode, say)."""
    try:
        obj = json.loads(reply.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return None, f"malformed proposer response: {exc}"
    programs = obj.get("programs") if isinstance(obj, dict) else None
    if not isinstance(programs, list):
        return None, "proposer response has no 'programs' list"
    return programs, None


class _Session:
    """One external proposer command and the child process serving it.

    The process is spawned at the command's first request and kept for
    later ones.  It is replaced whenever it has exited, timed out, sent a
    malformed reply or written output that answers no request, so a reply
    never reaches any request but its own.  A reused process whose first
    line for a request is not a reply is taken to have written that line
    after its last reply, whenever it arrived, so the request is retried in
    a fresh process just as when the process ends without replying.  The
    child's stderr goes to a temporary file, never to a pipe that nobody
    drains.
    """

    def __init__(self, command: tuple[str, ...]) -> None:
        self.command = command
        self._proc: subprocess.Popen | None = None
        self._stderr: IO[bytes] | None = None
        self._stderr_kept = b""  # stderr tail from before the file was last truncated
        self._pending = b""  # stdout bytes read but not yet taken as a reply
        self._eof = False
        self._answered = False  # the current process has replied before

    def exchange(self, line: bytes, timeout_s: float) -> tuple[list | None, list[str]]:
        """Send one request line; return its reply's programs (None if none) and diagnostics.

        One deadline covers writing the request and reading the reply,
        including the one retry in a fresh process that a reused process
        gets when it ends without replying or its first line is not a reply.
        """
        deadline = time.monotonic() + timeout_s
        diagnostics: list[str] = []
        self._settle(diagnostics)
        for _ in range(2):
            if self._proc is None:
                failure = self._spawn()
                if failure is not None:
                    diagnostics.append(failure)
                    return None, diagnostics
            reused = self._answered
            try:
                reply = self._round_trip(line, deadline)
            except TimeoutError:
                self.kill()
                diagnostics.append(f"proposer timed out: {' '.join(self.command)}")
                return None, diagnostics
            if reply is None:
                self.close(diagnostics)
                if not reused:
                    break
                continue
            programs, problem = _programs(reply)
            if problem is None:
                self._answered = True
                return programs, diagnostics
            self.kill()
            if not reused:
                diagnostics.append(problem)
                return None, diagnostics
            diagnostics.append(_STALE_OUTPUT)
        diagnostics.append("proposer produced no response line")
        return None, diagnostics

    def kill(self) -> None:
        self._end(0.0, None)

    def close(self, diagnostics: list[str] | None = None) -> None:
        """Close the child's stdin and give it CLOSE_GRACE_S to exit before killing it.

        A non-zero status the child exits with by itself is reported to
        ``diagnostics``.
        """
        self._end(CLOSE_GRACE_S, diagnostics)

    def _spawn(self) -> str | None:
        stderr = tempfile.TemporaryFile()
        try:
            proc = subprocess.Popen(
                list(self.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
                bufsize=0,
            )
        except OSError as exc:
            stderr.close()
            return f"proposer spawn failed: {exc}"
        os.set_blocking(proc.stdin.fileno(), False)
        os.set_blocking(proc.stdout.fileno(), False)
        self._proc, self._stderr, self._stderr_kept = proc, stderr, b""
        self._pending, self._eof, self._answered = b"", False, False
        return None

    def _settle(self, diagnostics: list[str]) -> None:
        """Before a request, drop a process that has ended or has output pending."""
        if self._proc is None:
            return
        self._read()
        if self._pending.strip():
            self.kill()
            diagnostics.append(_STALE_OUTPUT)
        elif self._eof:
            self.close(diagnostics)
        else:
            # Bound the file, but keep the tail a diagnostic quotes.
            self._pending = b""
            self._stderr_kept = self._stderr_bytes()
            os.ftruncate(self._stderr.fileno(), 0)
            os.lseek(self._stderr.fileno(), 0, os.SEEK_SET)

    def _read(self) -> None:
        try:
            chunk = os.read(self._proc.stdout.fileno(), _READ_SIZE)
        except BlockingIOError:
            return
        self._pending += chunk
        self._eof = not chunk

    def _round_trip(self, line: bytes, deadline: float) -> bytes | None:
        """Write ``line``, then return the first non-blank line read back, or None at EOF.

        Raises TimeoutError when the deadline passes first.
        """
        stdin = self._proc.stdin.fileno()
        unsent = memoryview(line)
        with selectors.DefaultSelector() as selector:
            selector.register(stdin, selectors.EVENT_WRITE)
            selector.register(self._proc.stdout, selectors.EVENT_READ)
            while True:
                reply = self._take_line()
                if self._eof or (reply is not None and not unsent):
                    return reply
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError
                for key, _ in selector.select(remaining):
                    if key.fd != stdin:
                        self._read()
                        continue
                    try:
                        unsent = unsent[os.write(stdin, unsent) :]
                    except BlockingIOError:
                        continue
                    except BrokenPipeError:  # the child is gone: read what it left
                        unsent = unsent[:0]
                    if not unsent:
                        selector.unregister(stdin)

    def _take_line(self) -> bytes | None:
        while True:
            head, newline, rest = self._pending.partition(b"\n")
            if not newline and not (self._eof and head.strip()):
                return None
            self._pending = rest
            if head.strip():
                return head

    def _end(self, grace_s: float, diagnostics: list[str] | None) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()
        # A fixed step, not Popen.wait's doubling sleeps, sees the exit within ~1 ms.
        deadline = time.monotonic() + grace_s
        while proc.poll() is None and time.monotonic() < deadline:
            time.sleep(_EXIT_POLL_S)
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        elif proc.returncode != 0 and diagnostics is not None:
            diagnostics.append(f"proposer exited with status {proc.returncode}: {self._stderr_tail()}")
        proc.stdout.close()
        self._stderr.close()
        self._stderr, self._pending = None, b""

    def _stderr_bytes(self) -> bytes:
        """The last bytes the process wrote to stderr, across truncations."""
        fd = self._stderr.fileno()
        start = max(0, os.fstat(fd).st_size - _STDERR_TAIL_BYTES)
        return (self._stderr_kept + os.pread(fd, _STDERR_TAIL_BYTES, start))[-_STDERR_TAIL_BYTES:]

    def _stderr_tail(self) -> str:
        text = self._stderr_bytes().decode("utf-8", "replace")
        return text.strip()[-_STDERR_TAIL_CHARS:]


class ProposerSessions:
    """The external proposer processes of one search, one per distinct command,
    and the rules its external programs decoded to.

    Use it as a context manager: leaving the block closes and reaps every
    child, whether the search returned or raised, and reports each
    non-zero exit status a child ends with to ``diagnostics``.

    It also maps (inventory, a valid program's canonical JSON text) to the
    rule ``rule_from_obj`` made of it, so ``propose`` decodes each distinct
    valid program once per search.  A program is a JSON value as decoded,
    which that text names exactly; the inventory is keyed by identity.
    """

    def __init__(self, diagnostics: list[str] | None = None) -> None:
        self._sessions: dict[tuple[str, ...], _Session] = {}
        self._diagnostics = diagnostics
        self._rules: dict[tuple[Inventory | None, str], Rule] = {}

    def __enter__(self) -> "ProposerSessions":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for session in self._sessions.values():
            session.close(self._diagnostics)

    def session(self, command: Sequence[str]) -> _Session:
        key = tuple(command)
        if key not in self._sessions:
            self._sessions[key] = _Session(key)
        return self._sessions[key]


def external_propose(
    command: Sequence[str],
    request: ProposalRequest,
    sessions: ProposerSessions | None = None,
) -> ExternalReply:
    """One request line out, one response line in, within the timeout.

    Returns the reply's programs as sent, undecoded; ``propose`` decodes and
    validates them.  ``TIMEOUT_ENV_VAR`` sets the timeout and is read for
    each request; a value that is not a positive integer raises ValueError.
    The request goes to the command's process in ``sessions``; without
    sessions, a process is started for this one request and closed after
    it.  Every failure mode (spawn error, timeout, crash, malformed reply)
    degrades to no programs plus a diagnostic.
    """
    line = (json.dumps(request_to_obj(request), ensure_ascii=False) + "\n").encode("utf-8")
    exits: list[str] = []
    with ProposerSessions(exits) if sessions is None else nullcontext(sessions) as active:
        programs, diagnostics = active.session(command).exchange(line, _timeout_seconds())
    return ExternalReply(programs or [], diagnostics + exits)


# --- dispatch -----------------------------------------------------------------


def _decode(program: Any, index: int, inv: Inventory | None, sessions: ProposerSessions | None) -> Rule:
    """``rule_from_obj`` of the ``index``-th program of a reply, served from ``sessions``' memo when there."""
    if sessions is None:
        return rule_from_obj(program, f"/programs/{index}", inv)
    try:
        key = (inv, json.dumps(program, sort_keys=True, ensure_ascii=False, separators=(",", ":")))
    except RecursionError:  # too deep to name; rule_from_obj says so
        return rule_from_obj(program, f"/programs/{index}", inv)
    rule = sessions._rules.get(key)
    if rule is None:
        rule = sessions._rules[key] = rule_from_obj(program, f"/programs/{index}", inv)
    return rule


def propose(
    handle: ProposerHandle,
    request: ProposalRequest,
    inv: Inventory | None = None,
    sessions: ProposerSessions | None = None,
) -> ProposeResult:
    """Run a proposer; an ensemble returns the union of its members' results.

    Every other proposer's reply passes one gate, item by item in the order
    returned.  An external program is decoded with ``rule_from_obj`` against
    ``inv``, which validates it; a callable's item must be a ``Rule`` that
    passes ``Rule.validate`` against ``inv``.  An item that fails is dropped
    with the diagnostic ``dropped invalid candidate {i} from {name}:
    {reason}``, ``i`` being its index in the reply.  The gate stops once
    ``num_samples`` valid rules are kept, so an invalid rule never takes a
    valid one's place and the items after the cut are never read: a
    callable's iterable is pulled one item at a time, and a generator is
    not resumed after the cut.  A
    callable that returns something not iterable gives no rules and one
    diagnostic.  An ensemble keeps the first copy of equal rules and does
    not cut the union, so it returns up to ``num_samples`` rules per member.
    External proposers get their requests through ``sessions`` (see
    ``external_propose``), and a valid program already decoded against
    ``inv`` in ``sessions`` is not decoded again; an invalid one is judged
    afresh at every request.  Without ``sessions`` every program is decoded.
    """
    if handle.kind == "ensemble":
        pooled: dict[Rule, None] = {}
        diagnostics: list[str] = []
        for member in handle.members:
            sub = propose(member, request, inv, sessions)
            diagnostics.extend(sub.diagnostics)
            for rule in sub.rules:
                pooled.setdefault(rule)
        return ProposeResult(list(pooled), diagnostics)
    if handle.kind == "external":
        reply = external_propose(handle.command, request, sessions)
        items, diagnostics = reply.programs, reply.diagnostics
    else:
        returned = handle.fn(request)
        try:
            items = iter(returned)
        except TypeError:
            return ProposeResult([], [f"{handle.name} returned a {type(returned).__name__}, not rules"])
        diagnostics = []
    rules: list[Rule] = []
    for i, item in enumerate(items):
        try:
            if handle.kind == "external":
                rule = _decode(item, i, inv, sessions)
            elif isinstance(item, Rule):
                rule = item
                rule.validate(inv)
            else:
                raise RuleError(f"expected a Rule, got {type(item).__name__}")
        except RuleError as exc:
            diagnostics.append(f"dropped invalid candidate {i} from {handle.name}: {exc}")
            continue
        rules.append(rule)
        if len(rules) == request.num_samples:
            break
    return ProposeResult(rules, diagnostics)
