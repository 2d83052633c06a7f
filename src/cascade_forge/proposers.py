"""Candidate-rule sources: callables (the builtin among them), external processes, ensembles.

A proposer receives example pairs and returns candidate rules.  The
builtin proposer is a callable proposer that needs no model or
randomness: it aligns each changed pair with a minimal edit script, lifts
groups of nearby edit operations into rules under every context window of
up to two phones per side (optionally anchored to, or away from, a word
edge), and returns its whole pool ranked with ``rank_rules`` on the
requesting examples.  ``rank_rules`` is the one ranking of candidate
rules: by reward, then fewer predicates, then canonical serialization.

``propose`` is the one gate: it takes the rules a callable or external
proposer returns in order, drops each invalid one with a diagnostic, and
keeps the first ``num_samples`` valid ones, so an invalid rule never
takes a valid rule's place.

External proposers are child processes speaking one JSON object per line
on stdin/stdout.  A search keeps one process per command for all of its
requests (``ProposerSessions``).  Invalid or late replies degrade to an
empty candidate list with diagnostics and never abort a search.
Ensembles pool their members' candidates, deduplicated by rule equality
(which ignores a rule's name); the pool is not cut to ``num_samples``.
"""

from __future__ import annotations

import json
import os
import selectors
import shlex
import subprocess
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

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
    layout_rule,
    rule_from_obj,
    serialize_rule,
)

TIMEOUT_ENV_VAR = "CASCADE_FORGE_PROPOSER_TIMEOUT_MS"
DEFAULT_TIMEOUT_MS = 120_000
# Seconds a proposer process gets to exit once its stdin is closed.
CLOSE_GRACE_S = 1.0
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
    """Examples plus sampling budget handed to a proposer."""

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


@dataclass(frozen=True)
class ProposerHandle:
    """Address of a rule source: a callable, an external command, or an ensemble."""

    kind: str
    name: str = ""
    command: tuple[str, ...] = ()
    members: tuple["ProposerHandle", ...] = ()
    fn: Callable[[ProposalRequest], Sequence[Rule]] | None = field(default=None, compare=False)


def builtin_proposer() -> ProposerHandle:
    """``builtin_enumerative_propose``, looked up at each call, as a callable proposer."""
    return callable_proposer(builtin_enumerative_propose, "builtin")


def external_proposer(command: str | Sequence[str], name: str | None = None) -> ProposerHandle:
    argv = tuple(shlex.split(command)) if isinstance(command, str) else tuple(command)
    if not argv:
        raise ValueError("external proposer command is empty")
    return ProposerHandle(kind="external", name=name or argv[0], command=argv)


def ensemble_proposer(members: Iterable[ProposerHandle], name: str = "ensemble") -> ProposerHandle:
    members = tuple(members)
    if len(members) < 2:
        raise ValueError("an ensemble needs at least two members")
    return ProposerHandle(kind="ensemble", name=name, members=members)


def callable_proposer(
    fn: Callable[[ProposalRequest], Sequence[Rule]], name: str = "callable"
) -> ProposerHandle:
    return ProposerHandle(kind="callable", name=name, fn=fn)


@dataclass
class ProposeResult:
    rules: list[Rule]
    diagnostics: list[str]


# --- edit candidate extraction ------------------------------------------------


@dataclass(frozen=True)
class EditCandidate:
    """A group of edit operations plus one context window around them.

    ``ops`` hold positions relative to the covered source window: phone
    offsets for substitutions/deletions, gap offsets (0..len(covered)) for
    insertions.  ``left``/``right`` are context phones adjacent to the
    window.  ``left_edge``/``right_edge`` are the predicates that side's
    word-edge condition adds beyond its context: ``WordStart()`` or
    ``Not(WordStart())`` on the left, ``WordEnd()`` or ``Not(WordEnd())``
    on the right, and None when that side is unconstrained.
    """

    ops: tuple[EditOp, ...]
    covered: tuple[str, ...]
    left: tuple[str, ...]
    right: tuple[str, ...]
    left_edge: Predicate | None
    right_edge: Predicate | None


def _window(ops: Sequence[EditOp]) -> tuple[int, int] | None:
    """Minimal source phone window [lo, hi) holding all ops, or None if too wide."""
    lo = None
    hi = None
    for op in ops:
        if op.kind == "ins":
            op_lo, op_hi = op.pos, op.pos
        else:
            op_lo, op_hi = op.pos, op.pos + 1
        lo = op_lo if lo is None else min(lo, op_lo)
        hi = op_hi if hi is None else max(hi, op_hi)
    assert lo is not None and hi is not None
    if hi - lo > MAX_SPAN:
        return None
    return lo, hi


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
        for stop in range(start + 1, len(script) + 1):
            group = script[start:stop]
            window = _window(group)
            if window is None:
                break
            lo, hi = window
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
    """Deterministic candidate rules, best first by ``rank_rules`` on the request's examples.

    Candidates supported by fewer changed pairs are pruned first, the pool is
    capped, and the whole pool is returned ranked; ``propose`` keeps ``num_samples``.
    """
    changed = [(s, t) for s, t in request.examples if s.phones != t.phones]
    if not changed:
        return []

    support = Counter(c for s, t in changed for c in extract_edit_candidates(s, t))
    min_support = min(2, len(changed))
    # most_common sorts stably, so candidates of equal support keep discovery order.
    pool = [c for c, n in support.most_common() if n >= min_support][:MAX_POOL]

    scorer = Scorer([s for s, _ in request.examples], [t for _, t in request.examples])
    return [rule for rule, _ in rank_rules([candidate_to_rule(c) for c in pool], scorer)]


def rank_rules(
    rules: Iterable[Rule], scorer: Scorer, inv: Inventory | None = None
) -> list[tuple[Rule, RewardReport]]:
    """Each distinct rule with its report on ``scorer``'s pairs, best first.

    Rules are deduplicated by equality, which ignores ``name``, keeping the
    first copy, and ordered by reward, then fewer predicates, then serialization.
    """
    scored: dict[Rule, RewardReport] = {}
    for rule in rules:
        if rule not in scored:
            scored[rule] = scorer.report([apply_rule(rule, s, inv) for s in scorer.sources])
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
    """The ``programs`` list of a reply line, or None and what is wrong with it."""
    try:
        obj = json.loads(reply.decode("utf-8"))
    except ValueError as exc:
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
        try:
            proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        else:
            if proc.returncode != 0 and diagnostics is not None:
                diagnostics.append(
                    f"proposer exited with status {proc.returncode}: {self._stderr_tail()}"
                )
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
    """The external proposer processes of one search, one per distinct command.

    Use it as a context manager: leaving the block closes and reaps every
    child, whether the search returned or raised, and reports each
    non-zero exit status a child ends with to ``diagnostics``.
    """

    def __init__(self, diagnostics: list[str] | None = None) -> None:
        self._sessions: dict[tuple[str, ...], _Session] = {}
        self._diagnostics = diagnostics

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
    inv: Inventory | None = None,
    sessions: ProposerSessions | None = None,
) -> ProposeResult:
    """One request line out, one response line in, within the timeout.

    ``TIMEOUT_ENV_VAR`` sets the timeout and is read for each request; a
    value that is not a positive integer raises ValueError.  The request
    goes to the command's process in ``sessions``; without sessions, a
    process is started for this one request and closed after it.  Every
    failure mode (spawn error, timeout, crash, malformed reply, invalid
    program) degrades to dropped candidates plus a diagnostic.
    """
    if sessions is not None:
        return _ask(sessions.session(command), request, inv)
    exits: list[str] = []
    with ProposerSessions(exits) as own:
        result = _ask(own.session(command), request, inv)
    result.diagnostics += exits
    return result


def _ask(session: _Session, request: ProposalRequest, inv: Inventory | None) -> ProposeResult:
    line = json.dumps(request_to_obj(request), ensure_ascii=False) + "\n"
    programs, diagnostics = session.exchange(line.encode("utf-8"), _timeout_seconds())
    if programs is None:
        return ProposeResult([], diagnostics)
    rules: list[Rule] = []
    for i, program in enumerate(programs):
        try:
            rules.append(rule_from_obj(program, f"/programs/{i}", inv))
        except RuleError as exc:
            diagnostics.append(f"dropped invalid program {i}: {exc}")
    return ProposeResult(rules, diagnostics)


# --- dispatch -----------------------------------------------------------------


def propose(
    handle: ProposerHandle,
    request: ProposalRequest,
    inv: Inventory | None = None,
    sessions: ProposerSessions | None = None,
) -> ProposeResult:
    """Run a proposer; an ensemble returns the union of its members' results.

    Every other proposer's rules pass one gate, in the order returned: a
    rule that is no ``Rule`` or fails ``Rule.validate`` against ``inv`` is
    dropped with a diagnostic, and the gate stops once ``num_samples``
    valid rules are kept, so an invalid rule never takes a valid one's
    place.  A callable that returns something not iterable gives no rules
    and one diagnostic.  An ensemble keeps the first copy of equal rules and does not
    cut the union, so it returns up to ``num_samples`` rules per member.
    External proposers get their requests through ``sessions`` (see
    ``external_propose``).
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
        result = external_propose(handle.command, request, inv, sessions)
    else:
        returned = handle.fn(request)
        try:
            rules_in = iter(returned)
        except TypeError:
            return ProposeResult([], [f"{handle.name} returned a {type(returned).__name__}, not rules"])
        result = ProposeResult(list(rules_in), [])
    rules: list[Rule] = []
    for i, rule in enumerate(result.rules):
        if len(rules) == request.num_samples:
            break
        try:
            if not isinstance(rule, Rule):
                raise RuleError(f"expected a Rule, got {type(rule).__name__}")
            rule.validate(inv)
        except RuleError as exc:
            result.diagnostics.append(f"dropped invalid candidate {i} from {handle.name}: {exc}")
            continue
        rules.append(rule)
    result.rules = rules
    return result
