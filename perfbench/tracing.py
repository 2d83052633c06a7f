"""Per-layer spans for traced benchmark runs, recorded from outside the package.

Each call into a wrapped public function is a span.  A span's self time is
its duration minus the time covered by the wrapped calls it encloses, so the
self times of nested layers add up to the traced wall time instead of
counting it twice.  Spans are aggregated in memory per function and read
out when the run ends.

``search``, ``proposers`` and ``synthgen`` import ``apply_rule`` and
friends by name, so wrapping only the defining module would silently miss
their calls.  The tracer therefore replaces every binding of each wrapped
function found in any loaded ``cascade_forge`` module and checks the number
of bindings against ``WRAPPED``.  A mismatch stops the run: it means the
package's import graph changed and the counts would be incomplete.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# (layer, attribute) -> number of bindings across the cascade_forge modules
# the benchmark loads (the package, phonology, rule_engine, metrics,
# proposers, search, synthgen).  "Inventory.matching_phones" is patched on
# the class.  match_predicate is deliberately absent: it runs ~50k times per
# smp case, and wrapping it would swamp every other number with overhead.
WRAPPED: dict[tuple[str, str], int] = {
    ("phonology", "tokenize"): 3,
    ("phonology", "realize_feature_change"): 3,
    ("phonology", "Inventory.matching_phones"): 1,
    ("rule_engine", "apply_rule"): 5,
    ("rule_engine", "find_sites"): 3,
    ("metrics", "edit_distance"): 1,
    ("metrics", "reward"): 2,
    ("metrics", "edit_script"): 3,
    ("metrics", "reward_report"): 2,
    ("proposers", "builtin_enumerative_propose"): 1,
    ("proposers", "extract_edit_candidates"): 1,
    ("proposers", "candidate_to_rule"): 1,
    ("proposers", "external_propose"): 1,
    ("search", "induce_single_law"): 1,
    ("search", "beam_search_cascade"): 1,
    ("synthgen", "gen_smp_examples"): 1,
    ("synthgen", "gen_multilaw_evalset"): 1,
    ("synthgen", "gen_ling_language"): 1,
    ("synthgen", "gen_ling_rule"): 1,
    ("synthgen", "sample_change_ops"): 1,
    ("synthgen", "nonce_word"): 1,
    ("synthgen", "write_corpus"): 1,
}


class TraceError(RuntimeError):
    """The wrapping could not cover every binding it expected."""


def metric_prefix(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Call counts, self time and a few outcome counters per wrapped function."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.apply_rule_unchanged = 0
        self.apply_rule_rescored = 0  # under search, not under a proposer
        self.builtin_returned = 0
        self.external_ms: list[float] = []
        self.external_dropped = 0
        self.search_steps = 0
        self._stack: list[int] = []
        self._depth = {"search": 0, "proposers": 0}
        self._restore: list[tuple[object, str, object]] = []

    # --- wrapping ------------------------------------------------------------

    def patch(self, modules: dict[str, object]) -> None:
        """Wrap every binding of every function in ``WRAPPED``.

        ``modules`` maps layer names to the imported ``cascade_forge``
        modules; all loaded ``cascade_forge.*`` modules are scanned.
        """
        loaded = [
            module
            for name, module in list(sys.modules.items())
            if name == "cascade_forge" or name.startswith("cascade_forge.")
        ]
        for (layer, attr), expected in WRAPPED.items():
            owner = modules[layer]
            if "." in attr:
                cls_name, fn_name = attr.split(".")
                scopes = [getattr(owner, cls_name)]
                original = vars(scopes[0])[fn_name]
            else:
                scopes = loaded
                original = getattr(owner, attr)
            key = metric_prefix(layer, attr)
            wrapper = self._wrap(key, layer, original)
            patched = 0
            for scope in scopes:
                for name, value in list(vars(scope).items()):
                    if value is original:
                        setattr(scope, name, wrapper)
                        self._restore.append((scope, name, original))
                        patched += 1
            if patched != expected:
                self.unpatch()
                raise TraceError(
                    f"{layer}.{attr}: patched {patched} bindings, expected {expected}; "
                    "update WRAPPED after checking the new import graph"
                )

    def unpatch(self) -> None:
        while self._restore:
            scope, name, original = self._restore.pop()
            setattr(scope, name, original)

    def _wrap(self, key: str, layer: str, fn: Callable) -> Callable:
        self.calls[key] = 0
        self.self_ns[key] = 0
        hook = getattr(self, "_after_" + key.rsplit(".", 1)[-1], None)
        depth = self._depth if layer in self._depth else None
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if depth is not None:
                depth[layer] += 1
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                calls[key] += 1
                self_ns[key] += elapsed - covered
                if stack:
                    stack[-1] += elapsed
                if depth is not None:
                    depth[layer] -= 1
            if hook is not None:
                hook(args, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- outcome hooks (run after the span closes) ---------------------------

    def _after_apply_rule(self, args, result, elapsed) -> None:
        if result is args[1]:
            self.apply_rule_unchanged += 1
        if self._depth["search"] and not self._depth["proposers"]:
            self.apply_rule_rescored += 1

    def _after_builtin_enumerative_propose(self, args, result, elapsed) -> None:
        self.builtin_returned += len(result)

    def _after_external_propose(self, args, result, elapsed) -> None:
        self.external_ms.append(elapsed / 1e6)
        self.external_dropped += sum(1 for d in result.diagnostics if d.startswith("dropped"))

    def _after_beam_search_cascade(self, args, result, elapsed) -> None:
        self.search_steps += max(h.step for h in result)

    def _after_induce_single_law(self, args, result, elapsed) -> None:
        self.search_steps += 1

    # --- read-out --------------------------------------------------------------

    def per_case(self, cases: int) -> dict[str, float]:
        """``<layer>.<fn>.calls`` and ``.self_ms`` per case for every wrapped function."""
        out: dict[str, float] = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key] / cases
            out[f"{key}.self_ms"] = self.self_ns[key] / 1e6 / cases
        return out
