"""cascade-forge benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload smp-single --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

One run is one fresh process that imports ``src/cascade_forge`` from the
checkout, builds the workload's inputs from ``--seed`` (set-up), runs cases
in a closed loop for ``--seconds`` (and at least the workload's
``min_cases``), then checks every output against independent oracles.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit for people.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
cases untraced for half the time, then the same cases again with every
wrapped library function timed (see tracing.py), and reports the per-layer
metrics per case, including the tracing overhead between the two passes.
``--workload all`` runs each workload in its own process, one after the
other.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

LAYERS = ("phonology", "rule_engine", "metrics", "proposers", "search", "synthgen")
SETUP_REPEATS = 4  # set-ups at each end of an end-to-end run
DEFAULT_SECONDS = 30

END_TO_END_UNITS = {
    "cases_per_s": "cases/s",
    "case_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Functions that run in set-up on the induction workloads; their per-layer
# numbers come from the traced set-up, per generated input item.
SETUP_LAYER_KEYS = ("synthgen.gen_smp_examples", "synthgen.gen_multilaw_evalset")

PER_LAYER_UNITS = {
    f"{tracing.metric_prefix(layer, attr)}.{kind}": unit
    for layer, attr in tracing.WRAPPED
    for kind, unit in (("calls", "calls/case"), ("self_ms", "ms/case"))
}
PER_LAYER_UNITS.update({
    "rule_engine.apply_rule.unchanged_frac": "fraction",
    "proposers.builtin.kept_frac": "fraction",
    "proposers.external_propose.round_trip_p50_ms": "ms",
    "proposers.external_propose.dropped": "programs/case",
    "search.proposer_calls_per_case": "calls/case",
    "search.steps_per_case": "steps/case",
    "search.rescored_rules_per_case": "rules/case",
    "synthgen.rule_attempts_per_rule": "attempts/rule",
    "synthgen.language_retries": "retries/case",
    "trace_overhead_frac": "fraction",
})


class SetupError(RuntimeError):
    """The checkout does not hold the package or the oracles the benchmark needs."""


def load_package() -> tuple[dict, float]:
    """Import cascade_forge from the checkout afresh; returns modules and seconds taken."""
    for name in list(sys.modules):
        if name == "cascade_forge" or name.startswith("cascade_forge.") or name == "oracles":
            del sys.modules[name]
    # The benchmark's own garbage (an earlier set-up's modules and inputs)
    # is collected here, untimed, not by a collection that lands in set-up.
    gc.collect()
    started = time.perf_counter()
    modules = {layer: importlib.import_module(f"cascade_forge.{layer}") for layer in LAYERS}
    elapsed = time.perf_counter() - started
    package = sys.modules["cascade_forge"]
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "cascade_forge"):
        raise SetupError(f"cascade_forge was imported from {package.__file__}, not from {SRC}")
    return modules, elapsed


def set_up(workload, seed: int, seconds: float, workdir: str, tracer=None):
    """Import, load the default inventory and build the inputs; returns (cf, inv, items, seconds)."""
    modules, import_s = load_package()
    if tracer is not None:
        tracer.patch(modules)
    started = time.perf_counter()
    try:
        inv = modules["phonology"].default_inventory()
        cf = SimpleNamespace(**modules, oracles=None)
        count = max(workload.min_cases, int(seconds * workload.max_rate) + 1)
        items = workload.inputs(cf, inv, seed, count, workdir)
    finally:
        if tracer is not None:
            tracer.unpatch()
    elapsed = import_s + time.perf_counter() - started
    cf.oracles = importlib.import_module("oracles")
    return cf, inv, items, elapsed


def set_ups(workload, seed: int, seconds: float, workdir: str):
    """SETUP_REPEATS set-ups; returns the last one's (cf, inv, items) and every duration."""
    durations = []
    for _ in range(SETUP_REPEATS):
        # A fresh directory each time, so that every set-up writes new
        # files as the first one does rather than overwriting old ones.
        fresh = tempfile.mkdtemp(prefix="setup-", dir=workdir)
        cf, inv, items, elapsed = set_up(workload, seed, seconds, fresh)
        durations.append(elapsed)
    return cf, inv, items, durations


def run_cases(workload, cf, inv, items, workdir, tag, seconds=None, count=None):
    """Closed loop: one case after another until ``seconds`` and ``min_cases``, or ``count``.

    Returns the per-case (seconds, output or exception text, directory) list,
    the loop's wall time and the peak RSS once ``min_cases`` cases are done,
    which is a fixed amount of work for a seed however fast the loop runs.
    Items are reused from the start if the loop outruns them.
    """
    records = []
    rss_mb = None
    started = time.perf_counter()
    while True:
        done = len(records)
        if count is not None:
            if done >= count:
                break
        elif time.perf_counter() - started >= seconds and done >= workload.min_cases:
            break
        case_dir = os.path.join(workdir, f"{tag}-{done:05d}")
        item = items[done % len(items)]
        case_start = time.perf_counter()
        try:
            output = workload.run(cf, inv, item, case_dir)
        except Exception:
            output = traceback.format_exc()
        records.append((time.perf_counter() - case_start, output, case_dir))
        if len(records) == workload.min_cases:
            rss_mb = peak_rss_mb()
    return records, time.perf_counter() - started, rss_mb


def check_cases(workload, cf, inv, items, records) -> list[wl.Outcome]:
    outcomes = []
    for index, (_, output, case_dir) in enumerate(records):
        if isinstance(output, str):
            outcomes.append(wl.Outcome("", None, [f"exception: {output.strip().splitlines()[-1]}"]))
            continue
        try:
            outcome = workload.check(cf, inv, items[index % len(items)], output, case_dir)
        except Exception:
            outcome = wl.Outcome("", None, [f"check raised: {traceback.format_exc()}"])
        outcomes.append(outcome)
    return outcomes


def compare_repeats(outcomes, repeat_outcomes) -> None:
    """A case whose output digest changes when it is run again has failed."""
    for first, again in zip(outcomes, repeat_outcomes):
        if again.problems or again.digest != first.digest:
            first.problems.append("output differs when the case is repeated")


def quality(workload, outcomes) -> dict:
    """Recovery and digest over the first ``min_cases`` cases, which every run of a seed completes."""
    head = outcomes[: workload.min_cases]
    rewards = [o.best_reward for o in head if o.best_reward is not None]
    digest = wl.sha256_json([o.digest for o in head])
    out = {"digest": digest, "quality_cases": len(head)}
    if rewards:
        out["pass_rate"] = sum(1 for r in rewards if r == 1.0) / len(rewards)
        out["reward_at_1"] = sum(rewards) / len(rewards)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed, seconds, workdir):
    cf, inv, items, setups = set_ups(workload, seed, seconds, workdir)
    records, loop_s, rss_mb = run_cases(workload, cf, inv, items, workdir, "run", seconds=seconds)
    outcomes = check_cases(workload, cf, inv, items, records)
    repeat_inv = cf.phonology.default_inventory()
    repeats, _, _ = run_cases(
        workload, cf, repeat_inv, items, workdir, "repeat", count=min(workload.repeats, len(records))
    )
    compare_repeats(outcomes, check_cases(workload, cf, repeat_inv, items, repeats))

    times_ms = sorted(t * 1000.0 for t, _, _ in records)
    cases = len(records)
    # Set up again once nothing uses the modules any more.  Short set-ups
    # done back to back can all fall into one slow phase of a shared
    # machine; half of them at each end of the run sample it twice.
    del cf, inv, repeat_inv, items, records, repeats
    setups += set_ups(workload, seed, seconds, workdir)[3]
    metrics = {
        "cases_per_s": cases / loop_s,
        "case_p50_ms": statistics.median(times_ms),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    info = {"cases": cases, "setup_runs_s": setups}
    if len(times_ms) >= 100:
        info["case_p90_ms"] = f"{statistics.quantiles(times_ms, n=10)[8]} ms"
    else:
        info["case_p90_ms"] = f"n/a ({len(times_ms)} cases < 100) ms"
    return metrics, outcomes, info


def traced(workload, seed, seconds, workdir):
    setup_tracer = tracing.Tracer()
    cf, inv, items, _ = set_up(workload, seed, seconds, workdir, setup_tracer)
    records, plain_s, _ = run_cases(workload, cf, inv, items, workdir, "plain", seconds=seconds / 2)
    outcomes = check_cases(workload, cf, inv, items, records)

    # Same cases again, traced, with the inventory's memo caches empty again.
    tracer = tracing.Tracer()
    traced_inv = cf.phonology.default_inventory()
    modules = {layer: getattr(cf, layer) for layer in LAYERS}
    tracer.patch(modules)
    try:
        again, traced_s, _ = run_cases(
            workload, cf, traced_inv, items, workdir, "traced", count=len(records)
        )
    finally:
        tracer.unpatch()
    compare_repeats(outcomes, check_cases(workload, cf, traced_inv, items, again))

    cases = len(records)
    metrics = tracer.per_case(cases)
    for key in SETUP_LAYER_KEYS:
        metrics[f"{key}.calls"] = setup_tracer.calls[key] / len(items)
        metrics[f"{key}.self_ms"] = setup_tracer.self_ns[key] / 1e6 / len(items)
    calls = tracer.calls

    def ratio(num, den):
        return num / den if den else 0.0

    metrics.update({
        "rule_engine.apply_rule.unchanged_frac":
            ratio(tracer.apply_rule_unchanged, calls["rule_engine.apply_rule"]),
        "proposers.builtin.kept_frac":
            ratio(tracer.builtin_returned, calls["proposers.candidate_to_rule"]),
        "proposers.external_propose.round_trip_p50_ms":
            statistics.median(tracer.external_ms) if tracer.external_ms else 0.0,
        "proposers.external_propose.dropped": tracer.external_dropped / cases,
        "search.proposer_calls_per_case":
            (calls["proposers.builtin_enumerative_propose"] + calls["proposers.external_propose"])
            / cases,
        "search.steps_per_case": tracer.search_steps / cases,
        "search.rescored_rules_per_case":
            tracer.apply_rule_rescored / (workload.words * cases),
        "synthgen.rule_attempts_per_rule":
            ratio(calls["synthgen.sample_change_ops"], calls["synthgen.gen_ling_rule"]),
        "synthgen.language_retries": (calls["synthgen.gen_ling_language"] - cases) / cases
            if calls["synthgen.gen_ling_language"] else 0.0,
        # (untraced - traced cases/s) / untraced, over the same cases
        "trace_overhead_frac": 1.0 - plain_s / traced_s,
    })
    info = {"cases": cases, "untraced_s": plain_s, "traced_s": traced_s}
    return metrics, outcomes, info


def run_one(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    for required in (os.path.join(SRC, "cascade_forge", "__init__.py"),
                     os.path.join(TESTS, "oracles.py")):
        if not os.path.isfile(required):
            print(f"benchmark: {required} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, TESTS]
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        runner = traced if args.trace else end_to_end
        metrics, outcomes, info = runner(workload, args.seed, args.seconds, workdir)
    except (SetupError, tracing.TraceError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.problems]
    summary = quality(workload, outcomes)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"params {json.dumps(workload.params, sort_keys=True)}")
    for key, value in info.items():
        print(f"{key} {value}")
    for index, outcome in enumerate(outcomes):
        for problem in outcome.problems:
            print(f"FAILED case {index}: {problem}", file=sys.stderr)
    print(f"failed_frac {len(failed) / len(outcomes)} fraction ({len(failed)}/{len(outcomes)})")
    for name in ("pass_rate", "reward_at_1"):
        unit = "fraction" if name == "pass_rate" else "reward"
        value = summary.get(name, "n/a (no induction)")
        print(f"{name} {value} {unit} (first {summary['quality_cases']} cases)")
    print(f"digest {summary['digest']} (first {summary['quality_cases']} cases)")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    status = 0
    for name in wl.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = subprocess.run(command, check=False).returncode or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
