"""Command-line surface: apply, eval, induce, generate, select-examples.

Reports are machine-readable JSON first and human tables second; every
command that takes ``--seed`` is bit-reproducible for its data artifacts
(manifest and log files carry wall-clock timestamps and are excluded
from that contract).  Output files are written atomically.

Exit codes: 0 success, 2 parse or usage error or an output file that cannot
be written, 3 tokenization error, 4 proposer failure, 5 generation budget
exhausted.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import hashlib
import json
import os
import shlex
import shutil
import sys

from cascade_forge import __version__
from cascade_forge.metrics import Dataset, ExamplePair, reward_report, reward_at_m
from cascade_forge.phonology import (
    Inventory,
    InventoryError,
    TokenizeError,
    default_inventory,
    load_inventory,
    tokenize,
)
from cascade_forge.proposers import (
    ProposerHandle,
    builtin_proposer,
    ensemble_proposer,
    external_proposer,
)
from cascade_forge.resources import atomic_write, dumps, pairs_tsv
from cascade_forge.rule_engine import (
    Cascade,
    RuleError,
    apply_cascade,
    parse_cascade,
    parse_rule,
    rule_to_obj,
)
from cascade_forge.search import (
    SearchConfig,
    beam_search_cascade,
    induce_single_law,
    select_examples_ites,
)
from cascade_forge.synthgen import (
    GenerationError,
    LingSpec,
    SmpSpec,
    case_files,
    gen_ling_corpus,
    gen_multilaw_evalset,
    gen_smp_corpus,
    gen_smp_law,
    task_rng,
    write_corpus,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TOKENIZE = 3
EXIT_PROPOSER = 4
EXIT_BUDGET = 5


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# --- small IO helpers ---------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from None


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


def _load_inventory(path: str | None) -> Inventory:
    if path is None:
        return default_inventory()
    try:
        return load_inventory(_read_text(path))
    except InventoryError as exc:
        raise CliError(f"inventory {path}: {exc}", EXIT_PARSE) from None


def _tokenize(word: str, inv: Inventory, where: str):
    try:
        return tokenize(word, inv)
    except TokenizeError as exc:
        raise CliError(f"{where}: {exc}", EXIT_TOKENIZE) from None


def _data_lines(path: str):
    """Each ``(lineno, line)`` of the file that is neither blank nor a ``%`` comment."""
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if line.strip() and not line.lstrip().startswith("%"):
            yield lineno, line


def read_pairs(path: str, inv: Inventory) -> Dataset:
    """Two-column TSV (protoform<TAB>reflex) of ``_data_lines``."""
    pairs: list[ExamplePair] = []
    for lineno, line in _data_lines(path):
        if line.count("\t") != 1:
            raise CliError(f"{path}:{lineno}: expected 'source<TAB>target'", EXIT_PARSE)
        source_text, target_text = line.split("\t")
        source = _tokenize(source_text, inv, f"{path}:{lineno} source")
        target = _tokenize(target_text, inv, f"{path}:{lineno} target")
        pairs.append(ExamplePair(source, target, f"L{lineno:04d}"))
    if not pairs:
        raise CliError(f"{path}: no pairs", EXIT_PARSE)
    return Dataset(pairs, name=os.path.basename(path))


def read_words(path: str, inv: Inventory) -> list:
    """One word per ``_data_lines`` line, surrounding whitespace stripped."""
    words = []
    for lineno, line in _data_lines(path):
        words.append(_tokenize(line.strip(), inv, f"{path}:{lineno}"))
    if not words:
        raise CliError(f"{path}: no words", EXIT_PARSE)
    return words


def _parse_file(parse, path: str, what: str, inv: Inventory):
    """``parse`` applied to the file's text; a rule error names the file."""
    try:
        return parse(_read_text(path), inv)
    except RuleError as exc:
        raise CliError(f"{what} {path}: {exc}", EXIT_PARSE) from None


def _load_cascade(args) -> tuple[Inventory, Cascade]:
    """The inventory, and the --rule or --cascade file checked against it."""
    inv = _load_inventory(args.inventory)
    if args.rule:
        return inv, Cascade([_parse_file(parse_rule, args.rule, "rule", inv)])
    return inv, _parse_file(parse_cascade, args.cascade, "cascade", inv)


def _manifest(args, config: dict, inputs: list[str]) -> dict:
    return {
        "command": [os.path.basename(sys.argv[0] or "cascade-forge"), *map(str, args._raw_argv)],
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "started_at_utc": _now(),
        "finished_at_utc": None,
        "inputs": {path: _sha256(path) for path in inputs if path and os.path.exists(path)},
    }


def _write_manifest(out_dir: str, manifest: dict) -> None:
    atomic_write(os.path.join(out_dir, "manifest.json"), dumps(manifest))


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


# --- commands -------------------------------------------------------------------


def cmd_apply(args) -> int:
    inv, cascade = _load_cascade(args)
    if args.pairs:
        words = [p.source for p in read_pairs(args.pairs, inv).pairs]
    else:
        words = read_words(args.words, inv)
    for word in words:
        final, trace = apply_cascade(cascade, word, inv)
        if args.trace:
            columns = [word.surface, *[w.surface for w in trace]]
            print("\t".join(columns))
        else:
            print(pairs_tsv([(word, final)]), end="")
    return EXIT_OK


def _report_obj(dataset: Dataset, preds) -> dict:
    report = reward_report(dataset.sources, preds, dataset.targets)
    return {
        "reward": report.reward,
        "pass": report.passed,
        "dist_source_target": report.dist_source_target,
        "dist_pred_target": report.dist_pred_target,
        "pairs": [
            {
                "id": pair.id,
                "source": pair.source.surface,
                "pred": pred.surface,
                "target": pair.target.surface,
                "dist": distance,
            }
            for pair, pred, distance in zip(dataset.pairs, preds, report.per_pair)
        ],
    }


def cmd_eval(args) -> int:
    if args.out:
        _check_out_dir(args.out)
        _refuse_earlier_run(args.out, "eval")
    inv, cascade = _load_cascade(args)
    dataset = read_pairs(args.pairs, inv)
    # Score each prediction as its surface reads back, the way the target was
    # read: output phones t,s read back as the one phone ts where it exists.
    preds = [
        _tokenize(
            apply_cascade(cascade, p.source, inv)[0].surface, inv,
            f"{args.pairs}: prediction for pair {p.id} ({p.source.surface!r})",
        )
        for p in dataset.pairs
    ]
    obj = _report_obj(dataset, preds)
    if args.out:
        manifest = _manifest(args, {"mode": "eval"}, [args.pairs, args.inventory or "", args.cascade or args.rule])
        _write_manifest(args.out, manifest)
        atomic_write(os.path.join(args.out, "report.json"), dumps(obj))
        manifest["finished_at_utc"] = _now()
        _write_manifest(args.out, manifest)
    if args.json:
        print(dumps(obj), end="")
    else:
        rows = [
            [p["id"], p["source"], p["pred"], p["target"], str(p["dist"])]
            for p in obj["pairs"]
        ]
        print(_render_table(["id", "source", "pred", "target", "dist"], rows))
        print(f"reward {obj['reward']:.6f}  pass {obj['pass']}  "
              f"dist {obj['dist_pred_target']}/{obj['dist_source_target']}")
    return EXIT_OK


def _proposer_from_spec(spec: str) -> ProposerHandle:
    if spec == "builtin":
        return builtin_proposer()
    if spec.startswith("exec:"):
        command = shlex.split(spec[len("exec:"):])
        if not command:
            raise CliError("empty exec: proposer command", EXIT_PROPOSER)
        resolved = shutil.which(command[0]) or (
            command[0] if os.path.isfile(command[0]) and os.access(command[0], os.X_OK) else None
        )
        if resolved is None:
            raise CliError(f"proposer command not found or not executable: {command[0]}", EXIT_PROPOSER)
        return external_proposer(command, name=spec)
    raise CliError(f"unknown proposer spec {spec!r} (use 'builtin' or 'exec:CMD ...')", EXIT_PARSE)


def cmd_induce(args) -> int:
    _check_out_dir(args.out)
    _refuse_earlier_run(args.out)
    inv = _load_inventory(args.inventory)
    dataset = read_pairs(args.pairs, inv)
    handles = [_proposer_from_spec(args.proposer)]
    for extra in args.ensemble or []:
        handles.append(_proposer_from_spec(extra))
    handle = handles[0] if len(handles) == 1 else ensemble_proposer(handles)

    if args.samples is None:
        args.samples = 20 if args.mode == "single" else 1
    config_obj = {
        "mode": args.mode,
        "proposer": args.proposer,
        "ensemble": list(args.ensemble or []),
        "samples": args.samples,
        "beams": args.beams,
        "max_steps": args.max_steps,
        "seed": args.seed,
        "ites": args.ites,
    }
    manifest = _manifest(args, config_obj, [args.pairs, args.inventory or ""])
    _write_manifest(args.out, manifest)
    atomic_write(os.path.join(args.out, "config.json"), dumps(config_obj))
    diagnostics: list[str] = []

    if args.mode == "single":
        ranked = induce_single_law(
            handle, dataset, samples=args.samples, use_ites=args.ites, inv=inv,
            diagnostics=diagnostics,
        )
        rewards = [report.reward for _, report in ranked]
        ranked_obj = [
            {"rule": rule_to_obj(rule), "reward": report.reward, "pass": report.passed}
            for rule, report in ranked
        ]
        atomic_write(os.path.join(args.out, "ranked.json"), dumps(ranked_obj))
        if ranked_obj:
            atomic_write(os.path.join(args.out, "best.json"), dumps(ranked_obj[0]))
    else:
        config = SearchConfig(beam_width=args.beams, samples_per_step=args.samples, max_steps=args.max_steps)
        beams = beam_search_cascade(
            handle, dataset, config, inv=inv, use_ites=args.ites, run_dir=args.out,
            diagnostics=diagnostics,
        )
        rewards = [b.reward for b in beams]
    if diagnostics:
        atomic_write(os.path.join(args.out, "diagnostics.txt"), "\n".join(diagnostics) + "\n")

    summary = {
        "best_reward": rewards[0] if rewards else None,
        "pass": bool(rewards and rewards[0] == 1.0),
        "candidates": len(rewards),
    }
    for m in (1, 3, 5, 10):
        summary[f"reward_at_{m}"] = reward_at_m([rewards], m) if rewards else None
    atomic_write(os.path.join(args.out, "summary.json"), dumps(summary))
    manifest["finished_at_utc"] = _now()
    _write_manifest(args.out, manifest)

    if args.json:
        print(dumps(summary), end="")
    else:
        if rewards:
            print(f"best reward {summary['best_reward']:.6f}  pass {summary['pass']}")
            print("  ".join(
                f"reward@{m} {summary[f'reward_at_{m}']:.4f}" for m in (1, 3, 5, 10)
            ))
        else:
            print("no candidates proposed")
    return EXIT_OK


def _check_out_dir(out_dir: str) -> None:
    """Exit 2 before any work if ``out_dir``, or its nearest existing
    ancestor, exists but is not a directory."""
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise CliError(f"--out {out_dir} exists and is not a directory", EXIT_PARSE)
    ancestor = os.path.dirname(os.path.normpath(out_dir))
    while ancestor and not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        raise CliError(f"--out {out_dir}: {ancestor} is not a directory", EXIT_PARSE)


def _refuse_earlier_run(out_dir: str, rerun: str | None = None) -> None:
    """Exit 2 if ``out_dir`` holds the ``manifest.json`` an earlier run wrote first.

    That run's files this one would not rewrite would be left beside its
    output, and deleting them could delete a user's file.  A ``rerun``
    command may reuse the directory of an earlier run of that same
    command, whose files it rewrites; a manifest naming another command,
    or not read as a manifest, still stops it.
    """
    manifest = os.path.join(out_dir, "manifest.json")
    if not os.path.lexists(manifest):
        return
    if rerun is None:
        raise CliError(f"--out {out_dir} holds {manifest} from an earlier run", EXIT_PARSE)
    try:
        with open(manifest, encoding="utf-8") as fh:
            command = json.load(fh)["command"][1]
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        raise CliError(f"--out {out_dir} holds {manifest}, which is not a run manifest", EXIT_PARSE) from None
    if command != rerun:
        raise CliError(f"--out {out_dir} holds {manifest} from an earlier {command!r} run", EXIT_PARSE)


def _refuse_stale_cases(out_dir: str, count: int, rules: int) -> None:
    """Exit 2 if a ``case_*`` entry in ``out_dir`` holds anything this run would not write.

    This run writes the ``case_files`` of ``count`` cases of ``rules`` rules
    each.  A case beyond ``count``, or another ground truth's file beside a
    case's own, would be left mixed with this run's output, and deleting it
    could delete a user's file.
    """
    written = {path for index in range(count) for path in case_files(index, rules)}
    cases = {os.path.dirname(path) for path in written}
    names = os.listdir(out_dir) if os.path.isdir(out_dir) else []
    for name in sorted(n for n in names if n.startswith("case_")):
        path = os.path.join(out_dir, name)
        held = [name]
        if name in cases and os.path.isdir(path):
            held = [os.path.join(name, inner) for inner in sorted(os.listdir(path))]
        stale = [entry for entry in held if entry not in written]
        if stale:
            raise CliError(f"--out {out_dir} holds {stale[0]}, which this run would not write", EXIT_PARSE)


# Each generator's options recorded in the manifest.  The first is its case
# count and, for ling and multilaw, the second its rules per case.
_GENERATE_OPTIONS = {
    "smp": ("laws", "n", "seed"),
    "ling": ("langs", "rules", "protoforms", "min_applicable", "seed"),
    "multilaw": ("sets", "rules_per_set", "words", "pool", "pool_laws", "seed"),
}


def cmd_generate(args) -> int:
    options = _GENERATE_OPTIONS[args.generator]
    _check_out_dir(args.out)
    _refuse_earlier_run(args.out, "generate")
    rules = 1 if args.generator == "smp" else getattr(args, options[1])
    _refuse_stale_cases(args.out, getattr(args, options[0]), rules)
    inv = _load_inventory(args.inventory)
    config = {"generator": args.generator, **{name: getattr(args, name) for name in options}}
    manifest = _manifest(args, config, [args.inventory or "", getattr(args, "pool", None) or ""])
    if args.generator == "smp":
        try:
            spec = SmpSpec(examples_per_law=args.n, seed=args.seed)
        except ValueError as exc:
            raise CliError(f"--n {args.n}: {exc}", EXIT_PARSE) from None
        cases = gen_smp_corpus(inv, spec, args.laws)
    elif args.generator == "ling":
        try:
            spec = LingSpec(
                num_languages=args.langs,
                rules_per_language=args.rules,
                protoforms_per_language=args.protoforms,
                min_applicable=args.min_applicable,
                seed=args.seed,
            )
        except ValueError:
            message = f"--min-applicable {args.min_applicable}: must be at most --protoforms {args.protoforms}"
            raise CliError(message, EXIT_PARSE) from None
        cases = gen_ling_corpus(inv, spec)
    else:
        if args.pool:
            pool = _parse_file(parse_cascade, args.pool, "pool", inv)
        else:
            pool = Cascade([
                gen_smp_law(inv, SmpSpec(), task_rng(args.seed, "pool", i), name=f"pool-{i:03d}")
                for i in range(args.pool_laws)
            ])
        cases = gen_multilaw_evalset(
            inv, pool, args.rules_per_set, args.sets, args.words, task_rng(args.seed, "multilaw")
        )
    # The manifest goes first, as in eval and induce: case files that a
    # failed write leaves behind sit beside it, so a later run refuses --out.
    _write_manifest(args.out, manifest)
    manifest["finished_at_utc"] = _now()
    write_corpus(args.out, cases, manifest)
    print(f"wrote {len(cases)} cases to {args.out}")
    return EXIT_OK


def cmd_select_examples(args) -> int:
    inv = _load_inventory(args.inventory)
    dataset = read_pairs(args.pairs, inv)
    filtered, triggers = select_examples_ites(dataset.pairs)
    atomic_write(args.out, pairs_tsv((p.source, p.target) for p in filtered))
    print(f"kept {len(filtered)}/{len(dataset.pairs)} pairs; "
          f"trigger phones: {' '.join(sorted(triggers)) if triggers else '(none)'}")
    if not filtered:
        print("warning: no changed pairs; nothing retained", file=sys.stderr)
    return EXIT_OK


def cmd_inventory_check(args) -> int:
    inv = _load_inventory(args.inventory)
    longest = max(len(s) for s in inv.symbols)
    print(f"{len(inv)} phones, {inv.num_features} features, longest symbol {longest} codepoints")
    multi = [s for s in inv.symbols if len(s) > 1]
    if multi:
        print(f"multi-codepoint symbols: {' '.join(sorted(multi))}")
    return EXIT_OK


# --- parser ----------------------------------------------------------------------


def _count(text: str) -> int:
    """Argparse type of the count options: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade-forge",
        description="Sound-law rule application, evaluation, induction and corpus generation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inventory(p):
        p.add_argument("--inventory", help="inventory TSV (default: bundled inventory)")

    p_apply = sub.add_parser("apply", help="apply a rule or cascade to words")
    group = p_apply.add_mutually_exclusive_group(required=True)
    group.add_argument("--rule", help="rule JSON file")
    group.add_argument("--cascade", help="cascade JSON file")
    source = p_apply.add_mutually_exclusive_group(required=True)
    source.add_argument("--pairs", help="pairs TSV; sources are transformed")
    source.add_argument("--words", help="word list, one per line")
    p_apply.add_argument("--trace", action="store_true", help="print per-rule intermediate forms")
    add_inventory(p_apply)
    p_apply.set_defaults(fn=cmd_apply)

    p_eval = sub.add_parser("eval", help="score a cascade against a pairs file")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--rule")
    group.add_argument("--cascade")
    p_eval.add_argument("--pairs", required=True)
    p_eval.add_argument("--out", help="directory for report.json")
    p_eval.add_argument("--json", action="store_true", help="print JSON instead of a table")
    add_inventory(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_induce = sub.add_parser("induce", help="induce a rule or cascade from pairs")
    p_induce.add_argument("--pairs", required=True)
    p_induce.add_argument("--proposer", default="builtin", help="'builtin' or 'exec:CMD ...'")
    p_induce.add_argument("--ensemble", action="append", help="additional proposer spec (repeatable)")
    p_induce.add_argument("--mode", choices=("single", "cascade"), default="single")
    p_induce.add_argument("--samples", type=_count, default=None,
                          help="candidates per request (default: 20 single, 1 cascade)")
    p_induce.add_argument("--beams", type=_count, default=20)
    p_induce.add_argument("--max-steps", type=_count, default=10)
    p_induce.add_argument("--seed", type=int, default=0)
    p_induce.add_argument("--ites", action="store_true", help="filter the proposer's examples")
    p_induce.add_argument("--out", required=True, help="run directory")
    p_induce.add_argument("--json", action="store_true")
    add_inventory(p_induce)
    p_induce.set_defaults(fn=cmd_induce)

    p_generate = sub.add_parser("generate", help="generate a synthetic corpus")
    gen_sub = p_generate.add_subparsers(dest="generator", required=True)

    p_smp = gen_sub.add_parser("smp", help="string-manipulation laws")
    p_smp.add_argument("--laws", type=_count, default=100)
    p_smp.add_argument("--n", type=int, default=50, help="examples per law")
    p_ling = gen_sub.add_parser("ling", help="feature-driven laws over nonce protoforms")
    p_ling.add_argument("--langs", type=_count, default=2000)
    p_ling.add_argument("--rules", type=_count, default=3)
    p_ling.add_argument("--protoforms", type=_count, default=50)
    p_ling.add_argument("--min-applicable", type=_count, default=3)
    p_multi = gen_sub.add_parser("multilaw", help="ordered rule subsets with balanced word sets")
    p_multi.add_argument("--sets", type=_count, default=10)
    p_multi.add_argument("--rules-per-set", type=_count, default=5)
    p_multi.add_argument("--words", type=_count, default=50)
    p_multi.add_argument("--pool", help="cascade JSON to sample rules from")
    p_multi.add_argument("--pool-laws", type=_count, default=25,
                         help="laws to generate for the pool when --pool is absent")
    for p in (p_smp, p_ling, p_multi):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        add_inventory(p)
        p.set_defaults(fn=cmd_generate)

    p_select = sub.add_parser("select-examples", help="drop identity pairs without trigger phones")
    p_select.add_argument("--pairs", required=True)
    p_select.add_argument("--out", required=True, help="filtered pairs TSV")
    add_inventory(p_select)
    p_select.set_defaults(fn=cmd_select_examples)

    p_inventory = sub.add_parser("inventory", help="inventory utilities")
    inv_sub = p_inventory.add_subparsers(dest="inventory_command", required=True)
    p_check = inv_sub.add_parser("check", help="validate an inventory file")
    add_inventory(p_check)
    p_check.set_defaults(fn=cmd_inventory_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._raw_argv = argv
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TokenizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOKENIZE
    except (InventoryError, RuleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
