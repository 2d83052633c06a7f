import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cascade_forge.cli import main, read_pairs, read_words
from cascade_forge.phonology import default_inventory
from cascade_forge.search import select_examples_ites
from cascade_forge.synthgen import GENERATOR_VERSION, SmpSpec, gen_smp_corpus, write_corpus
from conftest import tree_bytes

A_TO_E_RULE = {
    "predicates": [
        {"kind": "phone_set", "phones": ["a"]},
        {"kind": "is_nothing"},
        {"kind": "phone_set", "phones": ["j"]},
    ],
    "change_pos": [0],
    "mappings": [{"kind": "substitute", "map": {"a": ["e"]}}],
    "name": "a>e/_j",
}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rule.json").write_text(json.dumps(A_TO_E_RULE), encoding="utf-8")
    (tmp_path / "cascade.json").write_text(json.dumps([A_TO_E_RULE]), encoding="utf-8")
    (tmp_path / "pairs.tsv").write_text("kaj\tkej\nta\tta\n", encoding="utf-8")
    (tmp_path / "words.txt").write_text("% comment\naj\nkaja\n", encoding="utf-8")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- apply -----------------------------------------------------------------------


def test_apply_rule_to_words(workdir, capsys):
    code, out, _ = run(capsys, "apply", "--rule", "rule.json", "--words", "words.txt")
    assert code == 0
    assert out.splitlines() == ["aj\tej", "kaja\tkeja"]


def test_apply_cascade_with_trace(workdir, capsys):
    code, out, _ = run(capsys, "apply", "--cascade", "cascade.json",
                       "--pairs", "pairs.tsv", "--trace")
    assert code == 0
    assert out.splitlines()[0] == "kaj\tkej"


def test_apply_trace_has_one_column_per_rule(workdir, capsys):
    second = dict(A_TO_E_RULE)
    second["predicates"] = [{"kind": "phone_set", "phones": ["k"]}]
    second["mappings"] = [{"kind": "substitute", "map": {"k": ["t"]}}]
    second["name"] = "k>t"
    (workdir / "two.json").write_text(json.dumps([A_TO_E_RULE, second]), encoding="utf-8")
    code, out, _ = run(capsys, "apply", "--cascade", "two.json",
                       "--words", "words.txt", "--trace")
    assert code == 0
    first = out.splitlines()[0].split("\t")
    assert first == ["aj", "ej", "ej"]  # source, after rule 1, after rule 2


def test_apply_unsegmentable_word_exits_3(workdir, capsys):
    (workdir / "bad.txt").write_text("aXa\n", encoding="utf-8")
    code, _, err = run(capsys, "apply", "--rule", "rule.json", "--words", "bad.txt")
    assert code == 3
    assert "offset 1" in err


def test_apply_bad_rule_json_exits_2(workdir, capsys):
    (workdir / "broken.json").write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "apply", "--rule", "broken.json", "--words", "words.txt")
    assert code == 2


SMALL_INVENTORY = "a\t1,0\ne\t1,1\nj\t0,1\nk\t0,0\nt\t-1,0\n"

# Rules that no inventory admits, and the token each error must name.
INVALID_RULES = {
    "reserved-target": (
        {"predicates": [{"kind": "phone_set", "phones": ["a"]}], "change_pos": [0],
         "mappings": [{"kind": "substitute", "map": {"a": ["@"]}}]},
        "'@'",
    ),
    "reserved-phone-set": (
        {"predicates": [{"kind": "phone_set", "phones": ["#"]}], "change_pos": [0],
         "mappings": [{"kind": "delete"}]},
        "'#'",
    ),
    "phone-not-in-inventory": (
        {"predicates": [{"kind": "phone_set", "phones": ["i"]}], "change_pos": [0],
         "mappings": [{"kind": "delete"}]},
        "'i' not in inventory",
    ),
    "feature-index-past-any-inventory": (
        {"predicates": [{"kind": "feature_req", "reqs": {"100000000000000000000": 1}}],
         "change_pos": [0], "mappings": [{"kind": "delete"}]},
        "feature index 100000000000000000000 out of range",
    ),
}


@pytest.mark.parametrize("command", ["apply", "eval"])
@pytest.mark.parametrize("case", sorted(INVALID_RULES))
def test_invalid_rule_against_inventory_exits_2(workdir, capsys, command, case):
    rule, named = INVALID_RULES[case]
    (workdir / "small.tsv").write_text(SMALL_INVENTORY, encoding="utf-8")
    (workdir / "bad_rule.json").write_text(json.dumps(rule), encoding="utf-8")
    (workdir / "bad_cascade.json").write_text(json.dumps([rule]), encoding="utf-8")
    if command == "apply":
        argv = ["apply", "--rule", "bad_rule.json", "--words", "words.txt"]
    else:
        argv = ["eval", "--cascade", "bad_cascade.json", "--pairs", "pairs.tsv"]
    code, out, err = run(capsys, *argv, "--inventory", "small.tsv")
    assert code == 2
    assert out == ""
    assert named in err


# --- eval ------------------------------------------------------------------------


def test_eval_perfect_cascade(workdir, capsys):
    code, out, _ = run(capsys, "eval", "--cascade", "cascade.json",
                       "--pairs", "pairs.tsv", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["reward"] == 1.0 and report["pass"] is True
    assert [row["id"] for row in report["pairs"]] == ["L0001", "L0002"]


def test_eval_identity_cascade_scores_zero(workdir, capsys):
    (workdir / "empty.json").write_text("[]", encoding="utf-8")
    (workdir / "two.tsv").write_text("kat\tkot\nip\ti\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--cascade", "empty.json",
                       "--pairs", "two.tsv", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["dist_pred_target"] == 2
    assert report["reward"] == 0.0
    assert report["pass"] is False


def test_eval_writes_report(workdir, capsys):
    code, _, _ = run(capsys, "eval", "--cascade", "cascade.json",
                     "--pairs", "pairs.tsv", "--out", "evalrun")
    assert code == 0
    report = json.loads((workdir / "evalrun" / "report.json").read_text())
    assert report["pass"] is True
    manifest = json.loads((workdir / "evalrun" / "manifest.json").read_text())
    assert manifest["version"]
    assert manifest["finished_at_utc"]
    assert any(k.endswith("pairs.tsv") for k in manifest["inputs"])


def insert_after_final_a(phones):
    return {
        "predicates": [{"kind": "phone_set", "phones": ["a"]}, {"kind": "is_nothing"},
                       {"kind": "word_end"}],
        "change_pos": [1],
        "mappings": [{"kind": "insert", "phones": phones}],
    }


def test_eval_scores_a_prediction_as_its_surface_reads_back(workdir, capsys):
    # The bundled inventory has the phone ts, so the output phones t,s read back as it.
    (workdir / "ts.json").write_text(json.dumps(insert_after_final_a(["t", "s"])), encoding="utf-8")
    (workdir / "pats.tsv").write_text("pa\tpats\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--rule", "ts.json", "--pairs", "pats.tsv", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["pairs"][0]["dist"] == 0
    assert report["reward"] == 1.0 and report["pass"] is True


def test_eval_prediction_that_does_not_segment_exits_3(workdir, capsys):
    # a + bc reads as ab + c, and c is no phone.
    (workdir / "inv.tsv").write_text("!feature f\na\t1\nab\t0\nbc\t1\n", encoding="utf-8")
    (workdir / "bc.json").write_text(json.dumps(insert_after_final_a(["bc"])), encoding="utf-8")
    (workdir / "abc.tsv").write_text("a\tab\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", "--rule", "bc.json", "--pairs", "abc.tsv",
                         "--inventory", "inv.tsv", "--json")
    assert code == 3 and out == ""
    assert "prediction for pair L0001 ('a')" in err


# --- induce -----------------------------------------------------------------------


def test_induce_single_builtin(workdir, capsys):
    code, out, _ = run(capsys, "induce", "--pairs", "pairs.tsv",
                       "--mode", "single", "--out", "run", "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary["pass"] is True
    assert summary["best_reward"] == 1.0
    for name in ("manifest.json", "config.json", "ranked.json", "best.json", "summary.json"):
        assert (workdir / "run" / name).exists()


def test_induce_cascade_mode_layout(workdir, capsys):
    code, _, _ = run(capsys, "induce", "--pairs", "pairs.tsv", "--mode", "cascade",
                     "--beams", "4", "--samples", "1", "--max-steps", "3",
                     "--out", "cascrun")
    assert code == 0
    assert (workdir / "cascrun" / "beams" / "step_001.json").exists()
    assert (workdir / "cascrun" / "best.json").exists()
    config = json.loads((workdir / "cascrun" / "config.json").read_text())
    manifest = json.loads((workdir / "cascrun" / "manifest.json").read_text())
    assert config == manifest["config"]
    assert manifest["config"]["beams"] == 4
    assert manifest["config"]["max_steps"] == 3
    assert manifest["config"]["samples"] == 1


def test_induce_with_ites_flag(workdir, capsys):
    (workdir / "mixed.tsv").write_text("kaj\tkej\ntu\ttu\n", encoding="utf-8")
    code, out, _ = run(capsys, "induce", "--pairs", "mixed.tsv", "--mode", "single",
                       "--ites", "--out", "itesrun", "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary["pass"] is True
    manifest = json.loads((workdir / "itesrun" / "manifest.json").read_text())
    assert manifest["config"]["ites"] is True


def reply_stub(workdir, reply):
    """An ``exec:`` proposer spec for a stub that answers every request with the line ``reply``."""
    import sys as sys_mod
    (workdir / "reply.txt").write_text(reply, encoding="utf-8")
    stub = workdir / "stub.py"
    stub.write_text(
        "import sys\n"
        f"reply = open({str(workdir / 'reply.txt')!r}, encoding='utf-8').read()\n"
        "for line in sys.stdin:\n"
        "    print(reply, flush=True)\n",
        encoding="utf-8",
    )
    return f"exec:{sys_mod.executable} {stub}"


def empty_exec_stub(workdir):
    """An ``exec:`` proposer spec for a stub that answers with no programs."""
    return reply_stub(workdir, json.dumps({"v": 1, "programs": []}))


DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


def deep_not_rule(depth):
    """A_TO_E_RULE with its first phone set wrapped in ``depth`` nested ``not`` predicates."""
    pred = A_TO_E_RULE["predicates"][0]
    for _ in range(depth):
        pred = {"kind": "not", "inner": pred}
    return {**A_TO_E_RULE, "predicates": [pred, *A_TO_E_RULE["predicates"][1:]]}


@pytest.mark.parametrize("deep", ["array", "not"])
def test_induce_survives_an_over_deep_reply(workdir, capsys, deep):
    # Both replies once ended the run in a RecursionError traceback.
    programs = DEEP_ARRAY if deep == "array" else json.dumps([deep_not_rule(600)])
    stub = reply_stub(workdir, '{"v": 1, "programs": %s}' % programs)
    code, _, _ = run(capsys, "induce", "--pairs", "pairs.tsv", "--mode", "single",
                     "--proposer", stub, "--out", "deep")
    assert code == 0
    diagnostics = (workdir / "deep" / "diagnostics.txt").read_text(encoding="utf-8").splitlines()
    assert len(diagnostics) == 1
    if deep == "array":
        assert diagnostics[0].startswith("malformed proposer response: ")
    else:
        assert diagnostics[0].startswith("dropped invalid candidate 0 from ")
        assert diagnostics[0].endswith(": /programs/0: 'not' nested over 8 deep at position 0")


@pytest.mark.parametrize("deep", ["array", "not"])
def test_apply_over_deep_rule_exits_2(workdir, capsys, deep):
    text = DEEP_ARRAY if deep == "array" else json.dumps(deep_not_rule(600))
    (workdir / "deep.json").write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "apply", "--rule", "deep.json", "--words", "words.txt")
    assert code == 2 and out == ""
    if deep == "array":
        assert err.startswith("error: rule deep.json: /: invalid JSON: ")
    else:
        assert err == "error: rule deep.json: /: 'not' nested over 8 deep at position 0\n"


def test_induce_ensemble_with_exec_stub(workdir, capsys):
    code, out, _ = run(capsys, "induce", "--pairs", "pairs.tsv", "--mode", "single",
                       "--proposer", empty_exec_stub(workdir),
                       "--ensemble", "builtin", "--out", "ens", "--json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_induce_with_a_bad_proposer_timeout_exits_2(workdir, capsys, monkeypatch):
    monkeypatch.setenv("CASCADE_FORGE_PROPOSER_TIMEOUT_MS", "abc")
    code, _, err = run(capsys, "induce", "--pairs", "pairs.tsv",
                       "--proposer", empty_exec_stub(workdir), "--out", "bad")
    assert code == 2
    assert err.startswith("error: CASCADE_FORGE_PROPOSER_TIMEOUT_MS") and "'abc'" in err


def test_induce_missing_proposer_exits_4(workdir, capsys):
    code, _, err = run(capsys, "induce", "--pairs", "pairs.tsv",
                       "--proposer", "exec:/does/not/exist", "--out", "r4")
    assert code == 4
    assert "not found" in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--pairs", "missing.tsv"], 2, "error: cannot read missing.tsv: "),
        (["--pairs", "comments.tsv"], 2, "error: comments.tsv: no pairs\n"),
        (["--pairs", "pairs.tsv", "--proposer", "exec:"], 4, "error: empty exec: proposer command\n"),
        (["--pairs", "pairs.tsv", "--proposer", "foo"], 2, "error: unknown proposer spec 'foo' "),
    ],
)
def test_induce_that_cannot_start_exits_without_creating_out(workdir, capsys, argv, code, message):
    (workdir / "comments.tsv").write_text("% a comment\n\n% another\n", encoding="utf-8")
    exit_code, out, err = run(capsys, "induce", *argv, "--out", "never")
    assert exit_code == code and out == ""
    assert err.startswith(message)
    assert not (workdir / "never").exists()


def test_apply_to_an_empty_word_list_exits_2(workdir, capsys):
    (workdir / "empty.txt").write_text("", encoding="utf-8")
    code, out, err = run(capsys, "apply", "--rule", "rule.json", "--words", "empty.txt")
    assert code == 2 and out == ""
    assert err == "error: empty.txt: no words\n"


@pytest.mark.parametrize("mode", ["single", "cascade"])
def test_induce_into_an_earlier_run_exits_2_before_writing(workdir, capsys, mode):
    # Identity pairs would leave the first run's best.json beside a summary
    # of 0 candidates, and a shorter run would leave its beams and log.
    code, _, _ = run(capsys, "induce", "--pairs", "pairs.tsv", "--mode", mode, "--out", "run")
    assert code == 0
    (workdir / "same.tsv").write_text("tu\ttu\nka\tka\n", encoding="utf-8")
    before = tree_bytes(workdir / "run")
    code, out, err = run(capsys, "induce", "--pairs", "same.tsv", "--out", "run")
    assert code == 2 and out == ""
    assert err == f"error: --out run holds {os.path.join('run', 'manifest.json')} from an earlier run\n"
    assert tree_bytes(workdir / "run") == before


def test_induce_into_an_existing_empty_directory(workdir, capsys):
    (workdir / "run").mkdir()
    code, _, _ = run(capsys, "induce", "--pairs", "pairs.tsv", "--out", "run")
    assert code == 0
    assert (workdir / "run" / "manifest.json").exists()


def test_induce_determinism(workdir, capsys):
    for name in ("d1", "d2"):
        code, _, _ = run(capsys, "induce", "--pairs", "pairs.tsv", "--mode", "single",
                         "--seed", "9", "--out", name)
        assert code == 0
    timed = ("manifest.json", "log.txt")
    assert tree_bytes(workdir / "d1", timed) == tree_bytes(workdir / "d2", timed)


HASH_SEED_SCRIPT = """
import os, sys
from cascade_forge.cli import main
out = sys.argv[1]
gen = os.path.join(out, "gen")
assert main(["generate", "smp", "--laws", "4", "--n", "30", "--seed", "21", "--out", gen]) == 0
for case in sorted(name for name in os.listdir(gen) if name.startswith("case_")):
    for mode, extra in (("plain", []), ("ites", ["--ites"])):
        assert main(["induce", "--pairs", os.path.join(gen, case, "pairs.tsv"), "--mode", "single",
                     "--seed", "21", *extra, "--out", os.path.join(out, mode, case)]) == 0
assert main(["generate", "ling", "--langs", "5", "--seed", "21", "--out", os.path.join(out, "ling")]) == 0
assert main(["generate", "multilaw", "--sets", "3", "--words", "20", "--seed", "21",
             "--out", os.path.join(out, "multilaw")]) == 0
"""


def test_single_induction_is_byte_identical_across_hash_seeds(tmp_path):
    # Candidates hash as tuples of strings, whose hashes change with the
    # hash seed; one process (C09) cannot see order leaking from them.  The
    # ling and multilaw generators keep dicts keyed by phones, so they run too.
    src = Path(__file__).resolve().parent.parent / "src"
    trees = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"seed{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT, str(out)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        trees.append(tree_bytes(out, ("manifest.json", "log.txt")))
    assert trees[0] == trees[1]
    assert sum(name.startswith("ites") for name in trees[0]) >= 4
    assert sum(name.startswith(("ling", "multilaw")) for name in trees[0]) == 2 * (5 + 3)


# --- generate ----------------------------------------------------------------------


def test_generate_smp_deterministic(workdir, capsys):
    for name in ("g1", "g2"):
        code, _, _ = run(capsys, "generate", "smp", "--laws", "3", "--n", "20",
                         "--seed", "7", "--out", name)
        assert code == 0
    timed = ("manifest.json", "log.txt")
    assert tree_bytes(workdir / "g1", timed) == tree_bytes(workdir / "g2", timed)
    assert (workdir / "g1" / "case_0002" / "rule.json").exists()
    manifest = json.loads((workdir / "g1" / "manifest.json").read_text())
    assert manifest["generator_version"] == GENERATOR_VERSION
    assert manifest["cases"] == 3 and manifest["finished_at_utc"]


def test_generate_writes_one_manifest_stamped_before_generating(workdir, capsys, monkeypatch):
    from cascade_forge import cli, synthgen

    events = []
    real_corpus, real_write = cli.gen_smp_corpus, synthgen.atomic_write

    def corpus(*args):
        events.append("generate")
        return real_corpus(*args)

    def write(path, text):
        if os.path.basename(path) == "manifest.json":
            events.append("manifest")
        real_write(path, text)

    def now():
        events.append("clock")
        return f"t{len(events)}"

    monkeypatch.setattr(cli, "gen_smp_corpus", corpus)
    monkeypatch.setattr(cli, "_now", now)
    monkeypatch.setattr(cli, "atomic_write", write)
    monkeypatch.setattr(synthgen, "atomic_write", write)
    code, _, _ = run(capsys, "generate", "smp", "--laws", "2", "--n", "10", "--out", "g")
    assert code == 0
    # the unfinished manifest is written after generating, before any case file
    assert events == ["clock", "generate", "manifest", "clock", "manifest"]
    manifest = json.loads((workdir / "g" / "manifest.json").read_text())
    assert (manifest["started_at_utc"], manifest["finished_at_utc"]) == ("t1", "t4")
    assert manifest["config"] == {"generator": "smp", "laws": 2, "n": 10, "seed": 0}
    assert "spec" not in manifest


def test_generate_that_fails_writing_cases_leaves_a_manifest_that_stops_induce(
    workdir, capsys, monkeypatch
):
    from cascade_forge import synthgen

    real_write, calls = synthgen.atomic_write, []

    def write(path, text):
        calls.append(path)
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        real_write(path, text)

    monkeypatch.setattr(synthgen, "atomic_write", write)
    code, _, _ = run(capsys, "generate", "smp", "--laws", "3", "--n", "10", "--out", "d")
    assert code == 2
    assert sorted(os.listdir(workdir / "d" / "case_0000")) == ["pairs.tsv", "rule.json"]
    monkeypatch.setattr(synthgen, "atomic_write", real_write)
    code, _, err = run(capsys, "induce", "--pairs", "pairs.tsv", "--out", "d")
    assert code == 2
    assert err == f"error: --out d holds {os.path.join('d', 'manifest.json')} from an earlier run\n"
    assert json.loads((workdir / "d" / "manifest.json").read_text())["finished_at_utc"] is None


def test_generate_refuses_an_out_dir_holding_cases_it_would_not_write(workdir, capsys):
    code, _, _ = run(capsys, "generate", "smp", "--laws", "3", "--n", "10", "--out", "d")
    assert code == 0
    (workdir / "d" / "notes.txt").write_text("mine\n", encoding="utf-8")
    before = tree_bytes(workdir / "d")
    code, _, err = run(capsys, "generate", "smp", "--laws", "2", "--n", "10", "--out", "d")
    assert code == 2
    assert "case_0002" in err
    assert tree_bytes(workdir / "d") == before
    # a run that rewrites every case present may reuse the directory
    code, _, _ = run(capsys, "generate", "smp", "--laws", "4", "--n", "10", "--out", "d")
    assert code == 0
    assert json.loads((workdir / "d" / "manifest.json").read_text())["cases"] == 4
    assert (workdir / "d" / "notes.txt").read_text() == "mine\n"


@pytest.mark.parametrize(
    "first, second, held",
    [
        (("smp", "--laws", "2", "--n", "10"),
         ("multilaw", "--sets", "2", "--rules-per-set", "2", "--words", "10", "--pool-laws", "4"),
         "rule.json"),
        (("ling", "--langs", "1", "--rules", "3", "--protoforms", "10"),
         ("ling", "--langs", "1", "--rules", "1", "--protoforms", "10"),
         "cascade.json"),
    ],
    ids=["smp-then-multilaw", "ling-3-then-ling-1"],
)
def test_generate_refuses_a_case_holding_another_ground_truth(workdir, capsys, first, second, held):
    code, _, _ = run(capsys, "generate", *first, "--out", "d")
    assert code == 0
    before = tree_bytes(workdir / "d")
    code, _, err = run(capsys, "generate", *second, "--out", "d")
    assert code == 2
    assert f"holds case_0000/{held}, which this run would not write" in err
    assert tree_bytes(workdir / "d") == before


EVAL_OUT = ("eval", "--pairs", "pairs.tsv", "--cascade", "cascade.json", "--out", "run")
GENERATE_OUT = ("generate", "smp", "--laws", "1", "--n", "10", "--out", "run")


@pytest.mark.parametrize(
    "first, second",
    [
        (("induce", "--pairs", "pairs.tsv", "--out", "run"), GENERATE_OUT),
        (("induce", "--pairs", "pairs.tsv", "--out", "run"), EVAL_OUT),
        (EVAL_OUT, GENERATE_OUT),
    ],
    ids=["induce-then-generate", "induce-then-eval", "eval-then-generate"],
)
def test_generate_and_eval_refuse_an_out_dir_another_command_wrote(workdir, capsys, first, second):
    code, _, _ = run(capsys, *first)
    assert code == 0
    before = tree_bytes(workdir / "run")
    code, out, err = run(capsys, *second)
    assert code == 2 and out == ""
    manifest = os.path.join("run", "manifest.json")
    assert err == f"error: --out run holds {manifest} from an earlier {first[0]!r} run\n"
    assert tree_bytes(workdir / "run") == before


@pytest.mark.parametrize("argv", [GENERATE_OUT, EVAL_OUT], ids=["generate", "eval"])
@pytest.mark.parametrize(
    "text", ["not json\n", "{}\n", '{"command": ["cascade-forge"]}\n', DEEP_ARRAY],
    ids=["not-json", "no-command", "no-subcommand", "nested-too-deep"],
)
def test_generate_and_eval_refuse_a_manifest_that_is_not_a_run_manifest(workdir, capsys, argv, text):
    (workdir / "run").mkdir()
    (workdir / "run" / "manifest.json").write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    manifest = os.path.join("run", "manifest.json")
    assert err == f"error: --out run holds {manifest}, which is not a run manifest\n"
    assert tree_bytes(workdir / "run") == {"manifest.json": text.encode("utf-8")}


def test_eval_may_rewrite_its_own_out_dir(workdir, capsys):
    code, first, _ = run(capsys, *EVAL_OUT, "--json")
    assert code == 0
    (workdir / "cascade.json").write_text("[]", encoding="utf-8")
    code, second, _ = run(capsys, *EVAL_OUT, "--json")
    assert code == 0 and second != first
    assert (workdir / "run" / "report.json").read_text(encoding="utf-8") == second
    assert sorted(os.listdir(workdir / "run")) == ["manifest.json", "report.json"]


# The commands taking an output directory, before their --out argument.
out_dir_commands = pytest.mark.parametrize(
    "argv",
    [
        ("generate", "smp", "--laws", "1", "--n", "10"),
        ("induce", "--pairs", "pairs.tsv"),
        ("eval", "--pairs", "pairs.tsv", "--cascade", "cascade.json"),
    ],
    ids=["generate", "induce", "eval"],
)


@out_dir_commands
def test_out_naming_a_regular_file_exits_2_before_writing(workdir, capsys, argv):
    (workdir / "afile").write_text("mine\n", encoding="utf-8")
    before = tree_bytes(workdir)
    code, out, err = run(capsys, *argv, "--out", "afile")
    assert code == 2
    assert err == "error: --out afile exists and is not a directory\n"
    assert out == ""
    assert tree_bytes(workdir) == before


@out_dir_commands
def test_out_below_a_regular_file_exits_2(workdir, capsys, argv):
    (workdir / "afile").write_text("mine\n", encoding="utf-8")
    before = tree_bytes(workdir)
    code, _, err = run(capsys, *argv, "--out", "afile/sub")
    assert code == 2
    assert err.startswith("error: ") and "afile/sub" in err
    assert tree_bytes(workdir) == before


@pytest.mark.parametrize("out", ["afile/sub", "afile/sub/deeper"])
def test_generate_below_a_regular_file_exits_2_before_generating(workdir, capsys, monkeypatch, out):
    from cascade_forge import cli

    calls = []
    monkeypatch.setattr(cli, "gen_ling_corpus", lambda *args: calls.append(args) or [])
    (workdir / "afile").write_text("mine\n", encoding="utf-8")
    code, _, err = run(capsys, "generate", "ling", "--langs", "20", "--out", out)
    assert code == 2
    assert err == f"error: --out {out}: afile is not a directory\n"
    assert calls == []


def test_generate_ling_min_applicable_above_protoforms_exits_2_naming_the_options(workdir, capsys):
    before = tree_bytes(workdir)
    code, _, err = run(capsys, "generate", "ling", "--protoforms", "3", "--min-applicable", "5",
                       "--out", "corpus")
    assert code == 2
    assert err == "error: --min-applicable 5: must be at most --protoforms 3\n"
    assert tree_bytes(workdir) == before and not (workdir / "corpus").exists()


@pytest.mark.parametrize("n", ["12", "0", "-10"])
def test_generate_smp_bad_n_exits_2_naming_the_option(workdir, capsys, n):
    before = tree_bytes(workdir)
    code, _, err = run(capsys, "generate", "smp", "--laws", "1", "--n", n, "--out", "corpus")
    assert code == 2
    assert err == f"error: --n {n}: examples_per_law must be a positive multiple of 10\n"
    assert tree_bytes(workdir) == before and not (workdir / "corpus").exists()


def test_generate_multilaw_counts(workdir, capsys):
    code, _, _ = run(capsys, "generate", "multilaw", "--sets", "2", "--rules-per-set", "3",
                     "--words", "10", "--pool-laws", "8", "--seed", "2", "--out", "ml")
    assert code == 0
    cases = [p for p in (workdir / "ml").iterdir() if p.name.startswith("case_")]
    assert len(cases) == 2
    cascade = json.loads((workdir / "ml" / "case_0000" / "cascade.json").read_text())
    assert len(cascade) == 3
    pairs = (workdir / "ml" / "case_0000" / "pairs.tsv").read_text().splitlines()
    assert len(pairs) == 10
    unchanged = sum(1 for line in pairs if line.split("\t")[0] == line.split("\t")[1])
    assert unchanged >= 5


@pytest.mark.parametrize(
    "text, message",
    [
        ("[", "/: invalid JSON: "),
        (json.dumps([{**A_TO_E_RULE, "mappings": [{"kind": "substitute", "map": {"a": ["Q"]}}]}]),
         "/0: substitute at position 0: phone 'Q' not in inventory"),
    ],
    ids=["bad-json", "unknown-phone"],
)
def test_generate_multilaw_bad_pool_exits_2_naming_the_file(workdir, capsys, text, message):
    (workdir / "pool.json").write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "generate", "multilaw", "--pool", "pool.json", "--out", "ml")
    assert code == 2
    assert err.startswith(f"error: pool pool.json: {message}")
    assert out == ""
    assert not (workdir / "ml").exists()


COUNT_OPTIONS = [
    ("induce", "--pairs", "pairs.tsv", "--samples"),
    ("induce", "--pairs", "pairs.tsv", "--beams"),
    ("induce", "--pairs", "pairs.tsv", "--max-steps"),
    ("generate", "smp", "--laws"),
    ("generate", "ling", "--langs"),
    ("generate", "ling", "--rules"),
    ("generate", "ling", "--protoforms"),
    ("generate", "ling", "--min-applicable"),
    ("generate", "multilaw", "--sets"),
    ("generate", "multilaw", "--rules-per-set"),
    ("generate", "multilaw", "--words"),
    ("generate", "multilaw", "--pool-laws"),
]


def test_count_options_are_listed_wherever_they_are_named():
    from cascade_forge import cli

    def count_options(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from count_options(sub)
            elif action.type is cli._count:
                yield from action.option_strings

    declared = set(count_options(cli.build_parser()))
    assert declared == {argv[-1] for argv in COUNT_OPTIONS}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"The count options\s*\(([^)]*)\)", readme)
    assert sentence is not None
    assert declared == set(re.findall(r"`(--[\w-]+)`", sentence.group(1)))


@pytest.mark.parametrize("value", ["0", "-2", "x"])
@pytest.mark.parametrize("argv", COUNT_OPTIONS, ids=lambda argv: argv[-1])
def test_count_option_below_one_exits_2_before_writing(workdir, capsys, argv, value):
    # Argparse rejects the value before the command starts, so no traceback,
    # no empty corpus and no manifest.json in --out.
    with pytest.raises(SystemExit) as exc:
        main([*argv, value, "--out", "run"])
    assert exc.value.code == 2
    assert f"argument {argv[-1]}: expected a positive integer, got {value!r}" in capsys.readouterr().err
    assert not (workdir / "run").exists()


def test_generate_budget_exhaustion_exits_5(workdir, capsys, monkeypatch):
    from cascade_forge import cli
    from cascade_forge.synthgen import GenerationError

    def explode(*args, **kwargs):
        raise GenerationError("draw budget exhausted while building set 0")

    monkeypatch.setattr(cli, "gen_smp_corpus", explode)
    code, _, err = run(capsys, "generate", "smp", "--laws", "1", "--out", "boom")
    assert code == 5
    assert "budget" in err


def test_generate_ling_shape(workdir, capsys):
    code, _, _ = run(capsys, "generate", "ling", "--langs", "2", "--rules", "3",
                     "--seed", "1", "--out", "lg")
    assert code == 0
    cascade = json.loads((workdir / "lg" / "case_0001" / "cascade.json").read_text())
    assert len(cascade) == 3
    manifest = json.loads((workdir / "lg" / "manifest.json").read_text())
    assert manifest["cases"] == 2


# --- select-examples ------------------------------------------------------------------


def test_select_examples_drops_triggerless_pair(workdir, capsys):
    (workdir / "mixed.tsv").write_text("aj\tej\ntu\ttu\nka\tka\n", encoding="utf-8")
    code, out, _ = run(capsys, "select-examples", "--pairs", "mixed.tsv", "--out", "sel.tsv")
    assert code == 0
    kept = (workdir / "sel.tsv").read_text().splitlines()
    assert kept == ["aj\tej", "ka\tka"]
    assert "trigger phones" in out


def test_select_examples_all_changed_keeps_all(workdir, capsys):
    (workdir / "allch.tsv").write_text("aj\tej\nak\tek\n", encoding="utf-8")
    code, _, _ = run(capsys, "select-examples", "--pairs", "allch.tsv", "--out", "sel2.tsv")
    assert code == 0
    assert (workdir / "sel2.tsv").read_text().splitlines() == ["aj\tej", "ak\tek"]


def test_select_examples_all_identity_warns(workdir, capsys):
    (workdir / "ident.tsv").write_text("tu\ttu\n", encoding="utf-8")
    code, out, err = run(capsys, "select-examples", "--pairs", "ident.tsv", "--out", "sel3.tsv")
    assert code == 0
    assert (workdir / "sel3.tsv").read_text() == ""
    assert "warning" in err


def test_select_examples_out_naming_a_directory_exits_2(workdir, capsys):
    (workdir / "adir").mkdir()
    before = sorted(os.listdir(workdir))
    code, _, err = run(capsys, "select-examples", "--pairs", "pairs.tsv", "--out", "adir")
    assert code == 2
    assert err.startswith("error: ") and "adir" in err
    assert sorted(os.listdir(workdir)) == before
    assert os.listdir(workdir / "adir") == []


def surface_pairs(pairs):
    return [(p.source.surface, p.target.surface) for p in pairs]


def test_every_pairs_tsv_writer_reads_back_through_read_pairs(workdir, capsys):
    inv = default_inventory()
    cases = gen_smp_corpus(inv, SmpSpec(examples_per_law=10, seed=4), laws=1)
    write_corpus("corpus", cases, {})
    written = surface_pairs(cases[0].dataset.pairs)
    assert surface_pairs(read_pairs(os.path.join("corpus", "case_0000", "pairs.tsv"), inv).pairs) == written

    (workdir / "mixed.tsv").write_text("aj\tej\ntu\ttu\nka\tka\n", encoding="utf-8")
    code, _, _ = run(capsys, "select-examples", "--pairs", "mixed.tsv", "--out", "sel.tsv")
    assert code == 0
    filtered, _ = select_examples_ites(read_pairs("mixed.tsv", inv).pairs)
    assert surface_pairs(read_pairs("sel.tsv", inv).pairs) == surface_pairs(filtered)

    code, out, _ = run(capsys, "apply", "--cascade", "cascade.json", "--pairs", "mixed.tsv")
    assert code == 0
    (workdir / "applied.tsv").write_text(out, encoding="utf-8")
    assert surface_pairs(read_pairs("applied.tsv", inv).pairs) == [("aj", "ej"), ("tu", "tu"), ("ka", "ka")]


@pytest.mark.parametrize("line", ["", "\t", "% c", "  % c"])
def test_read_pairs_and_read_words_skip_the_same_lines(workdir, line):
    inv = default_inventory()
    (workdir / "skip.tsv").write_text(f"{line}\naj\tej\n", encoding="utf-8")
    (workdir / "skip.txt").write_text(f"{line}\naj\n", encoding="utf-8")
    assert surface_pairs(read_pairs("skip.tsv", inv).pairs) == [("aj", "ej")]
    assert [word.surface for word in read_words("skip.txt", inv)] == ["aj"]


# --- inventory check -------------------------------------------------------------------


def test_inventory_check_default(workdir, capsys):
    code, out, _ = run(capsys, "inventory", "check")
    assert code == 0
    assert "phones" in out and "24 features" in out


def test_inventory_check_bad_file(workdir, capsys):
    (workdir / "bad.tsv").write_text("a\t0,1\na\t0,1\n", encoding="utf-8")
    code, _, err = run(capsys, "inventory", "check", "--inventory", "bad.tsv")
    assert code == 2
    assert "duplicate" in err


# --- pairs parsing edge cases -----------------------------------------------------------


def test_pairs_file_without_tab_exits_2(workdir, capsys):
    (workdir / "nota.tsv").write_text("just-one-column\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--cascade", "cascade.json", "--pairs", "nota.tsv")
    assert code == 2


PAIRS_COMMANDS = {
    "eval": ("eval", "--cascade", "cascade.json"),
    "induce": ("induce", "--out", "run"),
    "apply": ("apply", "--rule", "rule.json"),
    "select-examples": ("select-examples", "--out", "sel.tsv"),
}


@pytest.mark.parametrize("command", sorted(PAIRS_COMMANDS))
def test_pairs_line_with_a_second_tab_exits_2(workdir, capsys, command):
    # No phone holds a tab, so the line once failed to tokenize (exit 3).
    (workdir / "three.tsv").write_text("kaj\tkej\npa\tpe\tx\n", encoding="utf-8")
    code, out, err = run(capsys, *PAIRS_COMMANDS[command], "--pairs", "three.tsv")
    assert code == 2 and out == ""
    assert err == "error: three.tsv:2: expected 'source<TAB>target'\n"


def test_pairs_allow_empty_reflex(workdir, capsys):
    (workdir / "del.tsv").write_text("a\t\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--cascade", "cascade.json",
                       "--pairs", "del.tsv", "--json")
    assert code == 0
    assert json.loads(out)["pairs"][0]["target"] == ""
