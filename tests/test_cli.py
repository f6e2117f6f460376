"""End-to-end CLI contract: exit codes, JSON schema, output stability."""

import json
import os
import subprocess
import sys

import jsonschema
import pytest

from conftest import KB_DIR, wide_implications_kb
from ppl import cli

QUERY_SCHEMA = {
    "type": "object",
    "required": ["formula", "results"],
    "additionalProperties": False,
    "properties": {
        "formula": {"type": "string"},
        "results": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["alg", "proofValue", "truthValue"],
                "additionalProperties": False,
                "properties": {
                    "alg": {"enum": ["phi", "pi", "psi", "beta",
                                     "beta-p", "psi-p", "pi-p"]},
                    "proofValue": {"enum": [1, -1]},
                    "truthValue": {"enum": ["t", "f", "u", "a"]},
                },
            },
        },
    },
}

HIERARCHY = ["phi", "pi", "psi", "beta", "beta-p", "psi-p", "pi-p"]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ppl.cli", *args],
        capture_output=True, text=True,
    )


class TestCheck:
    def test_lottery_summary(self):
        res = run_cli("check", str(KB_DIR / "lottery3.ppl"))
        assert res.returncode == 0
        assert "axioms (4):" in res.stdout
        assert "strict rules (10):" in res.stdout
        assert "defeasible rules (6):" in res.stdout
        assert "total rules: 16" in res.stdout

    def test_retracted_default_axioms(self):
        res = run_cli("check", str(KB_DIR / "retracted_default.ppl"))
        assert res.returncode == 0
        assert "~a" in res.stdout

    def test_cyclic_priority_reported(self, tmp_path):
        bad = tmp_path / "cyclic.ppl"
        bad.write_text(
            "rule x: {} => a\nrule y: {} => b\nprio: x > y\nprio: y > x\n",
            encoding="utf-8",
        )
        res = run_cli("check", str(bad))
        assert res.returncode == 2
        assert "cyclic" in res.stderr.lower()
        assert ">" in res.stderr  # the witness cycle is printed

    def test_syntax_errors_have_locations(self, tmp_path):
        bad = tmp_path / "bad.ppl"
        bad.write_text("fact: or{a,\n", encoding="utf-8")
        res = run_cli("check", str(bad))
        assert res.returncode == 2
        assert f"{bad}:1:12" in res.stderr

    def test_missing_file(self):
        res = run_cli("check", str(KB_DIR / "no-such.ppl"))
        assert res.returncode == 2

    def test_non_utf8_input_rejected(self, tmp_path):
        bad = tmp_path / "latin1.ppl"
        bad.write_bytes(b"fact: \xe9\n")
        res = run_cli("check", str(bad))
        assert res.returncode == 2
        assert "UTF-8" in res.stderr

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = b"fact: or{a,b}\nrule r: {} => ~a\n"
        marked = tmp_path / "marked.ppl"
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        plain = tmp_path / "plain.ppl"
        plain.write_bytes(text)
        res, ref = run_cli("check", str(marked)), run_cli("check", str(plain))
        assert (res.returncode, res.stdout, res.stderr) == (0, ref.stdout, "")
        bad = tmp_path / "marked_latin1.ppl"
        bad.write_bytes(b"\xef\xbb\xbffact: \xe9\n")
        res = run_cli("check", str(bad))
        assert res.returncode == 2
        assert "error[encoding]" in res.stderr

    def test_atom_limit_flag(self):
        res = run_cli("query", str(KB_DIR / "lottery3.ppl"), "~s1",
                      "--alg", "pi", "--max-atoms", "2")
        assert res.returncode == 2
        assert "atom" in res.stderr.lower()

    def test_wide_clause_fact_is_refused_at_validation(self, tmp_path):
        # a clause fact's literals are read off its shape, with no
        # enumeration, yet 21 atoms still pass the default --max-atoms
        kb = tmp_path / "wide.ppl"
        kb.write_text("fact: or{" + ",".join(f"x{i}" for i in range(21)) + "}\n",
                      encoding="utf-8")
        res = run_cli("check", str(kb))
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == (f"{kb}: error[validation]: "
                              "21 atoms exceed the enumeration limit of 20\n")

    @pytest.mark.parametrize("command", [["check"], ["query", "b", "--alg", "beta"]])
    def test_negative_atom_limit_is_a_usage_error(self, command):
        path = str(KB_DIR / "ambiguity.ppl")
        res = run_cli(command[0], path, *command[1:], "--max-atoms", "-1")
        assert (res.returncode, res.stdout) == (2, "")
        assert "argument --max-atoms: must be 0 or more, not -1" in res.stderr
        assert run_cli(command[0], path, *command[1:], "--max-atoms", "0").returncode == 0

    @pytest.mark.parametrize("command", [["query"], ["tree", "--format", "dot"]])
    def test_atom_limit_at_query_time(self, tmp_path, command):
        # validation stays within 2 atoms per fact, and the checks behind
        # `a` read clauses off the formulas, whatever atoms they span; so do
        # those behind or{a,and{b,c}}: its negation is conjunction-shaped,
        # so the foes of its supporter r are read off ~a and ~and{b,c}, and
        # its own clause form is never built.  Each answer is the one a
        # high limit gives
        kb = tmp_path / "three.ppl"
        kb.write_text("fact: or{a,b}\nfact: or{b,c}\nrule r: {} => a\n",
                      encoding="utf-8")
        for formula in ("a", "or{a,and{b,c}}"):
            res = run_cli(*command, str(kb), formula, "--alg", "pi", "--max-atoms", "2")
            assert (res.returncode, res.stderr) == (0, "")
            high = run_cli(*command, str(kb), formula, "--alg", "pi", "--max-atoms", "100")
            assert res.stdout == high.stdout
        # a rule concluding or{a,and{b,c}} is a candidate of a's scan: it is
        # not a conjunction of clauses, so its clause form is enumerated,
        # over 3 atoms, when the scan searches it
        kb.write_text(kb.read_text(encoding="utf-8") + "rule w: {b} => or{a,and{b,c}}\n",
                      encoding="utf-8")
        res = run_cli(*command, str(kb), "a", "--alg", "pi", "--max-atoms", "2")
        assert res.returncode == 2
        assert res.stderr == ("ppl: error[atom-limit]: "
                              "3 atoms exceed the enumeration limit of 2\n")
        high = run_cli(*command, str(kb), "a", "--alg", "pi", "--max-atoms", "3")
        assert (high.returncode, high.stderr) == (0, "")

    def test_nested_clause_consequent_is_read_off(self, tmp_path):
        # or{x0,or{x1..x24}} is one 25-atom clause, nested: the scan for x0
        # reads its clause form off its shape, as it does the flat twin's,
        # and enumerates nothing, so the default --max-atoms refuses neither
        out = []
        for nested in (True, False):
            wide = ",".join(f"x{i}" for i in range(1, 25))
            consequent = f"or{{x0,or{{{wide}}}}}" if nested else f"or{{x0,{wide}}}"
            kb = tmp_path / f"nested{nested}.ppl"
            kb.write_text(f"fact: or{{~a,x0}}\nrule r1: {{}} => a\n"
                          f"rule r2: {{}} => {consequent}\n", encoding="utf-8")
            res = run_cli("query", str(kb), "--alg", "all", "x0")
            assert (res.returncode, res.stderr) == (0, "")
            out.append(res.stdout)
        assert out[0] == out[1]
        assert [line.split()[-1] for line in out[0].splitlines()[1:]] == ["u"] + ["t"] * 6

    @pytest.mark.parametrize("formula", ["r3", "~q5"])
    def test_atom_limit_ignores_the_axioms(self, tmp_path, formula):
        # 22 atoms in the axioms; each check sees the query's and one consequent's
        kb = tmp_path / "wide.ppl"
        kb.write_text(wide_implications_kb(), encoding="utf-8")
        res = run_cli("query", str(kb), "--alg", "all", "--json", formula)
        assert (res.returncode, res.stderr) == (0, "")
        rows = json.loads(res.stdout)["results"]
        assert [r["truthValue"] for r in rows] == ["u"] + ["t"] * 6


class TestQuery:
    def test_proved_formula_exits_zero(self):
        res = run_cli("query", str(KB_DIR / "lottery3.ppl"), "~s1", "--alg", "pi")
        assert res.returncode == 0
        assert "+1" in res.stdout and " t" in res.stdout

    def test_unproved_formula_exits_one(self):
        res = run_cli("query", str(KB_DIR / "lottery3.ppl"),
                      "and{~s1,~s2}", "--alg", "beta")
        assert res.returncode == 1
        assert "-1" in res.stdout

    def test_usage_error_exits_two(self):
        res = run_cli("query", str(KB_DIR / "lottery3.ppl"), "~s1", "--alg", "zeta")
        assert res.returncode == 2

    def test_bad_formula_exits_two(self):
        res = run_cli("query", str(KB_DIR / "lottery3.ppl"), "or{", "--alg", "pi")
        assert res.returncode == 2
        assert "formula:1:" in res.stderr

    def test_json_schema_and_agreement(self):
        for kb, formula in [
            ("ambiguity.ppl", "b"),
            ("lottery3.ppl", "~s1"),
            ("plausible_default.ppl", "a"),
            ("retracted_default.ppl", "~a"),
        ]:
            res = run_cli("query", str(KB_DIR / kb), formula, "--alg", "all", "--json")
            assert res.returncode == 0
            payload = json.loads(res.stdout)
            jsonschema.validate(payload, QUERY_SCHEMA)
            assert [row["alg"] for row in payload["results"]] == HIERARCHY
            for row in payload["results"]:  # proved exactly when t or a
                assert row["proofValue"] == (1 if row["truthValue"] in "ta" else -1)

    def test_json_and_human_agree(self):
        js = run_cli("query", str(KB_DIR / "ambiguity.ppl"), "b",
                     "--alg", "all", "--json")
        human = run_cli("query", str(KB_DIR / "ambiguity.ppl"), "b", "--alg", "all")
        rows = json.loads(js.stdout)["results"]
        for row in rows:
            sign = "+1" if row["proofValue"] > 0 else "-1"
            assert f"{row['alg']:<7} {sign}  {row['truthValue']}" in human.stdout

    def test_ambiguity_verdicts(self):
        res = run_cli("query", str(KB_DIR / "ambiguity.ppl"), "b",
                      "--alg", "all", "--json")
        verdicts = {r["alg"]: r["proofValue"]
                    for r in json.loads(res.stdout)["results"]}
        assert verdicts["pi"] == -1
        assert verdicts["psi"] == -1
        assert verdicts["beta"] == 1

    def test_hierarchy_rows_are_monotone(self):
        for kb in ("ambiguity.ppl", "lottery3.ppl", "retracted_default.ppl"):
            for formula in ("a", "~a", "b", "~s1", "s1"):
                res = run_cli("query", str(KB_DIR / kb), formula,
                              "--alg", "all", "--json")
                rows = json.loads(res.stdout)["results"]
                values = [r["proofValue"] for r in rows]
                beta, beta_p = values[3], values[4]
                assert beta == beta_p
                assert values == sorted(values)  # -1s before +1s along the chain


class TestTree:
    def test_json_root_matches_query(self):
        tree = run_cli("tree", str(KB_DIR / "ambiguity.ppl"), "b",
                       "--alg", "beta", "--format", "json")
        assert tree.returncode == 0
        root = json.loads(tree.stdout)
        assert root["value"] == 1
        query = run_cli("query", str(KB_DIR / "ambiguity.ppl"), "b", "--alg", "beta")
        assert query.returncode == 0

    def test_fact_leaf_is_single_node(self):
        res = run_cli("tree", str(KB_DIR / "retracted_default.ppl"), "~a",
                      "--alg", "phi", "--format", "dot")
        assert res.returncode == 0
        assert res.stdout.count("label=") == 1
        assert "min" not in res.stdout  # leaf box, no edges
        assert "->" not in res.stdout.replace("digraph", "")

    def test_unsupported_query_is_childless_max(self):
        res = run_cli("tree", str(KB_DIR / "plausible_default.ppl"), "b",
                      "--alg", "pi", "--format", "json")
        root = json.loads(res.stdout)
        assert (root["op"], root["value"], root["children"]) == ("max", -1, [])

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_output_byte_stable(self, fmt):
        args = ("tree", str(KB_DIR / "ambiguity.ppl"), "b",
                "--alg", "beta", "--format", fmt)
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestFailureContract:
    """Exit 1 means only "not proved": every other failure exits 2."""

    def test_internal_failure_exits_two(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("broken engine")

        monkeypatch.setattr(cli, "evaluation_tree", broken)
        code = cli.main(["tree", str(KB_DIR / "ambiguity.ppl"), "b",
                         "--alg", "beta", "--format", "dot"])
        assert code == 2
        assert "ppl: error[RuntimeError]: broken engine" in capsys.readouterr().err

    def test_closed_pipe_exits_two_quietly(self):
        # the reader takes a few bytes of a 0.9 MB tree and closes the pipe
        with subprocess.Popen(
                [sys.executable, "-m", "ppl.cli", "tree", str(KB_DIR / "lottery3.ppl"),
                 "--alg", "pi", "--format", "json", "~s1"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            assert child.stdout.read(10) == b'{\n  "child'
            child.stdout.close()
            err = child.stderr.read()
        assert (child.returncode, err) == (2, b"")

    def test_pipe_closed_before_buffered_output(self):
        # block-buffered, the few lines of `check` would first meet the
        # closed pipe in the interpreter's exit-time flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with subprocess.Popen(
                [sys.executable, "-m", "ppl.cli", "check", str(KB_DIR / "ambiguity.ppl")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            child.stdout.close()
            err = child.stderr.read()
        assert (child.returncode, err) == (2, b"")

    def test_closed_stdout_in_process(self, monkeypatch, capsys):
        class Closed:
            def write(self, s):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Closed())
        assert cli.main(["check", str(KB_DIR / "lottery3.ppl")]) == 2
        assert capsys.readouterr().err == ""

    def test_calls_share_one_parser(self, capsys):
        # built once per process; a usage error leaves it fit for the next call
        path = str(KB_DIR / "ambiguity.ppl")
        parser = cli._parser()
        with pytest.raises(SystemExit) as exc:
            cli.main(["query", path, "b"])  # no --alg
        assert exc.value.code == 2
        assert cli.main(["query", path, "--alg", "beta", "b"]) == 0
        assert cli.main(["query", path, "--alg", "pi", "b"]) == 1
        assert cli._parser() is parser
        assert capsys.readouterr().out.split() == ["b", "beta", "+1", "t", "b", "pi", "-1", "u"]

    @pytest.mark.parametrize("formula", [
        "~" * 1200 + "~s1",
        "and{" * 400 + "~s1" + "}" * 400,
        # ~or{s1,~and{~s1,g}} is ~s1 and g: 800 nested sets, each level
        # conjunction-shaped, equivalent to ~s1
        "~or{s1,~and{~s1," * 400 + "~~~s1" + "}}" * 400,
    ], ids=["negations", "conjunctions", "negated-disjunctions"])
    def test_deep_formula_at_the_default_recursion_limit(self, formula):
        # parsed, evaluated and printed without recursing per nesting level
        res = run_cli("query", str(KB_DIR / "lottery3.ppl"), "--alg", "pi", formula)
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout.split() == [formula, "pi", "+1", "t"]

    def test_deep_chain_under_a_shallow_recursion_limit(self, tmp_path):
        n = 150
        kb = tmp_path / "chain.ppl"
        kb.write_text("rule r0: {} => a0\n" + "".join(
            f"rule r{i}: {{a{i - 1}}} => a{i}\n" for i in range(1, n)),
            encoding="utf-8")

        def shallow(*args):
            program = ("import sys; sys.setrecursionlimit(200); "
                       "from ppl.cli import main; sys.exit(main(sys.argv[1:]))")
            return subprocess.run([sys.executable, "-c", program, *args],
                                  capture_output=True, text=True)

        top = f"a{n - 1}"
        query = shallow("query", str(kb), "--alg", "beta", top)
        assert (query.returncode, query.stdout.split()) == (0, [top, "beta", "+1", "t"])
        dot = shallow("tree", str(kb), "--alg", "beta", "--format", "dot", top)
        assert dot.returncode == 0
        assert dot.stdout.count("shape=") == 3 * n
        # the JSON writer streams from an explicit stack: no nesting limit
        js = shallow("tree", str(kb), "--alg", "beta", "--format", "json", top)
        assert (js.returncode, js.stderr) == (0, "")
        assert js.stdout.count('"op":') == 3 * n
        assert js.stdout.endswith('\n  "value": 1\n}\n')
