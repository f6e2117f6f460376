"""Acceptance suite: the eight exit criteria, each timed against its budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import jsonschema

from conftest import (
    KB_DIR,
    desc_lottery4,
    make_random_theory,
    probe_formulas,
)
from lawchecks import TheoryCheck
from test_classical import clauses_satisfiable
from ppl import (
    ALG_ORDER,
    Alg,
    Arrow,
    Atom,
    Conj,
    Disj,
    Lit,
    Neg,
    TruthValue,
    parse_kb,
    provable,
    prove,
    tree_value,
    truth_value,
    validate_description,
)
from ppl.classical import (
    EMPTY_CLAUSE,
    clauses_of,
    err,
    resolution_closure,
    sat_filter,
    val_space,
)
from ppl.formulas import atoms, evaluate

MAIN = (Alg.PI, Alg.PSI, Alg.BETA)


@contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"{verdict}  criterion {number}: {label} ({elapsed:.2f}s < {budget:g}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def build(text):
    doc = parse_kb(text)
    return validate_description(doc.facts, doc.rules, doc.priority)


def test_criterion_1_default_then_retraction():
    with criterion(1, "unopposed default, then retraction by fact", 1.0):
        plain = build("rule ra: {} => a\n")
        for alg in MAIN:
            assert prove(plain, alg, Atom("a")) == +1
        retracted = build("fact: ~a\nrule ra: {} => a\n")
        assert retracted.axioms == (Neg(Atom("a")),)
        for alg in MAIN:
            assert prove(retracted, alg, Neg(Atom("a"))) == +1
            assert not provable(retracted, alg, Atom("a"))


def test_criterion_2_ambiguity_blocking_vs_propagating():
    with criterion(2, "ambiguity: pi/psi refuse b, beta concludes b", 1.0):
        desc = build(
            "rule ra: {} => a\nrule rna: {} => ~a\n"
            "rule rb: {} => b\nrule ranb: {a} => ~b\n"
        )
        b = Atom("b")
        assert prove(desc, Alg.PI, b) == -1
        assert prove(desc, Alg.PSI, b) == -1
        assert prove(desc, Alg.BETA, b) == +1


def test_criterion_3_three_ticket_lottery():
    with criterion(3, "3-lottery: axioms, rules, supporters, verdicts", 5.0):
        desc = build((KB_DIR / "lottery3.ppl").read_text(encoding="utf-8"))
        s1, s2, s3 = Atom("s1"), Atom("s2"), Atom("s3")

        assert len(desc.axioms) == 4
        assert set(desc.axioms) == {
            Disj([s1, s2, s3]),
            Disj([Neg(s1), Neg(s2)]),
            Disj([Neg(s1), Neg(s3)]),
            Disj([Neg(s2), Neg(s3)]),
        }
        assert len(desc.rules) == 16

        def sig(rule):
            return (frozenset(rule.antecedents), rule.arrow, rule.consequent)

        losing = {sig(r) for r in desc.supporters(Neg(s1), desc.rsd())}
        assert losing == {
            (frozenset([Neg(s1)]), Arrow.STRICT, Disj([s2, s3])),
            (frozenset([Conj([Neg(s1), Neg(s3)])]), Arrow.STRICT, s2),
            (frozenset([Conj([Neg(s1), Neg(s2)])]), Arrow.STRICT, s3),
            (frozenset([s2]), Arrow.STRICT, Conj([Neg(s1), Neg(s3)])),
            (frozenset([s3]), Arrow.STRICT, Conj([Neg(s1), Neg(s2)])),
            (frozenset(), Arrow.DEFEASIBLE, Neg(s1)),
            (frozenset(), Arrow.DEFEASIBLE, Disj([s2, s3])),
        }
        winning = {sig(r) for r in desc.supporters(s1, desc.rsd())}
        assert winning == {
            (frozenset([Conj([Neg(s2), Neg(s3)])]), Arrow.STRICT, s1),
            (frozenset([s1]), Arrow.STRICT, Conj([Neg(s2), Neg(s3)])),
        }

        for alg in MAIN:
            assert prove(desc, alg, Neg(s1)) == +1
            assert prove(desc, alg, Neg(s2)) == +1
            assert prove(desc, alg, Disj([s1, s2])) == +1
            assert not provable(desc, alg, s1)
            assert not provable(desc, alg, s2)
            assert prove(desc, alg, Conj([Neg(s1), Neg(s2)])) == -1


def test_criterion_4_four_ticket_truth_profile():
    with criterion(4, "4-lottery truth profile under pi", 10.0):
        desc = desc_lottery4()
        s = [Atom(f"s{i}") for i in range(1, 5)]
        assert truth_value(desc, Alg.PI, Neg(s[0])) is TruthValue.TRUE
        assert truth_value(desc, Alg.PI, s[0]) is TruthValue.FALSE
        assert truth_value(desc, Alg.PI, Disj(s[:2])) is TruthValue.UNDETERMINED
        assert truth_value(desc, Alg.PI, Disj(s[:3])) is TruthValue.TRUE
        assert truth_value(desc, Alg.PI, Disj(s)) is TruthValue.TRUE


def test_shipped_priorities_truth_profile():
    # kb/penguin.ppl, by hand.  phi proves facts alone, and no literal of
    # fly, bird or penguin is a fact.  The axiom penguin -> bird makes rp and
    # #s(penguin) supporters of bird; ~bird and ~penguin have no provable
    # supporter, so every algorithm but phi proves penguin (its one foe,
    # #s(~bird), is disabled since ~bird is unprovable) and bird.  fly's
    # supporter rb meets the foe rn, which no rule beats and which the
    # co-algorithm cannot disable, as it proves penguin.  ~fly's supporters
    # rs and rn both meet the warning rule rw, which no rule beats and
    # which the co-algorithm cannot disable, as it proves bird (rs also
    # meets rb, which rn team-defeats).  psi-p only counts foes superior to
    # the rule in use: rb still meets rn, rs meets rb alone, and rn meets
    # none, so ~fly is proved and fly is not.  pi-p counts no foes at all.
    desc = build((KB_DIR / "penguin.ppl").read_text(encoding="utf-8"))
    profiles = {"fly": "uuuuufa", "bird": "utttttt", "penguin": "utttttt"}
    for name, profile in profiles.items():
        f = Atom(name)
        assert "".join(str(truth_value(desc, alg, f)) for alg in ALG_ORDER) == profile
        for x in (f, Neg(f)):
            for alg in ALG_ORDER:
                assert tree_value(desc, alg, x) == prove(desc, alg, x), (x, alg)


def test_criterion_5_hierarchy_over_random_theories():
    with criterion(5, "hierarchy chain on 200 random theories", 60.0):
        rng = random.Random(105)
        violations = []
        for _ in range(200):
            desc = make_random_theory(rng)
            check = TheoryCheck(desc, probe_formulas(desc))
            violations += check.hierarchy()
            violations += check.empty_priority_equalities()
        assert not violations, violations[:5]


def test_criterion_6_engine_laws_over_random_theories():
    with criterion(6, "engine laws on 200 random theories", 120.0):
        rng = random.Random(106)
        violations = []
        for _ in range(200):
            desc = make_random_theory(rng)
            violations += TheoryCheck(desc, probe_formulas(desc)).all_laws()
        assert not violations, violations[:5]


def test_criterion_7_classical_core_suite():
    with criterion(7, "classical core on 500 random clause sets", 60.0):
        rng = random.Random(107)
        violations = []
        for _ in range(500):
            cs = frozenset(
                frozenset(
                    Lit(rng.choice("abcd"), rng.random() < 0.5)
                    for _ in range(rng.randint(0, 3))
                )
                for _ in range(rng.randint(0, 6))
            )
            bad = err(cs)
            if {l.complement() for l in bad} != bad:
                violations.append(f"error set not complement-closed: {cs}")
            filtered = sat_filter(cs)
            if sat_filter(filtered) != filtered:
                violations.append(f"filter not idempotent: {cs}")
            if not clauses_satisfiable(filtered):
                violations.append(f"filtered set unsatisfiable: {cs}")
            refutable = EMPTY_CLAUSE in resolution_closure(cs)
            if refutable == clauses_satisfiable(cs):
                violations.append(f"resolution vs valuations disagree: {cs}")

            f = _random_formula(rng, 2)
            cs_f = clauses_of(f)
            for v in val_space(atoms(f)):
                conj_truth = all(
                    any((l.atom in v) != l.neg for l in c) for c in cs_f
                )
                if conj_truth != evaluate(f, v):
                    violations.append(f"clause form differs from {f!r} at {set(v)}")

            L = {Lit(rng.choice("abc"), rng.random() < 0.5)
                 for _ in range(rng.randint(0, 3))}
            M = {Lit(rng.choice("abc"), rng.random() < 0.5)
                 for _ in range(rng.randint(0, 3))}
            implied = _tt_entails(Disj([l.formula() for l in L]),
                                  Disj([l.formula() for l in M]))
            if implied != (L <= M or any(l.complement() in M for l in M)):
                violations.append(f"clause implication mismatch: {L} vs {M}")
        assert not violations, violations[:5]


def _random_formula(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        a = Atom(rng.choice("abc"))
        return Neg(a) if rng.random() < 0.5 else a
    if roll < 0.6:
        return Neg(_random_formula(rng, depth - 1))
    members = [_random_formula(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return Conj(members) if rng.random() < 0.5 else Disj(members)


def _tt_entails(f, g):
    for v in val_space(atoms(f) | atoms(g)):
        if evaluate(f, v) and not evaluate(g, v):
            return False
    return True


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


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "ppl.cli", *args],
                          capture_output=True, text=True)


def test_criterion_8_cli_contract():
    with criterion(8, "CLI exit codes, JSON schema, byte-stable trees", 30.0):
        lottery = str(KB_DIR / "lottery3.ppl")
        ambiguity = str(KB_DIR / "ambiguity.ppl")

        assert _cli("query", lottery, "~s1", "--alg", "pi").returncode == 0
        assert _cli("query", lottery, "and{~s1,~s2}", "--alg", "beta").returncode == 1
        assert _cli("query", lottery, "or{", "--alg", "pi").returncode == 2
        assert _cli("check", lottery).returncode == 0

        for kb, formula in [(lottery, "~s1"), (ambiguity, "b")]:
            res = _cli("query", kb, formula, "--alg", "all", "--json")
            assert res.returncode == 0
            jsonschema.validate(json.loads(res.stdout), QUERY_SCHEMA)

        res = _cli("query", ambiguity, "b", "--alg", "all", "--json")
        verdicts = {r["alg"]: r["proofValue"]
                    for r in json.loads(res.stdout)["results"]}
        assert (verdicts["pi"], verdicts["psi"], verdicts["beta"]) == (-1, -1, 1)

        for fmt in ("json", "dot"):
            args = ("tree", ambiguity, "b", "--alg", "beta", "--format", fmt)
            assert _cli(*args).stdout == _cli(*args).stdout
            assert _cli(*args).returncode == 0
