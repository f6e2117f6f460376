"""Axiom construction, strict-rule synthesis, validation, and rule indexing."""

import random
from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest

from conftest import (
    KB_DIR,
    desc_ambiguity,
    desc_lottery3,
    desc_plausible_default,
    desc_rule_chain,
    lottery_facts,
    make_random_theory,
    probe_formulas,
    wide_implications_kb,
)
from ppl import (
    ALG_ORDER,
    FALSUM,
    VERUM,
    Alg,
    Arrow,
    Atom,
    Conj,
    CyclicPriorityError,
    Disj,
    DuplicateRuleIdError,
    Lit,
    Neg,
    PlausibleDescription,
    PriorityOverRseError,
    Rule,
    StrictRuleRejectedError,
    TruthValue,
    UnknownRuleIdError,
    atoms,
    build_axioms,
    build_strict_rules,
    clause_rules,
    clauses_of,
    entails,
    parse_kb,
    resolution_closure,
    satisfiable,
    truth_value,
    validate_description,
)
from ppl import classical
from ppl.classical import core_clauses
from ppl.formulas import FormulaClass, classify
from ppl.kb import _components, axiom_formulas

A, B, C = Atom("a"), Atom("b"), Atom("c")
S1, S2, S3 = Atom("s1"), Atom("s2"), Atom("s3")


def sig(antecedents, arrow, consequent):
    return (frozenset(antecedents), arrow, consequent)


def sigs(rules):
    return {r.signature for r in rules}


class TestBuildAxioms:
    def test_lottery_axioms(self):
        ax = axiom_formulas(build_axioms(lottery_facts(3)))
        assert ax == {
            Disj([S1, S2, S3]),
            Disj([Neg(S1), Neg(S2)]),
            Disj([Neg(S1), Neg(S3)]),
            Disj([Neg(S2), Neg(S3)]),
        }

    def test_no_facts_no_axioms(self):
        assert build_axioms([]) == frozenset()

    def test_contaminated_facts_are_filtered(self):
        ax = axiom_formulas(build_axioms([A, Neg(A), B]))
        assert ax == {B}

    def test_output_properties_on_random_facts(self):
        rng = random.Random(41)
        for _ in range(120):
            facts = [_random_formula(rng, 2) for _ in range(rng.randint(0, 3))]
            ax = axiom_formulas(build_axioms(facts))
            assert satisfiable(ax)
            for f in ax:
                assert classify(f) is FormulaClass.CONTINGENT
                # simplified: a literal, or a clause of two or more literals
                from ppl.formulas import is_clause, is_literal

                assert is_literal(f) or (is_clause(f) and len(f.members) >= 2)

    def test_equals_the_closure_pipeline(self):
        # core(Res(sat(clauses))), with err read off the exhaustive closure
        rng = random.Random(43)
        cases = [parse_kb(p.read_text(encoding="utf-8")).facts
                 for p in sorted(KB_DIR.glob("*.ppl"))]
        cases += [[_random_formula(rng, 2) for _ in range(rng.randint(0, 4))]
                  for _ in range(150)]
        conflicting = 0
        for facts in cases:
            cs = clauses_of(facts)
            units = {next(iter(c)) for c in resolution_closure(cs) if len(c) == 1}
            bad = {l for l in units if l.complement() in units}
            conflicting += bool(bad)
            kept = {c for c in cs if c and not (c & bad)}
            assert build_axioms(facts) == core_clauses(resolution_closure(kept)), facts
        assert conflicting > 20

    @pytest.mark.parametrize("n", [6, 8])
    def test_lottery_axioms_are_the_prime_implicates(self, n):
        tickets = [Atom(f"s{i}") for i in range(1, n + 1)]
        desc = validate_description(lottery_facts(n), [])
        expected = {Disj(tickets)} | {
            Disj([Neg(si), Neg(sj)]) for si, sj in combinations(tickets, 2)}
        assert len(desc.axiom_clauses) == n * (n - 1) // 2 + 1
        assert set(desc.axioms) == expected


def _count_calls(monkeypatch, *names):
    """Count the calls of the named `classical` functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(classical, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(classical, name, counted)
    return calls


class TestOneSaturation:
    """Validation saturates the clause form once, twice for conflicting facts."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return _count_calls(monkeypatch, "saturate", "resolution_closure")

    def test_satisfiable_facts_saturate_once(self, calls):
        doc = parse_kb((KB_DIR / "lottery4.ppl").read_text(encoding="utf-8"))
        validate_description(doc.facts, doc.rules, doc.priority)
        assert calls == {"saturate": 1, "resolution_closure": 0}
        for n in (6, 40):
            calls["saturate"] = 0
            p = [Atom(f"p{i}") for i in range(n + 1)]
            chain = [Disj([Neg(p[i]), p[i + 1]]) for i in range(n)]
            desc = validate_description(chain, [Rule("r", (), Arrow.DEFEASIBLE, p[0])])
            assert calls == {"saturate": 1, "resolution_closure": 0}
            # every p_i -> p_j, i < j: C(7,2) = 21 and C(41,2) = 820 axioms
            assert len(desc.axiom_clauses) == {6: 21, 40: 820}[n]
            assert desc.axiom_clauses == {frozenset({Lit(f"p{i}", True), Lit(f"p{j}", False)})
                                          for i, j in combinations(range(n + 1), 2)}

    def test_conflicting_facts_saturate_twice(self, calls):
        desc = validate_description([A, Neg(A), B], [])
        assert desc.axioms == (B,)
        assert calls == {"saturate": 2, "resolution_closure": 0}


def _random_formula(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        a = Atom(rng.choice("abc"))
        return Neg(a) if rng.random() < 0.5 else a
    if roll < 0.6:
        return Neg(_random_formula(rng, depth - 1))
    members = [_random_formula(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return Conj(members) if rng.random() < 0.5 else Disj(members)


class TestClauseRules:
    def test_three_literal_clause_yields_seven_rules(self):
        got = sigs(clause_rules(Disj([A, B, C])))
        assert got == {
            sig((), Arrow.STRICT, Disj([A, B, C])),
            sig((Conj([Neg(B), Neg(C)]),), Arrow.STRICT, A),
            sig((Conj([Neg(A), Neg(C)]),), Arrow.STRICT, B),
            sig((Conj([Neg(A), Neg(B)]),), Arrow.STRICT, C),
            sig((Neg(A),), Arrow.STRICT, Disj([B, C])),
            sig((Neg(B),), Arrow.STRICT, Disj([A, C])),
            sig((Neg(C),), Arrow.STRICT, Disj([A, B])),
        }

    def test_literal_clause_yields_one_rule(self):
        assert sigs(clause_rules(A)) == {sig((), Arrow.STRICT, A)}

    def test_two_literal_clause_yields_three_rules(self):
        got = sigs(clause_rules(Disj([A, B])))
        assert got == {
            sig((), Arrow.STRICT, Disj([A, B])),
            sig((Neg(A),), Arrow.STRICT, B),
            sig((Neg(B),), Arrow.STRICT, A),
        }

    def test_rule_count_is_exponential(self):
        wide = Disj([A, B, C, Atom("d")])
        assert len(clause_rules(wide)) == 2 ** 4 - 1

    def test_rejects_non_contingent(self):
        # a tautology, a conjunction, and the falsum or{}
        for bad in (Disj([A, Neg(A)]), Conj([A, B]), Disj([])):
            with pytest.raises(ValueError):
                clause_rules(bad)
            for axioms in ([bad], [A, bad]):
                with pytest.raises(ValueError):
                    build_strict_rules(axioms)

    def test_is_the_expansion_of_one_axiom(self):
        for c in (A, Neg(B), Disj([A, B]), Disj([A, Neg(B), C]), Disj([A])):
            assert clause_rules(c) == frozenset(build_strict_rules([c]))


class TestBuildStrictRules:
    def test_lottery_strict_rules(self):
        ax = sorted(axiom_formulas(build_axioms(lottery_facts(3))))
        got = sigs(build_strict_rules(ax))
        big = Disj([S1, S2, S3])
        expected = {
            sig((), Arrow.STRICT,
                Conj([big, Disj([Neg(S1), Neg(S2)]), Disj([Neg(S1), Neg(S3)]),
                      Disj([Neg(S2), Neg(S3)])])),
            sig((Neg(S1),), Arrow.STRICT, Disj([S2, S3])),
            sig((Neg(S2),), Arrow.STRICT, Disj([S1, S3])),
            sig((Neg(S3),), Arrow.STRICT, Disj([S1, S2])),
            sig((Conj([Neg(S2), Neg(S3)]),), Arrow.STRICT, S1),
            sig((Conj([Neg(S1), Neg(S3)]),), Arrow.STRICT, S2),
            sig((Conj([Neg(S1), Neg(S2)]),), Arrow.STRICT, S3),
            sig((S1,), Arrow.STRICT, Conj([Neg(S2), Neg(S3)])),
            sig((S2,), Arrow.STRICT, Conj([Neg(S1), Neg(S3)])),
            sig((S3,), Arrow.STRICT, Conj([Neg(S1), Neg(S2)])),
        }
        assert got == expected

    def test_lottery_ids_and_order(self):
        desc = validate_description(lottery_facts(3), [])
        assert [repr(r) for r in desc.rules] == [
            "#rse: {} -> and{or{s1,s2,s3},or{~s1,~s2},or{~s1,~s3},or{~s2,~s3}}",
            "#s(s1): {s1} -> and{~s2,~s3}",
            "#s(s2): {s2} -> and{~s1,~s3}",
            "#s(s3): {s3} -> and{~s1,~s2}",
            "#s(~s1): {~s1} -> or{s2,s3}",
            "#s(~s2): {~s2} -> or{s1,s3}",
            "#s(~s3): {~s3} -> or{s1,s2}",
            "#s(and{~s1,~s2}): {and{~s1,~s2}} -> s3",
            "#s(and{~s1,~s3}): {and{~s1,~s3}} -> s2",
            "#s(and{~s2,~s3}): {and{~s2,~s3}} -> s1",
        ]

    def test_no_axioms_no_strict_rules(self):
        assert build_strict_rules([]) == ()

    def test_single_literal_axiom(self):
        assert sigs(build_strict_rules([A])) == {sig((), Arrow.STRICT, A)}

    def test_distinct_strict_rules_have_distinct_antecedents(self):
        rng = random.Random(43)
        for _ in range(60):
            facts = [_random_formula(rng, 2) for _ in range(rng.randint(0, 3))]
            strict = build_strict_rules(sorted(axiom_formulas(build_axioms(facts))))
            ants = [frozenset(r.antecedents) for r in strict]
            assert len(ants) == len(set(ants))

    def test_strict_rules_are_entailed_by_axioms(self):
        rng = random.Random(47)
        for _ in range(60):
            facts = [_random_formula(rng, 2) for _ in range(rng.randint(0, 3))]
            ax = sorted(axiom_formulas(build_axioms(facts)))
            for r in build_strict_rules(ax):
                assert entails(list(ax) + list(r.antecedents), r.consequent)


def _assert_facts_and_support(desc, fs):
    """is_fact and supporters against entailment over all the axioms.

    The supporters are the full scan of the rules, in their order.
    Returns the number of (rule, formula) pairs with support.
    """
    ax, supported = desc.axioms, 0
    for f in fs:
        assert desc.is_fact(f) == entails(ax, f), (ax, f)
        expected = tuple(r for r in desc.rules if satisfiable(ax + (r.consequent,))
                         and entails(ax + (r.consequent,), f))
        assert desc.supporters(f) == expected, (desc.rules, f)
        supported += len(expected)
    return supported


class TestFactsFromPrimeImplicates:
    """Facts and support are entailment over the axioms inside the query's atoms."""

    def test_agrees_with_entailment(self):
        rng = random.Random(67)
        cases = [parse_kb(p.read_text(encoding="utf-8"))
                 for p in sorted(KB_DIR.glob("*.ppl"))]
        cases = [(doc.facts, doc.rules) for doc in cases]
        cases += [([_random_formula(rng, 2) for _ in range(rng.randint(0, 4))], [])
                  for _ in range(1000)]
        conflicting = probes = 0
        for facts, rules in cases:
            desc = validate_description(facts, rules)
            conflicting += bool(classical.err(clauses_of(facts)))
            fs = [g for f in desc.axioms for g in (f, Neg(f))]
            fs += [r.consequent for r in rules]
            fs += [_random_formula(rng, 2) for _ in range(8)]
            _assert_facts_and_support(desc, fs)
            probes += len(fs)
        assert conflicting > 200 and probes > 10000
        supported = checks = 0
        for _ in range(300):
            desc = make_random_theory(rng)
            fs = [g for f in probe_formulas(desc) for g in (f, Neg(f))]
            supported += _assert_facts_and_support(desc, fs)
            checks += len(fs) * len(desc.rules)
        assert supported > 5000 and checks > 30000

    def test_queries_build_no_clause_form(self, monkeypatch):
        # every formula here is a clause or a conjunction of clauses, so the
        # kernel reads clauses off it and enumerates nothing
        doc = parse_kb((KB_DIR / "lottery4.ppl").read_text(encoding="utf-8"))
        desc = validate_description(doc.facts, doc.rules, doc.priority)
        calls = _count_calls(monkeypatch, "clauses_of", "satisfiable", "entails", "find_model")
        s1, s2, s3 = (Atom(f"s{i}") for i in (1, 2, 3))
        for f in (Neg(s1), s1, Disj([s1, s2]), Disj([s1, s2, s3])):
            for alg in ALG_ORDER:
                truth_value(desc, alg, f)
        assert calls["clauses_of"] == calls["satisfiable"] == calls["entails"] == 0
        assert calls["find_model"] > 0

    def test_wide_axioms_narrow_queries(self):
        # 22 atoms in the axioms, at most 2 in any rule or query
        doc = parse_kb(wide_implications_kb())
        desc = validate_description(doc.facts, doc.rules, doc.priority)
        assert len(set().union(*map(atoms, desc.axioms))) == 22
        for f in (Atom("r3"), Neg(Atom("q5"))):
            assert not desc.is_fact(f)
            assert [truth_value(desc, alg, f).value for alg in ALG_ORDER] == (
                ["u"] + ["t"] * 6)

    def test_long_chain_answers_under_every_algorithm(self, monkeypatch):
        # p_i -> p_(i+1) for 24 links and {} => p0: the strict rule #s(p0)
        # concludes a 24-atom conjunction, the axiom rule one of 25 atoms
        p = [Atom(f"p{i}") for i in range(25)]
        desc = validate_description([Disj([Neg(p[i]), p[i + 1]]) for i in range(24)],
                                    [Rule("r", (), Arrow.DEFEASIBLE, p[0])])
        calls = _count_calls(monkeypatch, "clauses_of", "find_model")
        assert "".join(truth_value(desc, alg, p[24]).value for alg in ALG_ORDER) == "utttttt"
        # one kernel run per fact and consistency check, and per candidate
        # consequent that no pooled countermodel rejects: 477 here (1,399
        # when every candidate was refuted on its own)
        assert calls["clauses_of"] == 0 and 0 < calls["find_model"] <= 500

    def test_long_implication_chain(self):
        # 25 atoms: more than the default atom limit of entailment over Ax
        p = [Atom(f"p{i}") for i in range(25)]
        desc = validate_description(
            [Disj([Neg(p[i]), p[i + 1]]) for i in range(24)], [])
        assert desc.is_fact(Disj([Neg(p[0]), p[24]]))
        assert not desc.is_fact(Disj([p[0], Neg(p[24])]))
        assert not desc.is_fact(p[24])


class TestSupporterIndex:
    """Supporters come from the rules whose consequents touch the axiom
    components of the formula, each distinct consequent decided once."""

    def test_two_components(self):
        a, b, c, d = (Atom(x) for x in "abcd")
        rules = [Rule("rd", (), Arrow.DEFEASIBLE, d),
                 Rule("rbd", (), Arrow.DEFEASIBLE, Conj([b, d])),
                 Rule("ra", (), Arrow.DEFEASIBLE, a),
                 Rule("bad", (), Arrow.DEFEASIBLE, Conj([a, Neg(b)])),
                 Rule("none", (), Arrow.DEFEASIBLE, FALSUM)]
        facts = [Disj([Neg(a), b]), Disj([Neg(c), d])]  # a -> b, c -> d
        desc = validate_description(facts, rules)
        with_b = validate_description(facts + [b], rules)
        assert not desc.is_fact(b) and with_b.is_fact(b)

        def ids(desc, f):
            return [r.rid for r in desc.supporters(f)]

        # rd concludes d, outside b's component, so it supports b only
        # once b is a fact; and{b,d} touches both components
        assert ids(desc, b) == ["#s(a)", "rbd", "ra"]
        assert ids(desc, d) == ["#s(c)", "rd", "rbd"]
        # a fact, the verum among them, has every rule with a consistent
        # consequent; the falsum has none; the inconsistent consequents
        # and{a,~b} and or{} support nothing
        for x, f in ((desc, VERUM), (with_b, b), (with_b, VERUM)):
            assert ids(x, f) == [r.rid for r in x.rules if r.rid not in ("bad", "none")]
        assert ids(desc, FALSUM) == ids(with_b, FALSUM) == []
        fs = [b, d, Neg(b), a, Disj([b, d]), Conj([a, d]), FALSUM, VERUM]
        _assert_facts_and_support(desc, fs)
        _assert_facts_and_support(with_b, fs)

    def test_components_are_connected_components(self):
        rng = random.Random(19)
        for _ in range(300):
            names = [f"x{i}" for i in range(rng.randint(1, 12))]
            edges = [frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))
                     for _ in range(rng.randint(0, 10))]
            got = _components(edges)
            assert set(got) == set().union(*edges)
            for a in got:  # a's component, grown edge by edge
                reach, grew = {a}, True
                while grew:
                    grew = False
                    for e in edges:
                        if e & reach and not e <= reach:
                            reach |= e
                            grew = True
                assert {b for b in got if got[b] == got[a]} == reach

    def test_chain_top_makes_linear_entailment_calls(self, monkeypatch):
        n = 200
        desc = desc_rule_chain(n)
        calls = _count_calls(monkeypatch, "find_model")
        assert truth_value(desc, Alg.BETA, Atom(f"a{n - 1}")) is TruthValue.TRUE
        # per link: two fact checks, one consistency and two support checks;
        # each scan has one candidate, so it pools nothing
        assert calls["find_model"] == 5 * n

    def test_shared_consequents_are_decided_once(self, monkeypatch):
        # 3-stage ambiguity ladder: rb and tb conclude b_i, ranb and w ~b_i
        # (equal consequents, built separately as a parser builds them)
        b, a = [Atom("b0")], [None]
        rules = [Rule("r0", (), Arrow.DEFEASIBLE, b[0])]
        for i in range(1, 4):
            a.append(Atom(f"a{i}"))
            b.append(Atom(f"b{i}"))
            rules += [Rule(f"ra{i}", (b[i - 1],), Arrow.DEFEASIBLE, a[i]),
                      Rule(f"rna{i}", (b[i - 1],), Arrow.DEFEASIBLE, Neg(a[i])),
                      Rule(f"rb{i}", (b[i - 1],), Arrow.DEFEASIBLE, b[i]),
                      Rule(f"tb{i}", (b[i - 1],), Arrow.DEFEASIBLE, Atom(f"b{i}")),
                      Rule(f"ranb{i}", (a[i],), Arrow.DEFEASIBLE, Neg(b[i])),
                      Rule(f"w{i}", (a[i],), Arrow.WARNING, Neg(Atom(f"b{i}")))]
        desc = validate_description([], rules)
        asked = []

        def recorded(self, premises, f, start=None,
                     _countermodel=PlausibleDescription._countermodel):
            asked.append((premises, f))
            return _countermodel(self, premises, f, start)

        monkeypatch.setattr(PlausibleDescription, "_countermodel", recorded)
        calls = _count_calls(monkeypatch, "find_model")
        for i in range(1, 4):
            for f in (a[i], b[i]):
                for alg in ALG_ORDER:
                    truth_value(desc, alg, f)
        # each question asked once, and each decided by one kernel run
        assert asked and len(asked) == len(set(asked)) == calls["find_model"]


class TestSupporterScan:
    """One supporter scan propagates ~f once and rejects candidates that a
    pooled countermodel satisfies, without a search."""

    def test_pooled_models_take_the_unit_axioms(self):
        # the scan of a tests ~a, which pools a countermodel, before
        # or{a,~b} and a; the pooled model must decide b as the axiom {b}
        # does, not negative, or it would satisfy or{a,~b} and reject it
        a, b = Atom("a"), Atom("b")
        desc = validate_description([b], [Rule("u1", (), Arrow.DEFEASIBLE, Neg(a)),
                                          Rule("u2", (b,), Arrow.DEFEASIBLE,
                                               Disj([a, Neg(b)])),
                                          Rule("u3", (), Arrow.DEFEASIBLE, a)])
        assert [r.rid for r in desc.supporters(a)] == ["u2", "u3"]
        _assert_facts_and_support(desc, [a, Neg(a), b, Neg(b), Disj([a, b])])

    def test_lottery_scans_run_few_kernels(self, monkeypatch):
        # 8 tickets: 37,264 refutations when each candidate consequent was
        # refuted on its own, 3,440 kernel runs with the pool
        tickets = [Atom(f"s{i}") for i in range(1, 9)]
        rules = [Rule(f"r{i}", (), Arrow.DEFEASIBLE, Neg(t)) for i, t in enumerate(tickets)]
        rules += [Rule(f"q{i}", (), Arrow.DEFEASIBLE, Disj(tickets[:i] + tickets[i + 1:]))
                  for i in range(8)]
        desc = validate_description(lottery_facts(8), rules)
        calls = _count_calls(monkeypatch, "find_model")
        assert "".join(truth_value(desc, alg, Neg(tickets[0])).value
                       for alg in ALG_ORDER) == "utttttt"
        assert 0 < calls["find_model"] <= 5000


class TestValidation:
    def test_lottery_description(self):
        desc = desc_lottery3()
        assert len(desc.rules) == 16
        assert len(desc.axioms) == 4
        assert desc.rse_id is not None
        assert desc.rule(desc.rse_id).antecedents == ()

    def test_axioms_empty_iff_no_strict_rules(self):
        d1 = desc_plausible_default()
        assert d1.axioms == () and d1.rse_id is None
        assert all(r.arrow is not Arrow.STRICT for r in d1.rules)

    def test_cyclic_priority_two_cycle(self):
        rules = [
            Rule("x", (), Arrow.DEFEASIBLE, A),
            Rule("y", (), Arrow.DEFEASIBLE, B),
        ]
        with pytest.raises(CyclicPriorityError) as exc:
            validate_description([], rules, [("x", "y"), ("y", "x")])
        assert set(exc.value.cycle) == {"x", "y"}

    def test_cycle_reported_in_superior_to_inferior_order(self):
        rules = [Rule(rid, (), Arrow.DEFEASIBLE, A) for rid in "xyz"]
        pairs = [("x", "y"), ("y", "z"), ("z", "x")]
        with pytest.raises(CyclicPriorityError) as exc:
            validate_description([], rules, pairs)
        cycle = exc.value.cycle
        assert sorted(cycle) == ["x", "y", "z"]
        assert {(cycle[i], cycle[(i + 1) % 3]) for i in range(3)} == set(pairs)
        assert str(exc.value) == "cyclic priority: " + " > ".join(cycle + cycle[:1])

    def test_long_acyclic_priority_chain_at_the_default_limit(self):
        n = 5001
        rules = [Rule(f"r{i}", (), Arrow.DEFEASIBLE, A) for i in range(n)]
        pairs = [(f"r{i}", f"r{i + 1}") for i in range(n - 1)]
        desc = validate_description([], rules, pairs)
        assert len(desc.priority) == 5000
        with pytest.raises(CyclicPriorityError) as exc:
            validate_description([], rules, pairs + [(f"r{n - 1}", "r0")])
        assert len(exc.value.cycle) == n

    def test_cyclic_priority_self_loop(self):
        rules = [Rule("x", (), Arrow.DEFEASIBLE, A)]
        with pytest.raises(CyclicPriorityError):
            validate_description([], rules, [("x", "x")])

    def test_priority_below_axiom_rule_rejected(self):
        rules = [Rule("x", (), Arrow.DEFEASIBLE, B)]
        with pytest.raises(PriorityOverRseError):
            validate_description([A], rules, [("x", "#rse")])

    def test_axiom_rule_may_be_superior(self):
        rules = [Rule("x", (), Arrow.DEFEASIBLE, B)]
        desc = validate_description([A], rules, [("#rse", "x")])
        assert ("#rse", "x") in desc.priority

    def test_unknown_priority_id(self):
        rules = [Rule("r9", (), Arrow.DEFEASIBLE, A)]
        with pytest.raises(UnknownRuleIdError):
            validate_description([], rules, [("r9", "rX")])

    def test_duplicate_ids_rejected(self):
        rules = [
            Rule("r", (), Arrow.DEFEASIBLE, A),
            Rule("r", (), Arrow.DEFEASIBLE, B),
        ]
        with pytest.raises(DuplicateRuleIdError):
            validate_description([], rules)

    def test_user_strict_rules_rejected(self):
        with pytest.raises(StrictRuleRejectedError):
            validate_description([], [Rule("r", (), Arrow.STRICT, A)])

    def test_random_dags_accepted_and_injected_cycles_rejected(self):
        rng = random.Random(53)
        for _ in range(60):
            n = rng.randint(2, 6)
            rules = [Rule(f"r{i}", (), Arrow.DEFEASIBLE, A) for i in range(n)]
            order = list(range(n))
            rng.shuffle(order)
            edges = [
                (f"r{order[i]}", f"r{order[j]}")
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            desc = validate_description([], rules, edges)
            assert desc.priority == frozenset(edges)
            if edges:
                sup, inf = rng.choice(edges)
                with pytest.raises(CyclicPriorityError):
                    validate_description([], rules, edges + [(inf, sup)])


class TestRuleIndexing:
    def test_lottery_supporters_of_losing(self):
        desc = desc_lottery3()
        got = sigs(desc.supporters(Neg(S1), desc.rsd()))
        assert got == {
            sig((Neg(S1),), Arrow.STRICT, Disj([S2, S3])),
            sig((Conj([Neg(S1), Neg(S3)]),), Arrow.STRICT, S2),
            sig((Conj([Neg(S1), Neg(S2)]),), Arrow.STRICT, S3),
            sig((S2,), Arrow.STRICT, Conj([Neg(S1), Neg(S3)])),
            sig((S3,), Arrow.STRICT, Conj([Neg(S1), Neg(S2)])),
            sig((), Arrow.DEFEASIBLE, Neg(S1)),
            sig((), Arrow.DEFEASIBLE, Disj([S2, S3])),
        }

    def test_lottery_supporters_of_winning(self):
        desc = desc_lottery3()
        got = sigs(desc.supporters(S1, desc.rsd()))
        assert got == {
            sig((Conj([Neg(S2), Neg(S3)]),), Arrow.STRICT, S1),
            sig((S1,), Arrow.STRICT, Conj([Neg(S2), Neg(S3)])),
        }
        assert got == sigs(desc.supporters(Conj([Neg(S2), Neg(S3)]), desc.rsd()))

    def test_no_supporters_against_unopposed_default(self):
        desc = desc_plausible_default()
        assert desc.supporters(Neg(A)) == ()

    def test_subset_queries_are_restrictions(self):
        desc = desc_lottery3()
        rng = random.Random(59)
        probes = [Neg(S1), S1, Disj([S1, S2]), Conj([Neg(S1), Neg(S2)])]
        for f in probes:
            full = set(desc.supporters(f))
            sub = rng.sample(desc.rules, 8)
            assert set(desc.supporters(f, sub)) == full & set(sub)

    def test_equivalent_formulas_have_equal_supporter_sets(self):
        desc = desc_lottery3()
        assert desc.supporters(Neg(S1)) == desc.supporters(Neg(Neg(Neg(S1))))
        assert desc.supporters(S1) == desc.supporters(Conj([S1, S1]))

    def test_entailment_makes_supporters_monotone(self):
        desc = desc_lottery3()
        # axioms + or{s2,s3} entail ~s1, so supporters carry over
        f, g = Disj([S2, S3]), Neg(S1)
        assert set(desc.supporters(f)) <= set(desc.supporters(g))
        assert set(desc.supporters(Neg(g))) <= set(desc.supporters(Neg(f)))

    def test_superior_supporters_empty_priority(self):
        desc = desc_lottery3()
        for f in (Neg(S1), S1):
            for s in desc.rules:
                assert desc.superior_supporters(f, s) == ()

    def test_superior_supporters_with_priority(self):
        m, c, s = Atom("m"), Atom("c"), Atom("s")
        shell = Rule("ms", (m,), Arrow.DEFEASIBLE, s)
        no_shell = Rule("cns", (c,), Arrow.DEFEASIBLE, Neg(s))
        desc = validate_description([], [shell, no_shell], [("cns", "ms")])
        got = desc.superior_supporters(Neg(s), shell)
        assert [r.rid for r in got] == ["cns"]

    def test_superior_supporters_on_empty_subset(self):
        desc = desc_ambiguity()
        assert desc.superior_supporters(Atom("b"), desc.rule("rb"), []) == ()

    def test_queries_keep_equality_and_fields_are_frozen(self):
        warm, fresh = desc_lottery3(), desc_lottery3()
        for alg in ALG_ORDER:
            truth_value(warm, alg, Neg(S1))
        assert warm == fresh and hash(warm) == hash(fresh)
        with pytest.raises(FrozenInstanceError):
            warm.rules = ()
        assert warm.rules == fresh.rules

    def test_caches_are_pure_memos(self):
        # warm caches answer exactly like a fresh description
        m, c, s = Atom("m"), Atom("c"), Atom("s")

        def prioritised():
            rules = [Rule("ms", (m,), Arrow.DEFEASIBLE, s),
                     Rule("cns", (c,), Arrow.DEFEASIBLE, Neg(s)),
                     Rule("w", (), Arrow.WARNING, Neg(s))]
            return validate_description([Disj([m, c])], rules,
                                        [("cns", "ms"), ("w", "ms")])

        for build, probes in (
            (desc_lottery3, [Neg(S1), S1, Disj([S1, S2]), Conj([Neg(S1), Neg(S2)])]),
            (prioritised, [s, Neg(s), Disj([m, c])]),
        ):
            warm = build()
            for f in probes:
                warm.supporters(f)
                warm.supporters(f, warm.rsd())
                warm.is_fact(f)
                for r in warm.rules:
                    warm.superior_supporters(f, r, warm.rsd())
            fresh = build()
            for f in probes:
                assert warm.supporters(f) == fresh.supporters(f)
                assert warm.supporters(f, warm.rsd()) == fresh.supporters(f, fresh.rsd())
                assert warm.is_fact(f) == fresh.is_fact(f)
                for r in fresh.rules:
                    assert (warm.superior_supporters(f, warm.rule(r.rid), warm.rsd())
                            == fresh.superior_supporters(f, r, fresh.rsd()))
                    # the short cut for rules never inferior keeps the definition
                    for rules in (None, fresh.rsd()):
                        assert fresh.superior_supporters(f, r, rules) == tuple(
                            t for t in fresh.supporters(f, rules)
                            if (t.rid, r.rid) in fresh.priority)
                # restricting to rsd() keeps the declared order
                every = set(fresh.supporters(f))
                assert warm.supporters(f, warm.rsd()) == tuple(
                    r for r in fresh.rsd() if r in every)
        ms = warm.rule("ms")
        assert [t.rid for t in warm.superior_supporters(Neg(s), ms)] == ["cns", "w"]
        assert [t.rid for t in warm.superior_supporters(Neg(s), ms, warm.rsd())] == ["cns"]

    def test_entailment_monotonicity_on_generated_theories(self):
        import random as _random

        from conftest import make_random_theory, probe_formulas

        rng = _random.Random(71)
        for _ in range(40):
            desc = make_random_theory(rng)
            probes = probe_formulas(desc)
            for f in probes[:6]:
                for g in probes[:6]:
                    if entails(desc.axioms + (f,), g):
                        assert set(desc.supporters(f)) <= set(desc.supporters(g))
                        assert set(desc.supporters(Neg(g))) <= set(
                            desc.supporters(Neg(f))
                        )
