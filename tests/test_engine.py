"""Golden reasoning examples, histories, evaluation trees, truth values."""

import json
import random
import sys
import threading
from itertools import combinations

import pytest

from conftest import (
    KB_DIR,
    desc_ambiguity,
    desc_lottery3,
    desc_lottery4,
    desc_plausible_default,
    desc_retracted_default,
    desc_rule_chain,
    lottery_facts,
    make_medium_theory,
    make_random_theory,
    make_ranked_theory,
    make_wide_theory,
    probe_formulas,
    shallow_recursion_limit,
)
from ppl import (
    ALG_ORDER,
    DEFAULT_MAX_ATOMS,
    Alg,
    Arrow,
    Atom,
    AtomLimitError,
    Conj,
    Disj,
    InvalidHistoryError,
    Neg,
    Rule,
    TruthValue,
    co_algorithm,
    evaluation_tree,
    foes,
    parse_kb,
    provable,
    prove,
    tree_dot,
    tree_json,
    tree_value,
    truth_value,
    validate_description,
)
from ppl import engine, kb
from ppl.engine import _root_subject, _TreeEvaluator, check_history
from test_exports import ladder

A, B = Atom("a"), Atom("b")
S1, S2, S3 = Atom("s1"), Atom("s2"), Atom("s3")
MAIN = (Alg.PI, Alg.PSI, Alg.BETA)


class TestCoAlgorithm:
    def test_factual_is_self_dual(self):
        assert co_algorithm(Alg.PHI) is Alg.PHI

    def test_priming(self):
        assert co_algorithm(Alg.BETA) is Alg.BETA_P
        assert co_algorithm(Alg.PSI) is Alg.PSI_P

    def test_involution(self):
        for alg in ALG_ORDER:
            assert co_algorithm(co_algorithm(alg)) is alg

    def test_tags(self):
        for alg in ALG_ORDER:
            assert co_algorithm(alg.value) is co_algorithm(alg)
        with pytest.raises(ValueError, match="unknown algorithm 'xyz'"):
            co_algorithm("xyz")


class TestUnopposedDefault:
    def test_all_main_algorithms_conclude_the_default(self):
        desc = desc_plausible_default()
        for alg in MAIN:
            assert prove(desc, alg, A) == +1

    def test_factual_algorithm_does_not(self):
        assert prove(desc_plausible_default(), Alg.PHI, A) == -1


class TestRetractedDefault:
    def test_fact_wins(self):
        desc = desc_retracted_default()
        assert [str(f) for f in desc.axioms] == ["~a"]
        for alg in (Alg.PHI,) + MAIN:
            assert prove(desc, alg, Neg(A)) == +1
            assert not provable(desc, alg, A)


class TestAmbiguity:
    def test_propagating_algorithms_refuse_b(self):
        desc = desc_ambiguity()
        assert prove(desc, Alg.PI, B) == -1
        assert prove(desc, Alg.PSI, B) == -1

    def test_blocking_algorithm_concludes_b(self):
        assert prove(desc_ambiguity(), Alg.BETA, B) == +1

    def test_foe_sets(self):
        desc = desc_ambiguity()
        assert [r.rid for r in foes(desc, Alg.BETA, B, desc.rule("rb"))] == ["ranb"]
        assert foes(desc, Alg.PI_P, B, desc.rule("rb")) == ()
        # empty priority leaves the superiority-only algorithm with no foes
        assert foes(desc, Alg.PSI_P, B, desc.rule("rb")) == ()

    def test_foes_by_tag(self):
        # pi-p and phi regard no foes, but a tag is no member: it must name
        # its algorithm, not fall through to the algorithms that do
        doc = parse_kb((KB_DIR / "penguin.ppl").read_text(encoding="utf-8"))
        desc = validate_description(doc.facts, doc.rules, doc.priority)
        fly = Atom("fly")
        for alg in ALG_ORDER:
            for f in (fly, Neg(fly)):
                for r in desc.rules:
                    assert foes(desc, alg.value, f, r) == foes(desc, alg, f, r), (alg, f, r)
        assert foes(desc, Alg.BETA, fly, desc.rule("rb")) != ()
        with pytest.raises(ValueError, match="unknown algorithm 'xyz'"):
            foes(desc, "xyz", fly, desc.rule("rb"))

    def test_primed_algorithms_prove_both_ways(self):
        desc = desc_ambiguity()
        for alg in (Alg.PSI_P, Alg.PI_P):
            assert provable(desc, alg, A) and provable(desc, alg, Neg(A))
            assert truth_value(desc, alg, A) is TruthValue.AMBIGUOUS


class TestLottery:
    def test_each_ticket_usually_loses(self):
        desc = desc_lottery3()
        for alg in MAIN:
            for s in (S1, S2, S3):
                assert prove(desc, alg, Neg(s)) == +1
                assert not provable(desc, alg, s)

    def test_winner_usually_among_any_two(self):
        desc = desc_lottery3()
        for alg in MAIN:
            assert prove(desc, alg, Disj([S1, S2])) == +1

    def test_conjunction_of_losses_is_not_concluded(self):
        desc = desc_lottery3()
        for alg in MAIN:
            assert prove(desc, alg, Conj([Neg(S1), Neg(S2)])) == -1

    def test_proof_over_formula_sets(self):
        desc = desc_lottery3()
        assert prove(desc, Alg.PI, [Neg(S1), Neg(S2)]) == +1
        assert prove(desc, Alg.PI, []) == +1
        assert prove(desc, Alg.PI, [Neg(S1), S2]) == -1


class TestPriorityDefeat:
    def test_specific_rule_beats_general_rule(self):
        m, c, s = Atom("m"), Atom("c"), Atom("s")
        desc = validate_description(
            [c, m],
            [
                Rule("ms", (m,), Arrow.DEFEASIBLE, s),
                Rule("cns", (c,), Arrow.DEFEASIBLE, Neg(s)),
            ],
            [("cns", "ms")],
        )
        for alg in MAIN:
            assert prove(desc, alg, Neg(s)) == +1
            assert prove(desc, alg, s) == -1

    def test_intermediate_history_states_of_the_ambiguity_run(self):
        desc = desc_ambiguity()
        # with the attacker on the branch, the blocking co-algorithm fails
        # on a, while the permissive ones accept it
        assert prove(desc, Alg.BETA_P, A, [("beta-p", "ranb")]) == -1
        assert prove(desc, Alg.PI_P, A, [("pi-p", "ranb")]) == +1
        assert prove(desc, Alg.PSI_P, A, [("psi-p", "ranb")]) == +1

    def test_team_defeaters_do_not_hold_the_supporters_entry(self):
        # psi proves u0's antecedent p, and u0's one foe is u2 (u4 is
        # inferior to u0).  u1 team-defeats u2 only if psi proves u1's
        # antecedent p under the history plus (psi, u1), which it cannot;
        # with u0's entry in that history as well it could, and ~p would be
        # proved.  The co-algorithm proves ~p, so u2 is not disabled either.
        p = Atom("p")
        desc = validate_description([], [
            Rule("u0", (p,), Arrow.DEFEASIBLE, Neg(p)),
            Rule("u1", (p,), Arrow.DEFEASIBLE, Neg(p)),
            Rule("u2", (Neg(p),), Arrow.DEFEASIBLE, p),
            Rule("u4", (), Arrow.DEFEASIBLE, p),
        ], [("u1", "u2"), ("u0", "u4")])
        assert prove(desc, Alg.PSI, Neg(p)) == tree_value(desc, Alg.PSI, Neg(p)) == -1
        assert prove(desc, Alg.PSI, p, [("psi", "u0")]) == +1
        assert prove(desc, Alg.PSI, p, [("psi", "u1")]) == -1
        assert prove(desc, Alg.PSI, p, [("psi", "u0"), ("psi", "u1")]) == +1
        assert prove(desc, Alg.PSI_P, Neg(p), [("psi-p", "u2")]) == +1

    def test_ranked_theories_agree_with_the_tree(self):
        # seeds 33, 95 and 192 give theories, like the one above, on which a
        # prover that proves team defeaters under the supporter's entry as
        # well changes a verdict
        for seed in range(200):
            desc = make_ranked_theory(random.Random(seed))
            for f in probe_formulas(desc):
                for alg in ALG_ORDER:
                    assert prove(desc, alg, f) == tree_value(desc, alg, f), (seed, alg, f)


class TestWarningRules:
    def test_warnings_attack_but_never_support(self):
        desc = validate_description(
            [],
            [
                Rule("rb", (), Arrow.DEFEASIBLE, B),
                Rule("w", (), Arrow.WARNING, Neg(B)),
            ],
        )
        for alg in MAIN:
            assert prove(desc, alg, B) == -1
            assert prove(desc, alg, Neg(B)) == -1

    def test_warning_prevents_chaining(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        desc = validate_description(
            [a],
            [
                Rule("ab", (a,), Arrow.DEFEASIBLE, b),
                Rule("bc", (b,), Arrow.DEFEASIBLE, c),
                Rule("w", (a,), Arrow.WARNING, Neg(c)),
            ],
        )
        for alg in MAIN:
            assert prove(desc, alg, b) == +1
            assert prove(desc, alg, c) == -1


class TestHistories:
    def test_repeat_entry_rejected(self):
        desc = desc_plausible_default()
        with pytest.raises(InvalidHistoryError):
            prove(desc, Alg.PI, A, [("pi", "ra"), ("pi", "ra")])

    def test_foreign_algorithm_rejected(self):
        desc = desc_plausible_default()
        with pytest.raises(InvalidHistoryError):
            prove(desc, Alg.PI, A, [("beta", "ra")])

    @pytest.mark.parametrize("entry", ["pi", ("pi",), ("pi", "ra", "x"), 7, ("pi", ["ra"]),
                                       ("pi", 3)],
                             ids=["string", "one-item", "three-item", "int", "list-rule-id",
                                  "int-rule-id"])
    @pytest.mark.parametrize("query", [prove, tree_value, evaluation_tree])
    def test_malformed_entry_rejected(self, query, entry):
        desc = desc_plausible_default()
        with pytest.raises(InvalidHistoryError) as exc:
            query(desc, Alg.PI, A, [entry])
        assert str(exc.value) == f"history entry {entry!r} is not an (algorithm, rule id) pair"

    @pytest.mark.parametrize("query", [prove, tree_value, evaluation_tree])
    def test_unknown_algorithm_tag_rejected(self, query):
        desc = desc_plausible_default()
        with pytest.raises(InvalidHistoryError, match="^unknown algorithm tag 'gamma'$"):
            query(desc, Alg.PI, A, [("gamma", "ra")])

    def test_unknown_rule_rejected(self):
        desc = desc_plausible_default()
        with pytest.raises(Exception):
            prove(desc, Alg.PI, A, [("pi", "nope")])

    def test_used_entry_blocks_its_rule(self):
        desc = desc_plausible_default()
        assert prove(desc, Alg.PI, A, [("pi", "ra")]) == -1
        assert prove(desc, Alg.PI, A, [("pi-p", "ra")]) == +1


def lottery(n: int):
    """The n-ticket lottery: `{} => ~s_i` and `{} => or{the others}`."""
    tickets = [Atom(f"s{i}") for i in range(1, n + 1)]
    rules = [Rule(f"d{i}", (), Arrow.DEFEASIBLE, Neg(t)) for i, t in enumerate(tickets, 1)]
    rules += [Rule(f"t{i}", (), Arrow.DEFEASIBLE, Disj(tickets[:i - 1] + tickets[i:]))
              for i in range(1, n + 1)]
    return validate_description(lottery_facts(n), rules)


class TestHistoryBits:
    """The prover, the tree count and the tree's root value all read a
    history as the bitset `_bit` gives its entries, so a fault in the
    encoding would show in all three alike and no comparison between them
    would catch it: these tests pin it on its own."""

    @staticmethod
    def descriptions():
        # every shipped KB, the 10-ticket lottery (1,053 rules) and large
        # slices of the differential corpus, up to 20 priority pairs each
        descs = [build() for build in kb_descriptions()] + [lottery(10)]
        descs += [make_medium_theory(random.Random(seed), (4, 8), (10, 40), 20)
                  for seed in range(0, 40, 5)]
        return descs

    def test_a_walks_entries_take_distinct_single_bits(self):
        # a walk under alg holds entries of alg and of its co-algorithm only
        checked = 0
        for desc in self.descriptions():
            for alg in ALG_ORDER:
                entries = [(tag, r.rid) for tag in dict.fromkeys((alg, co_algorithm(alg)))
                           for r in desc.rules]
                bits = [engine._bit(desc, tag, rid) for tag, rid in entries]
                assert all(b > 0 and b & (b - 1) == 0 for b in bits), alg
                assert len(set(bits)) == len(entries), alg
                checked += len(entries)
        assert checked > 15000

    def test_history_bits_are_the_or_of_the_entries_bits(self):
        rng = random.Random(20261020)
        for desc in self.descriptions():
            for alg in ALG_ORDER:
                assert engine._history_bits(desc, ()) == 0
                tags = dict.fromkeys((alg, co_algorithm(alg)))
                pool = [(tag.value, r.rid) for tag in tags for r in desc.rules]
                for _ in range(10):
                    entries = rng.sample(pool, rng.randint(1, min(6, len(pool))))
                    _, history = check_history(desc, alg, entries)
                    want = 0
                    for tag, rid in history:
                        want |= engine._bit(desc, tag, rid)
                    assert engine._history_bits(desc, history) == want, (alg, history)


QUERIES = [prove, tree_value, evaluation_tree, truth_value]


class TestQueryArguments:
    """An algorithm tag answers like its enum member; a bad algorithm or a
    query that is not a formula (set) is a typed error, raised before the
    description's memo is touched."""

    def test_algorithm_tag_answers_like_the_enum(self):
        desc = desc_ambiguity()
        for alg in ALG_ORDER:
            for f in (A, Neg(B), B):
                assert prove(desc, alg.value, f) == prove(desc, alg, f)
                assert truth_value(desc, alg.value, f) is truth_value(desc, alg, f)
                assert tree_value(desc, alg.value, f) == tree_value(desc, alg, f)
                assert (evaluation_tree(desc, alg.value, f)
                        == evaluation_tree(desc, alg, f))
        history = [("pi", "ra")]
        assert prove(desc, "pi", A, history) == prove(desc, Alg.PI, A, history) == -1

    @pytest.mark.parametrize("alg", ["pi2", "PI", "", 7, None])
    @pytest.mark.parametrize("query", QUERIES)
    def test_unknown_algorithm_raises_value_error(self, query, alg):
        desc = desc_plausible_default()
        with pytest.raises(ValueError, match="unknown algorithm"):
            query(desc, alg, A)
        assert desc._proofs == {}

    @pytest.mark.parametrize("x, named", [
        ("ab", "'ab'"), (b"a", "b'a'"), (["a"], "'a'"), ([A, "b"], "'b'"),
        (7, "7"), ([A, None], "None"),
    ], ids=["text", "bytes", "text-member", "mixed-members", "int", "none-member"])
    @pytest.mark.parametrize("query", QUERIES)
    def test_query_that_is_not_a_formula_raises_type_error(self, query, x, named):
        desc = desc_plausible_default()
        with pytest.raises(TypeError, match=f"{named} is") as exc:
            query(desc, Alg.PI, x)
        assert "not a formula" in str(exc.value)
        assert desc._proofs == {}

    @pytest.mark.parametrize("x", [[A], (), [A, Neg(B)]], ids=["one", "empty", "two"])
    def test_truth_value_of_a_formula_set_raises_type_error(self, x):
        # a truth value compares the proofs of f and ~f; a set has no negation
        desc = desc_plausible_default()
        with pytest.raises(TypeError, match="is a set of formulas, not a formula"):
            truth_value(desc, Alg.PI, x)
        assert desc._proofs == {}


def random_history(rng, desc, alg):
    """Up to three distinct entries of alg and its co-algorithm."""
    tags = dict.fromkeys((alg, co_algorithm(alg)))  # phi is self-dual
    pool = [(tag, r.rid) for tag in tags for r in desc.rules]
    return rng.sample(pool, rng.randint(0, min(3, len(pool))))


def kb_descriptions():
    """A builder of each shipped KB's description."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(KB_DIR.glob("*.ppl"))]
    assert texts

    def builder(text):
        doc = parse_kb(text)
        return lambda: validate_description(doc.facts, doc.rules, doc.priority)

    return [builder(text) for text in texts]


class TestReuseAcrossHistories:
    """A description's proof memo reuses a value, in any later query, under
    any history that agrees on the entries the value's computation read; it
    must equal the tree's value under that history."""

    def test_team_defeat_entry_is_read(self):
        # r's foe s is team-defeated by t, so the value of f reads (pi, t)
        f = Atom("f")
        desc = validate_description(
            [],
            [
                Rule("r", (), Arrow.DEFEASIBLE, f),
                Rule("s", (), Arrow.DEFEASIBLE, Neg(f)),
                Rule("t", (), Arrow.DEFEASIBLE, f),
            ],
            [("t", "s")],
        )
        assert prove(desc, Alg.PI, f) == +1
        history = [(Alg.PI, "t")]
        assert prove(desc, Alg.PI, f, history) == -1
        assert tree_value(desc, Alg.PI, f, history) == -1

    @staticmethod
    def interleaving(rng, build, calls, extra=()):
        """A seeded interleaving of queries on one description, each against
        the tree on a second description that no proof touches; the probes
        are `probe_formulas` and the `extra` formulas."""
        shared, fresh = build(), build()
        probes = probe_formulas(shared) + list(extra)
        for _ in range(calls):
            alg = rng.choice(ALG_ORDER)
            history = random_history(rng, shared, alg)
            if rng.random() < 0.25:
                x = rng.sample(probes, rng.randint(0, min(3, len(probes))))
            else:
                x = rng.choice(probes)
            assert (prove(shared, alg, x, history)
                    == tree_value(fresh, alg, x, history)), (alg, history, x)
        assert fresh._proofs == {}

    def test_shared_prover_equals_the_tree_under_random_histories(self):
        rng = random.Random(20261018)
        for _ in range(200):
            seed = rng.random()
            self.interleaving(rng, lambda: make_random_theory(random.Random(seed)), 150)

    def test_one_tree_evaluator_under_random_histories(self):
        # the evaluator's memo, like the prover's, holds each value with the
        # entries its walk tested: one evaluator serves every history
        rng = random.Random(20261020)
        for _ in range(100):
            desc = make_wide_theory(rng)
            evaluator = _TreeEvaluator(desc)
            probes = probe_formulas(desc)
            for _ in range(40):
                alg = rng.choice(ALG_ORDER)
                history = random_history(rng, desc, alg)
                x = rng.choice(probes)
                _, h = check_history(desc, alg, history)
                assert (evaluator.value(_root_subject(alg, h, x))
                        == prove(desc, alg, x, history)), (alg, history, x)

    def test_shared_prover_equals_the_tree_on_the_kb_files(self):
        rng = random.Random(20261019)
        for build in kb_descriptions():
            self.interleaving(rng, build, 300)

    def test_shared_prover_equals_the_tree_on_a_lottery(self):
        # the 4-ticket lottery's strict rules have one antecedent each, and
        # a memo hit of -1 on it refutes most supporters before a walk
        # starts; the antecedents and consequents are queried too
        desc = desc_lottery4()
        extra = [f for r in desc.rules for f in (*r.antecedents, r.consequent)]
        rng = random.Random(20261020)
        for _ in range(3):
            self.interleaving(rng, desc_lottery4, 400, extra)

    def test_shared_prover_equals_the_tree_where_antecedents_turn(self):
        # on the penguin KB and a 2-stage ladder with priorities, a history of
        # one entry changes the value of some antecedent (checked first), so a
        # memo hit reused without reading its D, or any stored -1 reused for
        # an antecedent, meets a history under which it is wrong
        penguin = parse_kb((KB_DIR / "penguin.ppl").read_text(encoding="utf-8"))
        builds = [lambda: validate_description(penguin.facts, penguin.rules, penguin.priority),
                  lambda: ladder(2, True)]
        rng = random.Random(20261022)
        for build in builds:
            desc = build()
            antecedents = {a for r in desc.rules for a in r.antecedents}
            assert any(tree_value(desc, alg, a, [(alg, r.rid)]) != tree_value(desc, alg, a)
                       for alg in ALG_ORDER for a in antecedents for r in desc.rules)
            extra = [f for r in desc.rules for f in (*r.antecedents, r.consequent)]
            for _ in range(3):
                self.interleaving(rng, build, 200, extra)

    def test_refuted_antecedent_entries_are_read(self):
        # f's supporter rf is refuted by the memo hit of its antecedent a,
        # whose value read (pi, ra): so the value of f reads it too, and is
        # not reused under the empty history
        a, f = Atom("a"), Atom("f")

        def build():
            return validate_description([], [Rule("ra", (), Arrow.DEFEASIBLE, a),
                                             Rule("rf", (a,), Arrow.DEFEASIBLE, f)])

        desc, history = build(), [(Alg.PI, "ra")]
        assert prove(desc, Alg.PI, a, history) == prove(desc, Alg.PI, f, history) == -1
        assert prove(desc, Alg.PI, f) == tree_value(build(), Alg.PI, f) == +1

    def test_atom_limit_mid_proof_leaves_the_memo_exact(self):
        # d's supporter r needs x (stored first) and then ~a, whose scan
        # meets the consequent of w as a candidate: or{a,and{b,c}}, whose
        # clause form must be enumerated, over max_atoms=2.  With
        # ~or{a,and{b,c}} as r's second antecedent and no w, every question
        # is read off literals and conjunctions of clauses: nothing is
        # enumerated, and each answer is the one a high limit gives
        a, b, c, d, x = (Atom(n) for n in "abcdx")
        wide = Disj([a, Conj([b, c])])
        formulas = (d, Neg(d), x, Neg(x), [x, Neg(d)], a, Neg(a), wide, Neg(wide))

        def build(second, extra, max_atoms=2):
            return validate_description([], [
                Rule("p", (), Arrow.DEFEASIBLE, x),
                Rule("r", (x, second), Arrow.DEFEASIBLE, d),
                Rule("q", (), Arrow.DEFEASIBLE, Neg(d)),
                *extra,
            ], max_atoms=max_atoms)

        def outcome(query, desc, alg, f):
            try:
                return query(desc, alg, f)
            except AtomLimitError:
                return "atom limit"

        failing = (Neg(a), [Rule("w", (), Arrow.DEFEASIBLE, wide)])
        answering = (Neg(wide), [])
        shared, fresh, high = (build(*failing), build(*failing),
                               build(*failing, max_atoms=DEFAULT_MAX_ATOMS))
        for alg in ALG_ORDER[1:]:
            assert outcome(prove, shared, alg, d) == "atom limit"
        assert shared._proofs  # the walks stored x's values before they failed
        for alg in ALG_ORDER:
            for f in formulas:
                got = outcome(prove, shared, alg, f)
                assert got == outcome(tree_value, fresh, alg, f), (alg, f)
                assert got in ("atom limit", prove(high, alg, f)), (alg, f)
        answered, fresh, high = (build(*answering), build(*answering),
                                 build(*answering, max_atoms=DEFAULT_MAX_ATOMS))
        for alg in ALG_ORDER:
            for f in formulas:
                assert (prove(answered, alg, f) == tree_value(fresh, alg, f)
                        == prove(high, alg, f)), (alg, f)

    def test_lottery_memo_stays_small(self):
        # the 6-ticket lottery: the value of ~s_i reads few history entries,
        # so the whole seven-algorithm profile of ~s1 keeps a few hundred
        # memo entries (314 when measured), not one per history
        tickets = [Atom(f"s{i}") for i in range(1, 7)]
        desc = validate_description(
            lottery_facts(6),
            [Rule(f"d{i}", (), Arrow.DEFEASIBLE, Neg(s)) for i, s in enumerate(tickets, 1)],
        )
        for alg in ALG_ORDER:
            want = TruthValue.UNDETERMINED if alg is Alg.PHI else TruthValue.TRUE
            assert truth_value(desc, alg, Neg(tickets[0])) is want
        assert sum(map(len, desc._proofs.values())) <= 400


class TestCanonicalWalks:
    """`prove` answers beta-p by beta's walk under the history with its tags
    swapped, and psi and psi-p by pi's and pi-p's walks when there are no
    priorities.  The tree walks every algorithm on its own: it is the
    oracle."""

    def test_redirected_queries_equal_the_tree_under_random_histories(self):
        # each probe is followed by its double and triple negations, which
        # the prover keys as the probe with its own polarity and the other:
        # the tree, which keeps every formula as written, is the oracle
        rng = random.Random(20261021)
        unranked = 0
        for i in range(240):
            seed = rng.random()
            make = make_ranked_theory if i % 2 else make_random_theory
            desc, fresh = make(random.Random(seed)), make(random.Random(seed))
            unranked += not desc.priority
            probes = [g for f in probe_formulas(desc) for g in (f, Neg(Neg(f)), Neg(Neg(Neg(f))))]
            for f in probes:
                history = random_history(rng, desc, Alg.BETA_P)
                mirrored = [(co_algorithm(tag), rid) for tag, rid in history]
                want = tree_value(desc, Alg.BETA_P, f, history)
                assert prove(desc, Alg.BETA_P, f, history) == want, (seed, history, f)
                assert prove(fresh, Alg.BETA, f, mirrored) == want, (seed, history, f)
                for alg in (Alg.PSI, Alg.PSI_P):
                    history = random_history(rng, desc, alg)
                    assert (prove(desc, alg, f, history)
                            == tree_value(desc, alg, f, history)), (seed, alg, history, f)
        assert unranked >= 40  # the psi redirect is taken on these

    def test_redirected_queries_add_no_memo_keys(self):
        # the memo's keys are (alg, formula without leading negations,
        # polarity), those of f and of ~f alike
        desc = desc_lottery4()
        for walked, redirected in ((Alg.PI, Alg.PSI), (Alg.BETA, Alg.BETA_P)):
            for f in probe_formulas(desc):
                truth_value(desc, walked, f)
                keys = set(desc._proofs)
                truth_value(desc, redirected, f)
                assert set(desc._proofs) == keys, (redirected, f)
        assert {negated for _, _, negated in keys} == {False, True}
        assert not any(type(g) is Neg for _, g, _ in keys)

    def test_psi_walks_on_its_own_under_priorities(self):
        doc = parse_kb((KB_DIR / "penguin.ppl").read_text(encoding="utf-8"))
        desc = validate_description(doc.facts, doc.rules, doc.priority)
        assert desc.priority
        probes = [Atom(name) for name in ("fly", "bird", "penguin")]
        for f in probes:
            truth_value(desc, Alg.PI, f)
        keys = set(desc._proofs)
        for f in probes:
            truth_value(desc, Alg.PSI, f)
        assert any(alg is Alg.PSI for alg, _, _ in set(desc._proofs) - keys)


class TestMemoHits:
    """A query whose value the memo holds under its history is answered by
    the lookup, without a walk; the lookup still honours D, and the history
    is still checked."""

    def test_known_values_start_no_walk(self, monkeypatch):
        desc = desc_lottery4()
        probes = probe_formulas(desc)
        profiles = {alg: [truth_value(desc, alg, f) for f in probes]
                    for alg in (Alg.PI, Alg.BETA)}
        walks = []
        run = engine._run
        monkeypatch.setattr(engine, "_run", lambda walk: walks.append(walk) or run(walk))
        # without priorities psi is answered by pi's walk, beta-p by beta's
        assert [truth_value(desc, Alg.PSI, f) for f in probes] == profiles[Alg.PI]
        assert [truth_value(desc, Alg.BETA_P, f) for f in probes] == profiles[Alg.BETA]
        assert [truth_value(desc, "beta", f) for f in probes] == profiles[Alg.BETA]
        assert walks == []
        truth_value(desc, Alg.PI_P, probes[0])
        assert walks  # the counter sees the walks that do start

    def test_a_second_pass_builds_no_negation_and_walks_nothing(self, monkeypatch):
        # f and ~f are asked by polarity, so once a pass has stored both, a
        # second pass is memo hits and ranks alone; ~~f shares f's entries
        built, walks = [], []
        init, run = Neg.__init__, engine._run
        monkeypatch.setattr(engine, "_run", lambda walk: walks.append(walk) or run(walk))
        for make in (desc_lottery4, TestHierarchyShortcut.penguin):
            desc = make()
            probes = probe_formulas(desc)
            first = [truth_value(desc, alg, f) for alg in ALG_ORDER for f in probes]
            assert walks  # the counter sees the walks that do start
            del walks[:]
            monkeypatch.setattr(Neg, "__init__",
                                lambda neg, inner: built.append(inner) or init(neg, inner))
            assert [truth_value(desc, alg, f) for alg in ALG_ORDER for f in probes] == first
            assert built == [] and walks == []
            monkeypatch.setattr(Neg, "__init__", init)
            desc = make()
            for alg in ALG_ORDER:
                for f in probes:
                    value = prove(desc, alg, f)
                    twice = Neg(Neg(f))
                    del walks[:]
                    assert prove(desc, alg, twice) == value and walks == [], (alg, f)

    def test_a_hit_honours_its_entries(self):
        doc = parse_kb((KB_DIR / "plausible_default.ppl").read_text(encoding="utf-8"))
        desc = validate_description(doc.facts, doc.rules, doc.priority)
        assert prove(desc, Alg.PI, A) == +1
        # the memo holds a's value under the empty history; a history with
        # the entry its proof read is another question
        assert prove(desc, Alg.PI, A, [("pi", "ra")]) == -1
        assert prove(desc, Alg.PSI, A, [("psi", "ra")]) == -1
        assert prove(desc, Alg.PSI, A) == +1

    def test_known_values_still_check_the_history(self):
        desc = desc_plausible_default()
        assert prove(desc, Alg.PI, A) == +1
        assert prove(desc, Alg.PI, A, [("pi", "ra")]) == -1
        memo = {key: list(entries) for key, entries in desc._proofs.items()}
        with pytest.raises(TypeError):
            prove(desc, Alg.PI, A, None)
        with pytest.raises(InvalidHistoryError, match="repeated entry"):
            prove(desc, Alg.PI, A, [("pi", "ra"), ("pi", "ra")])
        for alg, tag in ((Alg.PI, "beta"), (Alg.PSI, "pi"), (Alg.BETA_P, "pi")):
            with pytest.raises(InvalidHistoryError, match="does not belong"):
                prove(desc, alg, A, [(tag, "ra")])
        with pytest.raises(ValueError, match="unknown algorithm"):
            prove(desc, "PI", A)
        assert desc._proofs == memo


class TestHierarchyShortcut:
    """From the empty history, provability grows along `ALG_ORDER`: phi, pi,
    psi, beta = beta-p, psi-p, pi-p.  Each formula keeps the lowest rank of
    an algorithm that has stored a +1 for it at the empty history, in any
    walk or sub-walk, and a formula query at or above that rank is +1
    without a walk; it stores nothing in the proof memo.  A history with
    any entry is walked."""

    # every (weaker, stronger) pair of the hierarchy
    PAIRS = tuple(combinations(ALG_ORDER, 2))

    @staticmethod
    def walks(monkeypatch):
        started = []
        run = engine._run
        monkeypatch.setattr(engine, "_run", lambda walk: started.append(walk) or run(walk))
        return started

    @staticmethod
    def penguin():
        doc = parse_kb((KB_DIR / "penguin.ppl").read_text(encoding="utf-8"))
        return validate_description(doc.facts, doc.rules, doc.priority)

    @staticmethod
    def memo(desc):
        return {key: list(entries) for key, entries in desc._proofs.items()}

    def test_a_pi_proof_answers_every_stronger_algorithm_without_a_walk(self, monkeypatch):
        walks = self.walks(monkeypatch)
        # lottery3 without priorities, where psi-p runs pi-p's walk; penguin with them
        for desc, f in ((desc_lottery3(), Neg(S1)), (self.penguin(), Atom("bird"))):
            assert truth_value(desc, Alg.PI, f) is TruthValue.TRUE
            memo = self.memo(desc)
            del walks[:]
            for alg in ALG_ORDER[2:]:
                assert prove(desc, alg, f) == +1, (alg, f)
            assert walks == [] and desc._proofs == memo, f

    def test_each_walk_answers_every_stronger_algorithm(self, monkeypatch):
        walks = self.walks(monkeypatch)
        for make in (desc_lottery3, self.penguin):
            answered = dict.fromkeys(self.PAIRS, 0)
            for f in probe_formulas(make()):
                for weaker in ALG_ORDER:
                    desc = make()  # a fresh memo, so the weaker query walks
                    if prove(desc, weaker, f) == -1:
                        continue
                    memo = self.memo(desc)
                    del walks[:]
                    # the answers store nothing, so one memo serves them all
                    for stronger in ALG_ORDER[ALG_ORDER.index(weaker) + 1:]:
                        assert prove(desc, stronger, f) == +1, (weaker, stronger, f)
                        assert walks == [] and desc._proofs == memo, (weaker, stronger, f)
                        answered[weaker, stronger] += 1
            assert all(answered.values()), (make.__name__, answered)

    def test_a_sub_walk_ranks_the_links_below_the_top(self, monkeypatch):
        desc = desc_rule_chain(30)
        assert prove(desc, Alg.PI, Atom("a29")) == +1
        memo = self.memo(desc)
        walks = self.walks(monkeypatch)
        for k in (0, 14, 28):
            assert prove(desc, Alg.PI_P, Atom(f"a{k}")) == +1, k
        assert walks == [] and desc._proofs == memo

    def test_a_history_is_walked(self):
        doc = parse_kb((KB_DIR / "plausible_default.ppl").read_text(encoding="utf-8"))
        desc = validate_description(doc.facts, doc.rules, doc.priority)
        assert prove(desc, Alg.PI, A) == +1
        assert prove(desc, Alg.BETA, A) == +1  # by pi's rank, storing nothing
        assert not any(alg is Alg.BETA for alg, _, _ in desc._proofs)
        # beta may not use ra twice: the +1 holds at the empty history only
        assert prove(desc, Alg.BETA, A, [("beta", "ra")]) == -1
        assert prove(desc, Alg.BETA_P, A, [("beta-p", "ra")]) == -1
        assert prove(desc, Alg.PI_P, A, [("pi-p", "ra")]) == -1

    def test_a_proof_that_read_its_history_ranks_nothing(self):
        # pi proves x0 only while the co-algorithm may not use u2: that +1
        # read the history's entry, so it is no +1 at the empty history
        desc = make_medium_theory(random.Random(11))
        x0 = Atom("x0")
        assert prove(desc, Alg.PI, x0, [("pi-p", "u2")]) == +1
        assert prove(desc, Alg.PI, x0) == -1
        assert prove(desc, Alg.PSI, x0) == -1
        assert prove(desc, Alg.BETA, x0) == +1


class TestTruthValues:
    def test_lottery_values(self):
        desc = desc_lottery3()
        assert truth_value(desc, Alg.PI, Neg(S1)) is TruthValue.TRUE
        assert truth_value(desc, Alg.PI, S1) is TruthValue.FALSE
        assert truth_value(desc, Alg.PI, Disj([S1, S2])) is TruthValue.TRUE

    def test_empty_theory_is_undetermined(self):
        desc = desc_plausible_default()
        assert truth_value(desc, Alg.PI, B) is TruthValue.UNDETERMINED

    def test_four_ticket_profile(self):
        desc = desc_lottery4()
        S4 = Atom("s4")
        assert truth_value(desc, Alg.PI, Neg(S1)) is TruthValue.TRUE
        assert truth_value(desc, Alg.PI, S1) is TruthValue.FALSE
        assert truth_value(desc, Alg.PI, Disj([S1, S2])) is TruthValue.UNDETERMINED
        assert truth_value(desc, Alg.PI, Disj([S1, S2, S3])) is TruthValue.TRUE
        assert truth_value(desc, Alg.PI, Disj([S1, S2, S3, S4])) is TruthValue.TRUE


class TestEvaluationTrees:
    def test_empty_set_subject(self):
        root = evaluation_tree(desc_plausible_default(), Alg.PI, [])
        assert (root.op, root.value, root.children) == ("min", +1, ())

    def test_fact_leaf(self):
        desc = desc_retracted_default()
        root = evaluation_tree(desc, Alg.PHI, Neg(A))
        assert (root.op, root.value, root.children) == ("min", +1, ())

    def test_unsupported_formula_is_a_childless_max(self):
        root = evaluation_tree(desc_plausible_default(), Alg.PI, B)
        assert (root.op, root.value, root.children) == ("max", -1, ())

    def test_blocking_tree_root(self):
        root = evaluation_tree(desc_ambiguity(), Alg.BETA, B)
        assert root.value == +1

    def test_minus_nodes_have_one_child(self):
        root = evaluation_tree(desc_ambiguity(), Alg.BETA, B)
        stack = [root]
        while stack:
            node = stack.pop()
            if node.op == "minus":
                assert len(node.children) == 1
                assert node.value == -node.children[0].value
            stack.extend(node.children)

    def test_root_value_matches_prove_on_small_examples(self):
        for build in (desc_plausible_default, desc_retracted_default,
                      desc_ambiguity):
            desc = build()
            for alg in ALG_ORDER:
                for f in (A, Neg(A), B, Neg(B)):
                    assert (
                        evaluation_tree(desc, alg, f).value
                        == prove(desc, alg, f)
                    )

    def test_exhaustive_value_matches_prove_on_the_lottery(self):
        # the materialized lottery tree is astronomically large; the
        # order-insensitive evaluator covers it exhaustively instead
        desc = desc_lottery3()
        for alg in ALG_ORDER:
            for f in (S1, Neg(S1), Disj([S1, S2]), Conj([Neg(S1), Neg(S2)])):
                assert tree_value(desc, alg, f) == prove(desc, alg, f)

    def test_nodes_follow_the_construction_rules(self):
        # kb/penguin.ppl's priorities give its foes team defeaters
        doc = parse_kb((KB_DIR / "penguin.ppl").read_text(encoding="utf-8"))
        penguin = validate_description(doc.facts, doc.rules, doc.priority)
        fly = Atom("fly")
        for desc, f in ((desc_ambiguity(), B), (desc_retracted_default(), B),
                        (penguin, fly), (penguin, Neg(fly))):
            core = _TreeEvaluator(desc)
            for alg in (Alg.PI, Alg.BETA, Alg.PSI_P):
                # `expand` gives each child without its history, beside the
                # bits of that history, which extends its parent's
                root = evaluation_tree(desc, alg, f)
                stack = [(root, 0)]
                while stack:
                    node, h = stack.pop()
                    op, children = core.expand(node.subject, h)
                    assert node.op == op
                    assert tuple((c.subject._replace(history=None),
                                  engine._history_bits(desc, c.subject.history))
                                 for c in node.children) == children
                    history = node.subject.history
                    assert all(c.subject.history[:len(history)] == history
                               for c in node.children)
                    stack.extend((c, g) for c, (_, g) in zip(node.children, children))

    def test_json_shape(self):
        got = tree_json(evaluation_tree(desc_ambiguity(), Alg.BETA, B))
        assert set(got) == {"subject", "op", "value", "children"}
        assert got["value"] == 1
        assert got["subject"]["kind"] == "formula"
        text = json.dumps(got, sort_keys=True)
        assert json.dumps(tree_json(
            evaluation_tree(desc_ambiguity(), Alg.BETA, B)), sort_keys=True) == text

    def test_dot_output_is_stable(self):
        one = tree_dot(evaluation_tree(desc_lottery3(), Alg.PI, Neg(S1)))
        two = tree_dot(evaluation_tree(desc_lottery3(), Alg.PI, Neg(S1)))
        assert one == two
        assert one.startswith("digraph")
        assert "shape=diamond" in one  # minus nodes present and distinct


class TestStackSafety:
    """Deep proofs need memory, not Python frames: every walk runs on the
    explicit stack of one driver, so a chain much deeper than the remaining
    recursion headroom still gets its closed-form verdict."""

    N = 150

    @staticmethod
    def closed_form(alg):
        # (proof value of a_i, proof value of ~a_i): u under phi, t otherwise
        return (-1, -1) if alg is Alg.PHI else (+1, -1)

    def test_prove_and_tree_value_under_a_shallow_limit(self):
        desc = desc_rule_chain(self.N)
        top = Atom(f"a{self.N - 1}")
        with shallow_recursion_limit():
            for alg in ALG_ORDER:
                want = self.closed_form(alg)
                assert (prove(desc, alg, top), prove(desc, alg, Neg(top))) == want
                assert (tree_value(desc, alg, top),
                        tree_value(desc, alg, Neg(top))) == want

    def test_trees_and_exports_under_a_shallow_limit(self):
        desc = desc_rule_chain(self.N)
        top = Atom(f"a{self.N - 1}")
        with shallow_recursion_limit():
            for alg in (Alg.PHI, Alg.BETA, Alg.PI_P):
                want = self.closed_form(alg)[0]
                root = evaluation_tree(desc, alg, top)
                assert root.value == want
                assert tree_json(root)["value"] == want
                dot = tree_dot(root)
                assert f"= {want:+d}\"" in dot.splitlines()[1]
                if alg is Alg.BETA:  # formula, rule, antecedent set per link
                    assert dot.count("shape=") == 3 * self.N

    def test_deep_conjunction_under_a_shallow_limit(self):
        # a conjunction nested 3,000 deep, equivalent to s1: its supporters
        # flatten the members on a stack, not through nested calls
        plain = mixed = S1
        for i in range(3000):
            plain = Conj([plain])
            mixed = Conj([mixed, Neg(S2)]) if i % 2 else Conj([mixed])
        desc = desc_lottery3()
        with shallow_recursion_limit():
            for f in (plain, mixed):
                assert "".join(truth_value(desc, alg, f).value
                               for alg in ALG_ORDER) == "uffffff"

    def test_deep_mixed_polarity_under_a_shallow_limit(self):
        # ~or{a_i, ~and{b_i, …}} nested 10,000 deep around s1 is
        # conjunction-shaped at every level: its leaves ~a_i, b_i and s1
        # come off one explicit stack, for its facts and supporters and for
        # its negation's, whose scan accepts the supporters of ~s1 off the
        # same flattening.  No rule concludes an a_i or a b_i, so it has no
        # supporter, and its negation has those of ~s1
        f = S1
        for i in range(10000):
            f = Neg(Disj([Atom(f"a{i}"), Neg(Conj([Atom(f"b{i}"), f]))]))
        desc = desc_lottery3()
        with shallow_recursion_limit():
            assert not desc.is_fact(f) and not desc.is_fact(Neg(f))
            assert desc.supporters(f) == ()
            assert desc.supporters(Neg(f)) == desc.supporters(Neg(S1))
            assert "".join(truth_value(desc, alg, f).value
                           for alg in ALG_ORDER) == "uffffff"
            assert "".join(truth_value(desc, alg, Neg(f)).value
                           for alg in ALG_ORDER) == "utttttt"

    def test_long_chain_at_the_default_limit(self):
        # each link reads only its own consequent's supporters: linear work
        n = 5000
        desc = desc_rule_chain(n)
        assert truth_value(desc, Alg.BETA, Atom(f"a{n - 1}")) is TruthValue.TRUE


class TestOracleCost:
    def test_the_chain_oracle_reads_each_entry_once(self, monkeypatch):
        # the evaluator derives the root's history bits once and threads
        # them down: per link one read of the rule's entry and one bit for
        # the set node below it, so the cost is linear in the chain's depth
        n = 300
        desc = desc_rule_chain(n)
        calls = {"_bit": 0, "_history_bits": 0}

        def counted(name):
            inner = getattr(engine, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(engine, name, counted(name))
        for alg in (Alg.PI, Alg.BETA):
            calls.update(dict.fromkeys(calls, 0))
            assert tree_value(desc, alg, Atom(f"a{n - 1}")) == +1
            assert calls["_bit"] <= 2 * n + 10 and calls["_history_bits"] == 1, (alg, calls)

    def test_the_chain_oracle_holds_no_history_tuples(self, monkeypatch):
        # the walk reads histories only as the bits it threads down, so the
        # subjects it builds carry none: giving each its tuple history
        # would hold O(n²) entries on a walk down n rules
        n = 300
        desc = desc_rule_chain(n)
        held = {"subjects": 0, "entries": 0}
        real = engine.Subject

        def counted(*args):
            held["subjects"] += 1
            held["entries"] += len(args[2] or ())
            return real(*args)

        monkeypatch.setattr(engine, "Subject", counted)
        for alg in (Alg.PI, Alg.BETA):
            held.update(subjects=0, entries=0)
            assert tree_value(desc, alg, Atom(f"a{n - 1}")) == +1
            assert held["subjects"] >= 3 * n and held["entries"] == 0, (alg, held)


class TestFirstQuestionCost:
    """Every walk first asks of a formula whether it is a fact, who supports
    it and who opposes it; a literal's first answers are read off the unit
    axioms and the literal index as plain tuples."""

    def test_the_chain_top_builds_no_literal(self, monkeypatch):
        # one fact check and one consistency test a link built a Lit each,
        # at least n of them under the seven algorithms
        n = 200
        desc = desc_rule_chain(n)
        built = []
        real = kb.Lit

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(kb, "Lit", counted)
        for alg in ALG_ORDER:
            expected = TruthValue.UNDETERMINED if alg is Alg.PHI else TruthValue.TRUE
            assert truth_value(desc, alg, Atom(f"a{n - 1}")) is expected, alg
        assert built == []

    def test_no_opposers_no_foes(self):
        desc = desc_rule_chain(20)
        for i in range(20):
            f = Atom(f"a{i}")
            assert desc.supporters(Neg(f)) == ()
            for r in desc.supporters(f):
                for alg in ALG_ORDER:
                    assert foes(desc, alg, f, r) == (), (alg, f, r)

    def test_foes_match_the_definition(self):
        # kb/penguin.ppl: phi and pi-p regard no foes and the axiom rule
        # has none; psi-p keeps only the opposers strictly superior to r,
        # the others every opposer that r is not superior to
        doc = parse_kb((KB_DIR / "penguin.ppl").read_text(encoding="utf-8"))
        desc = validate_description(doc.facts, doc.rules, doc.priority)
        for f in [l for a in ("fly", "bird", "penguin") for l in (Atom(a), Neg(Atom(a)))]:
            against = desc.supporters(Neg(f))
            for r in desc.rules:
                for alg in ALG_ORDER:
                    if alg in (Alg.PHI, Alg.PI_P) or r.rid == desc.rse_id:
                        expected = ()
                    elif alg is Alg.PSI_P:
                        expected = tuple(s for s in against if desc.superior(s, r))
                    else:
                        expected = tuple(s for s in against if not desc.superior(r, s))
                    assert foes(desc, alg, f, r) == expected, (alg, f, r)
        fly = Atom("fly")
        assert [s.rid for s in foes(desc, Alg.PSI_P, fly, desc.rule("rb"))] == ["rn"]
        assert foes(desc, Alg.PSI_P, fly, desc.rule("rw")) == ()
        assert [s.rid for s in foes(desc, Alg.BETA, fly, desc.rule("rw"))] == ["rs", "rn"]


class TestConcurrentReads:
    def test_threads_sharing_a_description_agree_with_a_sequential_run(self):
        # the threads run the same queries in the same order, so they race
        # on the same memo lists, under histories and on formula sets too
        probes = [Atom("a"), Atom("b"), S1, Neg(S1), Disj([S1, S2]),
                  Conj([Neg(S1), Neg(S2)])]
        sets = [[], probes[:2], [S1, Neg(S2)], [Neg(S1), Neg(S2), Disj([S1, S3])]]

        def profile(desc):
            out = [truth_value(desc, alg, f) for f in probes for alg in ALG_ORDER]
            rids = [r.rid for r in desc.rules if r.arrow is not Arrow.STRICT]
            for alg in ALG_ORDER:
                out += [prove(desc, alg, x) for x in sets]
                for tag in dict.fromkeys((alg, co_algorithm(alg))):
                    for rid in rids:
                        out += [prove(desc, alg, x, [(tag, rid)]) for x in probes + sets]
            return out

        # the lotteries' scans share countermodel pools; lottery4's pool
        # more models over more candidates, for the threads to race on
        for build in (desc_ambiguity, desc_lottery3, desc_lottery4):
            want = profile(build())
            shared = build()
            start = threading.Barrier(4)
            got = [None] * 4

            def worker(i):
                start.wait()
                got[i] = profile(shared)

            saved = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the threads finely
            try:
                threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(saved)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 4
            assert profile(shared) == want  # what the race stored is exact
