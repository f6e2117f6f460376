"""Golden reasoning examples, histories, evaluation trees, truth values."""

import json
import random
import sys
import threading

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
    make_random_theory,
    make_wide_theory,
    probe_formulas,
    shallow_recursion_limit,
)
from ppl import (
    ALG_ORDER,
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
from ppl.engine import _root_subject, _TreeEvaluator, check_history

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
        # d's supporter r needs x (stored first) and then a 3-atom formula
        # whose negation's clause form must be enumerated: over max_atoms=2
        a, b, c, d, x = (Atom(n) for n in "abcdx")
        wide = Neg(Disj([a, Conj([b, c])]))

        def build():
            return validate_description([], [
                Rule("p", (), Arrow.DEFEASIBLE, x),
                Rule("r", (x, wide), Arrow.DEFEASIBLE, d),
                Rule("q", (), Arrow.DEFEASIBLE, Neg(d)),
            ], max_atoms=2)

        def outcome(query, desc, alg, f):
            try:
                return query(desc, alg, f)
            except AtomLimitError:
                return "atom limit"

        shared, fresh = build(), build()
        for alg in ALG_ORDER[1:]:
            assert outcome(prove, shared, alg, d) == "atom limit"
        assert shared._proofs  # the walks stored x's values before they failed
        for alg in ALG_ORDER:
            for f in (d, Neg(d), x, Neg(x), [x, Neg(d)], a, Neg(a), wide):
                assert (outcome(prove, shared, alg, f)
                        == outcome(tree_value, fresh, alg, f)), (alg, f)

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
        from ppl.engine import _TreeCore

        for build in (desc_ambiguity, desc_retracted_default):
            desc = build()
            core = _TreeCore(desc)
            for alg in (Alg.PI, Alg.BETA, Alg.PSI_P):
                root = evaluation_tree(desc, alg, B)
                stack = [root]
                while stack:
                    node = stack.pop()
                    op, subjects = core.expand(node.subject)
                    assert node.op == op
                    assert tuple(c.subject for c in node.children) == subjects
                    stack.extend(node.children)

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

    def test_long_chain_at_the_default_limit(self):
        # each link reads only its own consequent's supporters: linear work
        n = 5000
        desc = desc_rule_chain(n)
        assert truth_value(desc, Alg.BETA, Atom(f"a{n - 1}")) is TruthValue.TRUE


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

        for build in (desc_ambiguity, desc_lottery3):
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
