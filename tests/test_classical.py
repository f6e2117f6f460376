"""Valuations, clause conversion, resolution, the error filter, and the
three proof relations, cross-checked against exhaustive-valuation oracles."""

import random
from itertools import product

import pytest

from ppl import (
    Atom,
    AtomLimitError,
    Conj,
    Disj,
    Lit,
    Neg,
    clauses_of,
    entails,
    err,
    in_from,
    judiciously_proves,
    proves,
    resolution_closure,
    sat_filter,
    satisfiable,
    val_space,
)
from ppl.classical import EMPTY_CLAUSE, clauses_satisfiable, core_clauses
from ppl.formulas import atoms, evaluate

A, B, C = Atom("a"), Atom("b"), Atom("c")


def clause(*parts: str) -> frozenset[Lit]:
    """Shorthand: clause("a", "~b") is the clause {a, ~b}."""
    return frozenset(
        Lit(s.lstrip("~"), s.startswith("~")) for s in parts
    )


def random_clause_set(rng, n_atoms=4, max_clauses=6, max_width=3):
    names = "abcd"[:n_atoms]
    return frozenset(
        frozenset(
            Lit(rng.choice(names), rng.random() < 0.5)
            for _ in range(rng.randint(0, max_width))
        )
        for _ in range(rng.randint(0, max_clauses))
    )


class TestValSpace:
    def test_sizes(self):
        assert len(val_space([])) == 1
        assert len(val_space(["a"])) == 2
        assert len(val_space(["a", "b"])) == 4

    def test_all_distinct(self):
        vs = val_space(["a", "b", "c"])
        assert len(set(vs)) == 8

    def test_one_lazy_enumerator_in_canonical_order(self):
        from ppl.formulas import valuations

        assert val_space(["b", "a", "b"]) == [
            frozenset(), {"a"}, {"b"}, {"a", "b"}]
        assert list(valuations("ba")) == val_space("ab")
        # the limit is checked when the enumerator is made, before any valuation
        with pytest.raises(AtomLimitError):
            valuations([f"x{i}" for i in range(64)], 20)


class TestClausesOf:
    def test_joint_clause_form(self):
        got = clauses_of([A, Neg(A), Disj([A, B])])
        assert got == {clause("a"), clause("~a"), clause("a", "b")}

    def test_tautology_has_no_clauses(self):
        assert clauses_of(Disj([A, Neg(A)])) == frozenset()

    def test_single_atom(self):
        assert clauses_of(A) == {clause("a")}

    def test_falsum(self):
        assert clauses_of(Disj([])) == {EMPTY_CLAUSE}

    def test_conjunction_of_clauses_equivalent_to_formula(self):
        rng = random.Random(3)
        for _ in range(150):
            f = _random_formula(rng, 2)
            cs = clauses_of(f)
            for v in val_space(atoms(f)):
                clause_truth = all(
                    any((l.atom in v) != l.neg for l in c) for c in cs
                )
                assert clause_truth == evaluate(f, v)

    def test_atom_limit(self):
        wide = Disj([Atom(f"x{i}") for i in range(5)])
        with pytest.raises(AtomLimitError):
            clauses_of(wide, max_atoms=4)


def _random_formula(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        a = Atom(rng.choice("abc"))
        return Neg(a) if rng.random() < 0.5 else a
    if roll < 0.6:
        return Neg(_random_formula(rng, depth - 1))
    members = [_random_formula(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return Conj(members) if rng.random() < 0.5 else Disj(members)


class TestResolution:
    def test_complementary_units_resolve_to_falsum(self):
        assert EMPTY_CLAUSE in resolution_closure({clause("a"), clause("~a")})

    def test_empty_input(self):
        assert resolution_closure(frozenset()) == frozenset()

    def test_single_step(self):
        got = resolution_closure({clause("a", "b"), clause("~a", "b")})
        assert clause("b") in got

    def test_closure_contains_input(self):
        cs = {clause("a", "b"), clause("c")}
        assert resolution_closure(cs) >= cs


class TestErrSat:
    def test_contaminated_set_is_fully_dropped(self):
        cs = clauses_of([A, Neg(A), Disj([A, B])])
        assert err(cs) == {Lit("a", False), Lit("a", True)}
        assert sat_filter(cs) == frozenset()

    def test_satisfiable_set_untouched(self):
        cs = {clause("a", "b"), clause("~b", "c")}
        assert err(cs) == frozenset()
        assert sat_filter(cs) == cs

    def test_unrelated_clause_survives(self):
        cs = {clause("a"), clause("~a"), clause("b")}
        assert err(cs) == {Lit("a", False), Lit("a", True)}
        assert sat_filter(cs) == {clause("b")}

    def test_err_closed_under_complement(self):
        rng = random.Random(5)
        for _ in range(120):
            cs = random_clause_set(rng)
            e = err(cs)
            assert {l.complement() for l in e} == e

    def test_sat_invariants(self):
        rng = random.Random(9)
        for _ in range(120):
            cs = random_clause_set(rng)
            filtered = sat_filter(cs)
            assert filtered <= cs
            assert EMPTY_CLAUSE not in filtered
            assert EMPTY_CLAUSE not in resolution_closure(filtered)
            assert sat_filter(filtered) == filtered

    def test_resolution_refutation_agrees_with_valuations(self):
        rng = random.Random(13)
        for _ in range(120):
            cs = random_clause_set(rng)
            by_resolution = EMPTY_CLAUSE not in resolution_closure(cs)
            assert by_resolution == clauses_satisfiable(cs)


class TestProofRelations:
    def test_membership_proves(self):
        assert proves([A], A)

    def test_classical_proof_is_explosive(self):
        assert proves([A, Neg(A)], B)

    def test_tautology_from_nothing(self):
        assert proves([], Disj([A, Neg(A)]))

    def test_judicious_keeps_the_uncontaminated_part(self):
        F = [A, Neg(A), B]
        assert judiciously_proves(F, B)
        assert not judiciously_proves(F, Neg(B))
        assert not judiciously_proves(F, A)

    def test_follows_from_excludes_tautologies(self):
        assert not in_from([B], Disj([A, Neg(A)]))
        assert in_from([B], B)
        assert in_from([A, Neg(A), B], Disj([B, C]))

    def test_judicious_implies_classical(self):
        rng = random.Random(17)
        for _ in range(80):
            F = [_random_formula(rng, 2) for _ in range(rng.randint(0, 3))]
            f = _random_formula(rng, 2)
            if judiciously_proves(F, f):
                assert proves(F, f)


class TestSemanticOracle:
    def test_entails_examples(self):
        assert entails([A], Disj([A, B]))
        assert entails([], Disj([A, Neg(A)]))
        assert not entails([Disj([Atom("s1"), Atom("s2")])], Atom("s1"))

    def test_satisfiable_examples(self):
        assert satisfiable([A, Disj([Neg(A), B])])
        assert not satisfiable([A, Neg(A)])
        assert satisfiable([])

    def test_entails_agrees_with_resolution_for_satisfiable_premises(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(200):
            F = [_random_formula(rng, 2) for _ in range(rng.randint(0, 3))]
            f = _random_formula(rng, 2)
            if not satisfiable(F):
                continue
            checked += 1
            assert entails(F, f) == proves(F, f)
        assert checked > 100


class TestClauseImplication:
    """Truth-table entailment between clauses matches the subset test."""

    def _tt_entails(self, f, g):
        avars = sorted(atoms(f) | atoms(g))
        for bits in product((False, True), repeat=len(avars)):
            v = {a for a, bit in zip(avars, bits) if bit}
            if evaluate(f, v) and not evaluate(g, v):
                return False
        return True

    def test_clauses(self):
        rng = random.Random(29)
        for _ in range(200):
            L = {Lit(rng.choice("abc"), rng.random() < 0.5)
                 for _ in range(rng.randint(0, 3))}
            M = {Lit(rng.choice("abc"), rng.random() < 0.5)
                 for _ in range(rng.randint(0, 3))}
            lhs = self._tt_entails(Disj([l.formula() for l in L]),
                                   Disj([l.formula() for l in M]))
            m_taut = any(l.complement() in M for l in M)
            assert lhs == (L <= M or m_taut)

    def test_dual_clauses(self):
        rng = random.Random(31)
        for _ in range(200):
            L = {Lit(rng.choice("abc"), rng.random() < 0.5)
                 for _ in range(rng.randint(0, 3))}
            M = {Lit(rng.choice("abc"), rng.random() < 0.5)
                 for _ in range(rng.randint(0, 3))}
            lhs = self._tt_entails(Conj([l.formula() for l in M]),
                                   Conj([l.formula() for l in L]))
            m_contra = any(l.complement() in M for l in M)
            assert lhs == (L <= M or m_contra)


class TestCoreOnClauseSets:
    def test_conjunctive_reading_preserved(self):
        rng = random.Random(37)
        for _ in range(150):
            cs = random_clause_set(rng)
            if not clauses_satisfiable(cs):
                continue
            reduced = core_clauses(cs)
            avars = sorted({l.atom for c in cs for l in c})
            for v in val_space(avars):
                before = all(any((l.atom in v) != l.neg for l in c) for c in cs)
                after = all(any((l.atom in v) != l.neg for l in c) for c in reduced)
                assert before == after
