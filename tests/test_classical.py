"""Valuations, clause conversion, resolution, the error filter, and the
three proof relations, cross-checked against exhaustive-valuation oracles."""

import random
import sys
from itertools import combinations, product

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
from ppl import classical
from ppl.classical import (
    EMPTY_CLAUSE,
    NO_INDEX,
    assume,
    clause_form,
    clause_index,
    core_clauses,
    extend,
    find_model,
    is_tautology,
    saturate,
)
from ppl.formulas import (FALSUM, VERUM, atoms, complement, evaluate, parse_formula,
                          valuations)

A, B, C = Atom("a"), Atom("b"), Atom("c")


def clauses_satisfiable(clauses) -> bool:
    """Valuation-based satisfiability of a clause set: the oracle."""
    clauses = list(clauses)
    for v in valuations(l.atom for c in clauses for l in c):
        if all(any((l.atom in v) != l.neg for l in c) for c in clauses):
            return True
    return False


def clause(*parts: str) -> frozenset[Lit]:
    """Shorthand: clause("a", "~b") is the clause {a, ~b}."""
    return frozenset(
        Lit(s.lstrip("~"), s.startswith("~")) for s in parts
    )


def random_clause_set(rng, n_atoms=4, max_clauses=6, max_width=3):
    names = "abcde"[:n_atoms]
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


def enumerated_clauses(f):
    """One clause per falsifying valuation of f's atoms: the clause form
    that `clauses_of` defines, computed here with no shortcut."""
    avars = atoms(f)
    return {frozenset(Lit(a, a in v) for a in avars)
            for v in val_space(avars) if not evaluate(f, v)}


class TestClauseShortcut:
    """A fact that is one clause gives its literal set, with no enumeration."""

    CLAUSES = {
        "a": [clause("a")],
        "~~a": [clause("a")],
        "~~~a": [clause("~a")],
        "or{a,a}": [clause("a")],
        "or{a,~b,or{~b,a}}": [clause("a", "~b")],
        "or{a,~and{b,c}}": [clause("a", "~b", "~c")],
        "~and{a,~or{b,~~c},~~a}": [clause("~a", "b", "c")],
        "or{a,~and{b,~a}}": [clause("a", "~b")],
        "or{a,~and{b,a}}": [],
        "or{a,~a}": [],
        "~and{a,~a}": [],
        "or{}": [EMPTY_CLAUSE],
        "~and{}": [EMPTY_CLAUSE],
    }

    @pytest.mark.parametrize("text", sorted(CLAUSES))
    def test_clause_facts_skip_the_enumeration(self, monkeypatch, text):
        f = parse_formula(text)
        reference = enumerated_clauses(f)
        assert reference == set(self.CLAUSES[text])

        def refused(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(classical, "valuations", refused)
        assert classical._clause(f) is not None
        assert clauses_of(f) == reference
        assert clauses_of([f, f, A]) == reference | {clause("a")}

    @pytest.mark.parametrize("text", ["and{a,b}", "~or{a,b}", "or{a,and{b,c}}",
                                      "~and{a,or{b,c}}", "~and{a,~and{a,d}}", "and{}",
                                      "~or{}"])
    def test_other_shapes_are_enumerated(self, text):
        f = parse_formula(text)
        assert classical._clause(f) is None
        assert clauses_of(f) == enumerated_clauses(f)

    def test_equals_the_enumerated_clause_form(self):
        rng = random.Random(83)
        shortcuts = 0
        for _ in range(2000):
            f = _random_formula(rng, 3)
            for g in (f, Neg(f)):
                assert clauses_of(g) == enumerated_clauses(g), g
                shortcuts += classical._clause(g) is not None
        assert shortcuts > 500

    def test_atom_limit_still_applies(self):
        # a 21-atom clause, its dual form and a 21-atom tautology; a higher
        # limit reads each off its shape
        wide = [Atom(f"x{i}") for i in range(21)]
        positive = frozenset(Lit(a.name, False) for a in wide)
        for f, form in ((Disj(wide), {positive}),
                        (Neg(Conj(wide)), {complement(positive)}),
                        (Disj(wide + [Neg(wide[0])]), set())):
            with pytest.raises(AtomLimitError) as caught:
                clauses_of(f)
            assert (caught.value.n_atoms, caught.value.limit) == (21, 20)
            assert clauses_of(f, max_atoms=21) == form
        assert clauses_of(Disj(wide[:20])) == {positive - {Lit("x20", False)}}


def holds(clauses, true_atoms) -> bool:
    """Whether the valuation making exactly `true_atoms` true satisfies every clause."""
    return all(any((l.atom in true_atoms) != l.neg for l in c) for c in clauses)


class TestClauseForm:
    """The structural clause form of the entailment kernel, against valuations."""

    def test_equivalent_to_clauses_of(self):
        rng = random.Random(79)
        for _ in range(600):
            f = _random_formula(rng, 3)
            for g in (f, Neg(f)):
                got, ref = clause_form(g), clauses_of(g)
                for v in val_space(atoms(f)):
                    assert holds(got, v) == holds(ref, v) == evaluate(g, v), (g, got)

    def test_clause_shapes_are_read_off_without_enumerating(self, monkeypatch):
        def refused(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(classical, "clauses_of", refused)
        wide = [Atom(f"x{i}") for i in range(30)]
        cases = [
            (A, False, [clause("a")]),
            (A, True, [clause("~a")]),
            (Neg(A), True, [clause("a")]),
            (Disj([A, Neg(B)]), False, [clause("a", "~b")]),
            (Disj([A, Neg(B)]), True, [clause("~a"), clause("b")]),
            (Conj([A, Disj([B, C])]), False, [clause("a"), clause("b", "c")]),
            (Conj([A, Neg(B)]), True, [clause("~a", "b")]),
            (Neg(Neg(Disj([A, B]))), False, [clause("a", "b")]),
            (Neg(Conj([A, B])), False, [clause("~a", "~b")]),
            (Neg(Disj([A, B])), True, [clause("a", "b")]),
            (VERUM, False, []),
            (VERUM, True, [EMPTY_CLAUSE]),
            (FALSUM, False, [EMPTY_CLAUSE]),
            (FALSUM, True, []),
            (Conj(wide), False, [frozenset([Lit(x.name, False)]) for x in wide]),
            (Disj(wide), False, [frozenset(Lit(x.name, False) for x in wide)]),
            # nested clause shapes, read off through their leaves
            (parse_formula("or{a,or{b,~~c}}"), False, [clause("a", "b", "c")]),
            (parse_formula("~and{a,~or{b,c}}"), False, [clause("~a", "b", "c")]),
            (parse_formula("and{or{a,or{b,c}},d}"), False, [clause("a", "b", "c"),
                                                          clause("d")]),
            (Disj([wide[0], Disj([Neg(wide[1]), Disj(wide[2:25])])]), False,
             [frozenset([Lit("x0", False), Lit("x1", True)]
                        + [Lit(x.name, False) for x in wide[2:25]])]),
        ]
        for f, negated, expected in cases:
            g = Neg(f) if negated else f
            assert clause_form(g, max_atoms=2) == frozenset(expected), g

    def test_atom_limit_bounds_only_the_enumerated_part(self):
        f = parse_formula("or{a,and{b,c}}")  # its negation is a conjunction of clauses
        assert clause_form(Neg(f), max_atoms=2) == {clause("~a"), clause("~b", "~c")}
        with pytest.raises(AtomLimitError):
            clause_form(f, max_atoms=2)
        g = Conj([Disj([Atom(f"x{i}"), Conj([Atom(f"y{i}"), Atom(f"z{i}")])])
                  for i in range(10)])  # 30 atoms, 3 per member
        assert len(clause_form(g, max_atoms=3)) == 30  # three full-width clauses each

    def test_deep_nesting_needs_no_recursion(self):
        depth = 20000
        f = parse_formula("and{" * depth + "~~a" + "}" * depth)
        assert clause_form(f) == {clause("a")}
        assert clause_form(Neg(f)) == {clause("~a")}


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


def units(clauses):
    return {next(iter(c)) for c in clauses if len(c) == 1}


def conflicts(closed):
    u = units(closed)
    return frozenset(l for l in u if l.complement() in u)


def without(cs, bad):
    return frozenset(c for c in cs if c and not (c & bad))


class TestSaturation:
    """`saturate` against the exhaustive `resolution_closure` oracle."""

    def test_agrees_with_the_closure_on_random_clause_sets(self):
        rng = random.Random(43)
        seen = {"unsat": 0, "empty": 0, "tautology": 0, "unsat without tautology": 0}
        for n_atoms, count in ((4, 500), (5, 250)):
            for _ in range(count):
                cs = random_clause_set(rng, n_atoms, max_clauses=8)
                full, sat = resolution_closure(cs), saturate(cs)
                tautological = any(map(is_tautology, cs))
                seen["unsat"] += EMPTY_CLAUSE in full
                seen["empty"] += EMPTY_CLAUSE in cs
                seen["tautology"] += tautological
                seen["unsat without tautology"] += (EMPTY_CLAUSE in full
                                                    and not tautological)
                if tautological:
                    assert sat == full
                else:
                    assert sat <= full
                    assert not any(map(is_tautology, sat))
                assert units(sat) == units(full), cs
                assert (EMPTY_CLAUSE in sat) == (EMPTY_CLAUSE in full)
                assert core_clauses(sat) == core_clauses(full)
                assert err(cs) == conflicts(full)
                assert sat_filter(cs) == without(cs, conflicts(full))
        assert min(seen.values()) > 50, seen

    def test_units_agree_on_every_small_clause_set(self):
        # every set of up to three tautology-free clauses over three atoms
        pool = [frozenset(Lit(a, s == 2) for a, s in zip("abc", signs) if s)
                for signs in product(range(3), repeat=3)]
        unsat = 0
        for k in (1, 2, 3):
            for cs in combinations(pool, k):
                full, sat = resolution_closure(cs), saturate(cs)
                unsat += EMPTY_CLAUSE in full
                assert units(sat) == units(full), cs
        assert unsat > 400

    def test_a_tautological_input_is_closed_exhaustively(self):
        # {a} follows only through tautological resolvents of the input
        # tautology, so dropping them would change err
        cs = {clause("b"), clause("c"), clause("~b", "~c"),
              clause("a", "b", "~b", "c", "~c"), clause("~a")}
        assert saturate(cs) == resolution_closure(cs)
        assert err(cs) == conflicts(resolution_closure(cs)) == {
            Lit(x, neg) for x in "abc" for neg in (False, True)}
        assert sat_filter(cs) == frozenset()

    def test_tautological_inputs_are_kept(self):
        # the closure derives {l} only through the input tautology
        cs = {clause("x"), clause("~x"), clause("x", "~x", "l"),
              clause("x", "~x", "~l"), clause("l", "z")}
        assert err(cs) == conflicts(resolution_closure(cs)) == {
            Lit("x", False), Lit("x", True), Lit("l", False), Lit("l", True)}
        assert sat_filter(cs) == frozenset()

    def test_drops_tautological_resolvents(self):
        # the lottery: every resolvent of the input is a tautology
        cs = {clause("a", "b", "c"), clause("~a", "~b"), clause("~a", "~c"),
              clause("~b", "~c")}
        assert saturate(cs) == cs
        assert len(resolution_closure(cs)) > len(cs)

    def test_proof_relations_agree_with_the_closure(self):
        rng = random.Random(47)
        proved = 0
        for _ in range(150):
            F = [_random_formula(rng, 2) for _ in range(rng.randint(0, 3))]
            f = _random_formula(rng, 2)
            classical = EMPTY_CLAUSE in resolution_closure(clauses_of(F + [Neg(f)]))
            premises = clauses_of(F)
            filtered = without(premises, conflicts(resolution_closure(premises)))
            judicious = EMPTY_CLAUSE in resolution_closure(clauses_of(Neg(f)) | filtered)
            assert proves(F, f) == classical
            assert judiciously_proves(F, f) == judicious
            proved += judicious
        assert 20 < proved < 130


def prime_implicates(cs):
    """Subset-minimal non-tautological clauses over the atoms of `cs` that
    every model satisfies, found by valuations: {∅} when `cs` has none."""
    names = sorted({l.atom for c in cs for l in c})
    literals = [(None, Lit(a, False), Lit(a, True)) for a in names]
    candidates = [frozenset(l for l in ls if l is not None) for ls in product(*literals)]
    # a model falsifies exactly the clauses inside its own false literals
    falsified = [frozenset(Lit(a, a in v) for a in names) for v in val_space(names)
                 if all(any((l.atom in v) != l.neg for l in c) for c in cs)]
    implicates = {c for c in candidates if not any(c <= f for f in falsified)}
    return {c for c in implicates if not any(c - {l} in implicates for l in c)}


class TestClosureAgainstValuations:
    """Both closures against oracles that do not share their loop."""

    def test_cores_are_the_prime_implicates(self):
        rng = random.Random(61)
        seen = {"satisfiable": 0, "unsatisfiable": 0}
        for n_atoms, count in ((3, 300), (4, 400), (5, 250)):
            for _ in range(count):
                cs = random_clause_set(rng, n_atoms, max_clauses=7)
                primes = prime_implicates(cs)
                seen["unsatisfiable" if EMPTY_CLAUSE in primes else "satisfiable"] += 1
                assert core_clauses(resolution_closure(cs)) == primes, cs
                assert core_clauses(saturate(cs)) == primes, cs
        assert min(seen.values()) > 100, seen

    def test_the_closure_holds_every_resolvent_of_its_members(self):
        rng = random.Random(67)
        for n_atoms, count in ((3, 300), (4, 400), (5, 250)):
            for _ in range(count):
                closed = resolution_closure(random_clause_set(rng, n_atoms, max_clauses=7))
                for c, d in product(closed, repeat=2):
                    for l in c:
                        if l.complement() in d:
                            assert (c - {l}) | (d - {l.complement()}) in closed


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


def _random_clause_lists():
    """3,000 random clause lists over 3 to 5 atoms, some with the empty
    clause, tautologies or repeated clauses."""
    rng = random.Random(71)
    for n_atoms in (3, 4, 5):
        names = "abcde"[:n_atoms]
        for _ in range(1000):
            cs = [frozenset(Lit(rng.choice(names), rng.random() < 0.5)
                            for _ in range(rng.randint(1, 3)))
                  for _ in range(rng.randint(0, 3 * n_atoms))]
            roll = rng.random()
            if roll < 0.05:
                cs.insert(rng.randint(0, len(cs)), EMPTY_CLAUSE)
            elif roll < 0.3 and cs:
                cs += rng.choices(cs, k=rng.randint(1, 3))
            yield cs


def _part(clauses):
    """A kernel part: the clauses, and the index of those not units."""
    clauses = list(clauses)
    return clauses, clause_index(c for c in clauses if len(c) > 1)


def refutes(clauses, implicates=NO_INDEX) -> bool:
    """Whether a clause set is unsatisfiable: `find_model` finds no model."""
    return find_model([_part(clauses)], implicates) is None


class TestRefutation:
    """`refutes`, DPLL with unit propagation, against valuations."""

    def test_edge_cases(self):
        assert not refutes([])
        assert refutes([EMPTY_CLAUSE])
        assert refutes([clause("a"), EMPTY_CLAUSE, clause("b")])
        assert not refutes([clause("a", "~a")])
        assert refutes([clause("a", "~a"), clause("a"), clause("~a")])
        assert refutes([clause("a"), clause("a"), clause("~a", "b"), clause("~b")])
        assert not refutes([clause("a", "b")] * 3)

    def test_agrees_with_valuations_on_random_clause_sets(self):
        seen = dict.fromkeys(["unsat", "empty set", "empty clause", "tautology",
                              "repeated"], 0)
        for cs in _random_clause_lists():
            unsat = not clauses_satisfiable(cs)
            assert refutes(cs) == unsat, cs
            seen["unsat"] += unsat
            seen["empty set"] += not cs
            seen["empty clause"] += EMPTY_CLAUSE in cs
            seen["tautology"] += any(map(is_tautology, cs))
            seen["repeated"] += len(set(cs)) < len(cs)
        assert all(n > 40 for n in seen.values()), seen
        assert 600 < seen["unsat"] - seen["empty clause"] < 2000, seen

    def test_prime_implicates_join_by_propagation(self):
        # refutes(S, index of the prime implicates of T) says whether S ∪ T
        # is unsatisfiable, for a satisfiable T
        rng = random.Random(73)
        checked = unsat = 0
        for _ in range(2000):
            t = [c for c in random_clause_set(rng, 5, max_clauses=7) if c]
            if not clauses_satisfiable(t):
                continue
            implicates = core_clauses(saturate(c for c in t if not is_tautology(c)))
            s = list(random_clause_set(rng, 5, max_clauses=4))
            expected = not clauses_satisfiable(s + t)
            assert refutes(s, clause_index(implicates)) == expected, (s, t)
            assert refutes(s + list(implicates)) == expected, (s, t)
            checked += 1
            unsat += expected
        assert checked > 1000 and 200 < unsat < checked - 200, (checked, unsat)

    def test_models_satisfy_their_clauses(self):
        found = 0
        for cs in _random_clause_lists():
            model = find_model([_part(cs)])
            assert (model is None) == (not clauses_satisfiable(cs)), cs
            if model is not None:
                assert not any(l.complement() in model for l in model), (cs, model)
                assert all(model & c for c in cs), (cs, model)
                found += 1
        assert 1000 < found < 2500, found

    def test_shared_starts_and_extended_models(self):
        # for a satisfiable T with prime implicates P: a search started where
        # `assume` left one part agrees with valuations, and `extend` keeps a
        # model consistent with every implicate whose atoms it decides
        rng = random.Random(79)
        checked = extended = 0
        for _ in range(2000):
            t = [c for c in random_clause_set(rng, 5, max_clauses=7) if c]
            if not clauses_satisfiable(t):
                continue
            implicates = core_clauses(saturate(c for c in t if not is_tautology(c)))
            index = clause_index(implicates)
            units = {l for c in implicates if len(c) == 1 for l in c}
            s1, s2 = (list(random_clause_set(rng, 5, max_clauses=3)) for _ in "12")
            expected = not clauses_satisfiable(s1 + s2 + t)
            start = assume([_part(s1)], index)
            if start is None:
                assert expected, (s1, t)
                continue
            model = find_model([_part(s1), _part(s2)], index, start)
            assert (model is None) == expected, (s1, s2, t)
            checked += 1
            if model is None:
                continue
            decided = set(rng.sample("abcde", rng.randint(0, 5)))
            extend(model, decided, index, units)
            decided |= {l.atom for l in model}
            assert not any(l.complement() in model for l in model)
            assert all(model & c for c in s1 + s2), (s1, s2, model)
            for c in implicates:
                if {l.atom for l in c} <= decided:
                    assert model & c, (t, model, c)
            # the literals decided so far extend to a model of all of T
            assert clauses_satisfiable(t + [frozenset((l,)) for l in model])
            extended += len(decided) == 5
        assert checked > 1000 and extended > 150, (checked, extended)

    def test_long_implication_chain_at_the_default_limit(self):
        # {p0}, p_i -> p_(i+1), {~p_1998}: 2,000 clauses, one propagation path
        n = 2000
        chain = [clause("p0"), clause("~p1998")]
        chain += [clause(f"~p{i}", f"p{i + 1}") for i in range(n - 2)]
        assert len(chain) == n and sys.getrecursionlimit() <= 1000
        assert refutes(chain)
        assert not refutes(chain[1:])  # without {p0}
        assert not refutes(chain[:1] + chain[2:])  # without {~p_1998}


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
