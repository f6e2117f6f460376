"""Formula construction, normalization, and the text grammar."""

import random
from itertools import product

import pytest

from conftest import random_formula
from ppl import (
    Atom,
    Conj,
    Disj,
    FALSUM,
    FormulaClass,
    FormulaSyntaxError,
    Lit,
    Neg,
    VERUM,
    atoms,
    classify,
    complement,
    core,
    format_formula,
    lits,
    parse_formula,
    simplify,
)
from ppl.formulas import canonical_set, evaluate

A, B, C = Atom("a"), Atom("b"), Atom("c")


class TestStructure:
    def test_set_members_ignore_order(self):
        assert Disj([A, B]) == Disj([B, A])
        assert hash(Conj([A, B, C])) == hash(Conj([C, A, B]))

    def test_set_members_ignore_duplicates(self):
        assert Disj([A, A, B]) == Disj([A, B])
        assert len(Conj([A, A]).members) == 1

    def test_double_negation_is_not_collapsed(self):
        assert Neg(Neg(A)) != A

    def test_empty_connectives(self):
        assert VERUM == Conj([])
        assert FALSUM == Disj([])
        assert VERUM != FALSUM

    def test_atom_names_validated(self):
        with pytest.raises(ValueError):
            Atom("and")
        with pytest.raises(ValueError):
            Atom("9x")

    def test_equality_is_structural_under_equal_hashes(self):
        # every hash forced equal, so == decides on structure alone
        rng = random.Random(13)
        texts = ["a", "b", "~a", "~~a", "and{}", "or{}", "or{a,b}", "and{a,b}",
                 "or{a,~b}", "or{a,b,c}", "and{or{a,b},~c}", "and{or{a,c},~c}"]

        for _ in range(200):
            s, t = rng.choice(texts), rng.choice(texts)
            f, g = _same_hash(parse_formula(s)), _same_hash(parse_formula(t))
            assert (f == g) is (s == t) and (f != g) is (s != t), (s, t)

    def test_atoms_collects_all(self):
        assert atoms(Conj([Disj([A, Neg(B)]), C])) == {"a", "b", "c"}


def _same_hash(f):
    """f with every hash in it forced to 0, so == must decide on structure."""
    stack = [f]
    while stack:
        g = stack.pop()
        g._hash = 0
        stack.extend(g.members if isinstance(g, (Conj, Disj))
                     else [g.inner] if isinstance(g, Neg) else [])
    return f


def _reference_key(f):
    """The canonical order by its recursive definition, as a nested tuple:
    kind (atom < ~ < and < or), then the name, the inner formula's key, or
    the members' keys in order."""
    if isinstance(f, Atom):
        return (0, f.name)
    if isinstance(f, Neg):
        return (1, _reference_key(f.inner))
    return (2 if isinstance(f, Conj) else 3, tuple(_reference_key(m) for m in f.members))


class TestCanonicalOrder:
    def test_sorting_agrees_with_the_reference_key(self):
        rng = random.Random(29)
        for _ in range(20):
            fs = [random_formula(rng, 4) for _ in range(150)]
            expected = sorted(fs, key=_reference_key)  # stable, like sorted(fs)
            assert all(f is g for f, g in zip(sorted(fs), expected))
            assert canonical_set(fs) == tuple(sorted(set(fs), key=_reference_key))
            assert Disj(fs).members == canonical_set(fs)

    def test_lt_and_eq_agree_with_the_reference_key(self):
        rng = random.Random(31)
        pool = [random_formula(rng, 2) for _ in range(40)]  # repeats give equal pairs
        equal_pairs = 0
        for _ in range(3000):
            f, g = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.5:  # separate copies, every hash forced equal
                f, g = (_same_hash(parse_formula(format_formula(h))) for h in (f, g))
            kf, kg = _reference_key(f), _reference_key(g)
            assert (f < g, g < f, f == g, f != g) == (kf < kg, kg < kf, kf == kg, kf != kg)
            equal_pairs += kf == kg
        assert equal_pairs > 100

    def test_deep_sets_compare_and_sort_without_recursion(self):
        x_text, y_text = ("and{" * 20000 + atom + "}" * 20000 for atom in "ab")
        text = f"and{{{x_text},{y_text}}}"
        f = parse_formula(text)  # canonical_set compares x and y to their innermost atoms
        assert format_formula(f) == text
        x, y = parse_formula(x_text), parse_formula(y_text)
        assert x < y and not y < x and x != y
        assert sorted([y, x]) == [x, y]
        assert f.members == (x, y)


class TestComplement:
    def test_atom(self):
        assert complement(Lit("a", False)) == Lit("a", True)

    def test_negated_atom(self):
        assert complement(Lit("a", True)) == Lit("a", False)

    def test_elementwise_on_sets(self):
        got = complement(frozenset({Lit("a", False), Lit("b", True)}))
        assert got == {Lit("a", True), Lit("b", False)}

    def test_involution_on_random_sets(self):
        rng = random.Random(7)
        for _ in range(100):
            ls = frozenset(
                Lit(rng.choice("abcd"), rng.random() < 0.5) for _ in range(4)
            )
            assert complement(complement(ls)) == ls


class TestLits:
    def test_literal_yields_itself(self):
        assert lits(A) == {Lit("a", False)}

    def test_clause_yields_its_set(self):
        assert lits(Disj([A, Neg(B)])) == {Lit("a", False), Lit("b", True)}
        assert lits(Conj([A, Neg(B)])) == {Lit("a", False), Lit("b", True)}

    def test_empty_clause(self):
        assert lits(FALSUM) == frozenset()

    def test_rejects_non_clause(self):
        with pytest.raises(ValueError):
            lits(Disj([Conj([A, B])]))
        with pytest.raises(ValueError, match="^not a clause or dual-clause: "):
            lits(Neg(Conj([A, B])))


def _reference_value(f, true_atoms):
    """The recursive definition of truth, independent of `evaluate`."""
    if isinstance(f, Atom):
        return f.name in true_atoms
    if isinstance(f, Neg):
        return not _reference_value(f.inner, true_atoms)
    values = [_reference_value(m, true_atoms) for m in f.members]
    return all(values) if isinstance(f, Conj) else any(values)


def _truth_table_class(f):
    """Independent classifier: enumerate assignments with itertools.product."""
    avars = sorted(atoms(f))
    values = [
        _reference_value(f, {a for a, bit in zip(avars, bits) if bit})
        for bits in product((False, True), repeat=len(avars))
    ]
    if all(values):
        return FormulaClass.TAUTOLOGY
    if not any(values):
        return FormulaClass.CONTRADICTION
    return FormulaClass.CONTINGENT


class TestClassify:
    def test_excluded_middle(self):
        assert classify(Disj([A, Neg(A)])) is FormulaClass.TAUTOLOGY

    def test_contradiction(self):
        assert classify(Conj([A, Neg(A)])) is FormulaClass.CONTRADICTION

    def test_two_atom_disjunction_contingent(self):
        f = Disj([A, B])
        assert _truth_table_class(f) is FormulaClass.CONTINGENT
        assert classify(f) is FormulaClass.CONTINGENT

    def test_empty_connectives(self):
        assert classify(FALSUM) is FormulaClass.CONTRADICTION
        assert classify(VERUM) is FormulaClass.TAUTOLOGY

    def test_evaluate_agrees_with_the_recursive_definition(self):
        rng = random.Random(13)
        for _ in range(300):
            f = random_formula(rng, 3)
            for bits in product((False, True), repeat=3):
                v = {a for a, bit in zip("abc", bits) if bit}
                assert evaluate(f, v) is _reference_value(f, v), (f, v)

    def test_agrees_with_truth_table_on_random_formulas(self):
        rng = random.Random(11)
        for _ in range(150):
            f = random_formula(rng, 2)
            assert classify(f) is _truth_table_class(f)


class TestSimplify:
    def test_singleton_disjunction_unwraps(self):
        assert simplify(Disj([A])) == A

    def test_empty_conjunction_unchanged(self):
        assert simplify(VERUM) == VERUM

    def test_nested_singletons_unwrap_recursively(self):
        assert simplify(Disj([Conj([B])])) == B

    def test_non_singletons_unchanged(self):
        f = Disj([A, B])
        assert simplify(f) == f


class TestCore:
    def test_drops_tautologies_and_supersets_then_unwraps(self):
        got = core({Disj([B, Neg(B)]), Disj([A, B]), Disj([A])})
        assert got == {A}

    def test_empty_input(self):
        assert core(set()) == frozenset()

    def test_empty_clause_survives(self):
        assert core({FALSUM}) == {FALSUM}

    def test_dual_clauses_drop_contradictions(self):
        got = core({Conj([B, Neg(B)]), Conj([A, B]), Conj([A])})
        assert got == {A}

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError):
            core({Disj([A, B]), Conj([A, B])})

    def test_idempotent_on_random_clause_sets(self):
        rng = random.Random(23)
        for _ in range(200):
            group = {
                Disj([Lit(rng.choice("abcd"), rng.random() < 0.5).formula()
                      for _ in range(rng.randint(0, 3))])
                for _ in range(rng.randint(0, 5))
            }
            first = core(group)
            assert core(first) == first


class TestTextGrammar:
    @pytest.mark.parametrize(
        "text",
        ["a", "~a", "~~x_1", "and{}", "or{}", "or{a,b}", "and{a,or{b,~c}}"],
    )
    def test_round_trip(self, text):
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f

    def test_whitespace_tolerated(self):
        assert parse_formula(" or{ a , ~b } ") == Disj([A, Neg(B)])

    def test_canonical_form_is_sorted(self):
        assert format_formula(parse_formula("or{b,a}")) == "or{a,b}"

    @pytest.mark.parametrize("text,pos,message", [
    ("", 0, "expected a formula"),
    ("   ", 3, "expected a formula"),
    ("or{a", 4, "unterminated member list"),
    ("and a", 4, "expected '{' after 'and'"),
    ("a b", 2, "unexpected 'b' after formula"),
    ("~", 1, "expected a formula"),
    ("or{a b}", 5, "expected ',' or '}', got 'b'"),
    ("or{a,é}", 5, "unexpected 'é'"),
    ("or", 2, "expected '{' after 'or'"),
    ("and", 3, "expected '{' after 'and'"),
    ("a => b", 2, "unexpected '=' after formula"),
    ("~>a", 1, "unexpected '>'"),
    ("=>", 0, "unexpected '='"),
    ("a}", 1, "unexpected '}' after formula"),
    ("{a}", 0, "unexpected '{'"),
    ("or{a,}", 5, "unexpected '}'"),
    ("1a", 0, "unexpected '1'"),
    ("a\x0c", 1, "unexpected '\\x0c' after formula"),
    ("\x0ca", 0, "unexpected '\\x0c'"),
    ("a\n", 1, "unexpected '\\n' after formula"),
    ("and{a,or{b", 10, "unterminated member list"),
    ("~ ~ é", 4, "unexpected 'é'"),
    ])
    def test_errors_carry_positions(self, text, pos, message):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert (exc.value.pos, exc.value.message) == (pos, message)

    @pytest.mark.parametrize("opening,closing", [("~", ""), ("and{", "}"), ("or{a,", "}")])
    def test_deep_nesting_needs_no_recursion(self, opening, closing):
        text = opening * 20000 + "b" + closing * 20000  # 20 times the default limit
        f = parse_formula(text)
        assert format_formula(f) == text
        assert evaluate(f, {"b"}) is True
        assert evaluate(f, set()) is False
        copy = parse_formula(text)  # equal, but built separately
        assert f == copy and copy in {f}
        assert f != parse_formula(text.replace("b", "c"))  # only the innermost atom differs

    def test_non_ascii_letters_are_syntax_errors(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("or{a,é}")
        assert exc.value.pos == 5

    def test_reserved_words_are_not_atoms(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("or")
