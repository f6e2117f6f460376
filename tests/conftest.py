"""Shared builders: worked-example descriptions and a random-theory generator."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

from ppl import (
    Arrow,
    Atom,
    Conj,
    Disj,
    Formula,
    Neg,
    PlausibleDescription,
    Rule,
    atoms,
    entails,
    satisfiable,
    validate_description,
)

KB_DIR = Path(__file__).resolve().parent.parent / "kb"


def desc_plausible_default() -> PlausibleDescription:
    """One defeasible rule claiming a, nothing else."""
    return validate_description([], [Rule("ra", (), Arrow.DEFEASIBLE, Atom("a"))])


def desc_retracted_default() -> PlausibleDescription:
    """The defeasible claim for a together with the hard fact ~a."""
    return validate_description(
        [Neg(Atom("a"))], [Rule("ra", (), Arrow.DEFEASIBLE, Atom("a"))]
    )


def desc_ambiguity() -> PlausibleDescription:
    a, b = Atom("a"), Atom("b")
    return validate_description(
        [],
        [
            Rule("ra", (), Arrow.DEFEASIBLE, a),
            Rule("rna", (), Arrow.DEFEASIBLE, Neg(a)),
            Rule("rb", (), Arrow.DEFEASIBLE, b),
            Rule("ranb", (a,), Arrow.DEFEASIBLE, Neg(b)),
        ],
    )


def desc_rule_chain(n: int) -> PlausibleDescription:
    """The defeasible chain {} => a0, {a_(i-1)} => a_i, with no facts.

    Closed form: every a_i is u under phi and t under every other algorithm.
    """
    links = [Atom(f"a{i}") for i in range(n)]
    rules = [Rule("r0", (), Arrow.DEFEASIBLE, links[0])]
    rules += [
        Rule(f"r{i}", (links[i - 1],), Arrow.DEFEASIBLE, links[i])
        for i in range(1, n)
    ]
    return validate_description([], rules)


def wide_implications_kb(n: int = 11) -> str:
    """KB text: the n facts q_i -> r_i (2n atoms), {} => q3 and {} => ~r5.

    Closed form: r3 and ~q5 are u under phi and t under every other
    algorithm, while no rule or query mentions more than two atoms.
    """
    facts = "".join(f"fact: or{{~q{i},r{i}}}\n" for i in range(1, n + 1))
    return facts + "rule a: {} => q3\nrule b: {} => ~r5\n"


@contextmanager
def shallow_recursion_limit(headroom: int = 100):
    """Lower the recursion limit to `headroom` frames above the caller."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def lottery_facts(n: int) -> list[Formula]:
    tickets = [Atom(f"s{i}") for i in range(1, n + 1)]
    facts: list[Formula] = [Disj(tickets)]
    facts += [Neg(Conj(pair)) for pair in combinations(tickets, 2)]
    return facts


def desc_lottery3() -> PlausibleDescription:
    tickets = [Atom(f"s{i}") for i in (1, 2, 3)]
    rules = [
        Rule(f"r1{i}", (), Arrow.DEFEASIBLE, Neg(t))
        for i, t in enumerate(tickets, 1)
    ]
    rules += [
        Rule("r14", (), Arrow.DEFEASIBLE, Disj([tickets[0], tickets[1]])),
        Rule("r15", (), Arrow.DEFEASIBLE, Disj([tickets[0], tickets[2]])),
        Rule("r16", (), Arrow.DEFEASIBLE, Disj([tickets[1], tickets[2]])),
    ]
    return validate_description(lottery_facts(3), rules)


def desc_lottery4() -> PlausibleDescription:
    tickets = [Atom(f"s{i}") for i in (1, 2, 3, 4)]
    rules = [
        Rule(f"d{i}", (), Arrow.DEFEASIBLE, Neg(t))
        for i, t in enumerate(tickets, 1)
    ]
    for combo in combinations(range(4), 3):
        rid = "t" + "".join(str(i + 1) for i in combo)
        rules.append(
            Rule(rid, (), Arrow.DEFEASIBLE, Disj([tickets[i] for i in combo]))
        )
    return validate_description(lottery_facts(4), rules)


# --- random theories for the property suites --------------------------------

_ATOMS = ("a", "b", "c")


def _formula_pool(rng: random.Random, atom_names) -> list[Formula]:
    lits = [Atom(a) for a in atom_names] + [Neg(Atom(a)) for a in atom_names]
    pool: list[Formula] = list(lits)
    for l1, l2 in combinations(lits, 2):
        pool.append(Disj([l1, l2]))
        pool.append(Conj([l1, l2]))
    return pool


def random_formula(rng: random.Random, depth: int) -> Formula:
    """A random formula over a, b and c, nested up to `depth` deep, with
    negations and and/or sets of up to three members (empty ones too)."""
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        a = Atom(rng.choice("abc"))
        return Neg(a) if rng.random() < 0.5 else a
    if roll < 0.55:
        return Neg(random_formula(rng, depth - 1))
    members = [random_formula(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return Conj(members) if rng.random() < 0.5 else Disj(members)


def make_random_theory(rng: random.Random,
                       max_rules: int = 6) -> PlausibleDescription:
    """A small random theory: <=3 atoms, <=`max_rules` rules, <=4 acyclic
    priority pairs (empty half the time)."""
    while True:
        atom_names = rng.sample(_ATOMS, rng.randint(1, 3))
        pool = _formula_pool(rng, atom_names)
        lits = pool[: 2 * len(atom_names)]

        facts: list[Formula] = []
        roll = rng.random()
        if roll < 0.25:
            facts = [rng.choice(lits)]
        elif roll < 0.5:
            l1, l2 = rng.sample(lits, 2)
            facts = [Disj([l1, l2])]

        rules = []
        for i in range(rng.randint(1, 4)):
            n_ants = rng.choices((0, 1, 2), weights=(5, 4, 1))[0]
            ants = tuple(rng.choice(pool) for _ in range(n_ants))
            arrow = Arrow.WARNING if rng.random() < 0.25 else Arrow.DEFEASIBLE
            rules.append(Rule(f"u{i}", ants, arrow, rng.choice(pool)))

        priority: list[tuple[str, str]] = []
        if rng.random() < 0.5 and len(rules) >= 2:
            order = [r.rid for r in rules]
            rng.shuffle(order)
            candidates = list(combinations(order, 2))  # respects the order: acyclic
            rng.shuffle(candidates)
            priority = candidates[: rng.randint(1, 4)]

        desc = validate_description(facts, rules, priority)
        if len(desc.rules) <= max_rules:
            return desc


def make_wide_theory(rng: random.Random) -> PlausibleDescription:
    """Eight defeasible rules over the literals of three atoms, each with up
    to two literal antecedents, and random priorities half the time: many
    rules share an antecedent, so one formula is met under many histories
    that differ in entries its subtree may or may not test."""
    lits = [Atom(a) for a in "pqr"] + [Neg(Atom(a)) for a in "pqr"]
    rules = [Rule(f"u{i}", tuple(rng.sample(lits, rng.choices((0, 1, 2), (3, 5, 2))[0])),
                  Arrow.DEFEASIBLE, rng.choice(lits))
             for i in range(8)]
    priority = []
    if rng.random() < 0.5:
        order = [r.rid for r in rules]
        rng.shuffle(order)
        priority = rng.sample(list(combinations(order, 2)), rng.randint(1, 6))
    facts = [Disj(rng.sample(lits, 2))] if rng.random() < 0.3 else []
    return validate_description(facts, rules, priority)


def make_ranked_theory(rng: random.Random) -> PlausibleDescription:
    """Four to six defeasible rules over the literals of one atom, most with
    one literal antecedent, ranked by two to eight random priority pairs
    80% of the time.  Their foes are often settled only several walks down,
    by a team defeater or the co-algorithm's disable step, where the answer
    can hinge on the history holding the supporter's own entry."""
    lits = [Atom("p"), Neg(Atom("p"))]
    rules = [Rule(f"u{i}", tuple(rng.sample(lits, rng.choices((0, 1), (1, 4))[0])),
                  Arrow.DEFEASIBLE, rng.choice(lits))
             for i in range(rng.randint(4, 6))]
    priority = []
    if rng.random() < 0.8:
        order = [r.rid for r in rules]
        rng.shuffle(order)
        pairs = list(combinations(order, 2))
        priority = rng.sample(pairs, min(len(pairs), rng.randint(2, 8)))
    return validate_description([], rules, priority)


def _medium_formula(rng: random.Random, pool, depth: int) -> Formula:
    """A random formula over the atoms of `pool`, nested up to `depth`
    deep: literals, negations, and and/or sets of two or three members."""
    if depth == 0 or rng.random() < 0.4:
        a = rng.choice(pool)
        return Neg(a) if rng.random() < 0.5 else a
    if rng.random() < 0.15:
        return Neg(_medium_formula(rng, pool, depth - 1))
    members = [_medium_formula(rng, pool, depth - 1) for _ in range(rng.randint(2, 3))]
    return Conj(members) if rng.random() < 0.5 else Disj(members)


def make_medium_theory(rng: random.Random, n_atoms=(4, 7), n_rules=(6, 16),
                       max_pairs=10) -> PlausibleDescription:
    """Four to seven atoms (the `n_atoms` range); facts over disjoint blocks
    of one to three of them, so the axioms often fall into several
    components; six to sixteen (the `n_rules` range) defeasible and warning
    rules whose antecedents and consequents are compound formulas over all
    the atoms; and up to ten (`max_pairs`) acyclic priority pairs."""
    pool = [Atom(f"x{i}") for i in range(rng.randint(*n_atoms))]
    rest = rng.sample(pool, len(pool))
    facts: list[Formula] = []
    while rest and rng.random() < 0.8:
        k = rng.randint(1, 3)
        block, rest = rest[:k], rest[k:]
        if k > 1 and rng.random() < 0.6:
            facts.append(Disj([Neg(a) if rng.random() < 0.5 else a for a in block]))
        else:
            facts += [_medium_formula(rng, block, 2) for _ in range(rng.randint(1, 2))]
    rules = []
    for i in range(rng.randint(*n_rules)):
        ants = tuple(_medium_formula(rng, pool, 1)
                     for _ in range(rng.choices((0, 1, 2), (3, 5, 2))[0]))
        arrow = Arrow.WARNING if rng.random() < 0.2 else Arrow.DEFEASIBLE
        rules.append(Rule(f"u{i}", ants, arrow, _medium_formula(rng, pool, 2)))
    order = [r.rid for r in rules]
    rng.shuffle(order)
    priority = rng.sample(list(combinations(order, 2)), rng.randint(0, max_pairs))
    return validate_description(facts, rules, priority)


def probe_formulas(desc: PlausibleDescription) -> list[Formula]:
    """Literals plus all 2-literal clauses and dual-clauses over the theory's atoms."""
    atom_names = sorted(
        {a for r in desc.rules for f in (r.consequent, *r.antecedents)
         for a in atoms(f)}
    ) or ["a"]
    lits = [Atom(a) for a in atom_names] + [Neg(Atom(a)) for a in atom_names]
    probes: list[Formula] = list(lits)
    for l1, l2 in combinations(lits, 2):
        probes.append(Disj([l1, l2]))
        probes.append(Conj([l1, l2]))
    return probes


def assert_facts_and_support(desc: PlausibleDescription, fs) -> int:
    """is_fact, consistency and supporters against entailment over all the
    axioms.

    The supporters are the full scan of the rules, in their order.
    Returns the number of (rule, formula) pairs with support.
    """
    ax, supported = desc.axioms, 0
    for r in desc.rules:
        assert desc._is_consistent(r.consequent) == satisfiable(ax + (r.consequent,)), r
    for f in fs:
        assert desc.is_fact(f) == entails(ax, f), (ax, f)
        expected = tuple(r for r in desc.rules if satisfiable(ax + (r.consequent,))
                         and entails(ax + (r.consequent,), f))
        assert desc.supporters(f) == expected, (desc.rules, f)
        supported += len(expected)
    return supported
