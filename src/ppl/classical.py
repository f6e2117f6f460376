"""Classical propositional core: valuations, clause form, resolution.

Clauses are represented as frozensets of literals read disjunctively; the
empty clause is the falsum.  On top of binary resolution sit the
potential-error filter (drop every clause touching a literal derivable both
ways as a unit) and three proof relations: classical refutation, the
paraconsistent "judicious" refutation against the filtered clause set, and
membership in the consequence set (judicious minus tautologies).

Every internal closure is `saturate`, binary resolution that never keeps a
tautological resolvent.  It has the same empty-clause membership and the
same core as the exhaustive `resolution_closure`, which stays as the
oracle; it has the same units by proof when the clause set is satisfiable,
and by the law test otherwise (see `saturate`).  Semantic entailment and
satisfiability are decided independently by exhaustive valuation, so
resolution can be cross-checked against semantics.

Facts and support are decided at query time by `refutes`, DPLL with unit
propagation, on clauses that `clause_form` reads off a formula's shape,
with the axioms, prime implicates, joining through propagation alone (see
`kb.PlausibleDescription`).  Only a disjunction with a member that is not a
literal is enumerated, so the atom limit bounds that subformula, never a
whole check.  `entails` and `satisfiable` stay as the kernel's oracles.
`is_tautology` and `core_clauses` are imported from `formulas`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .formulas import (
    DEFAULT_MAX_ATOMS,
    Atom,
    Conj,
    Formula,
    Lit,
    Neg,
    as_lit,
    atoms,
    complement,
    core_clauses,
    evaluate,
    is_literal,
    is_tautology,
    valuations,
)

Clause = frozenset[Lit]
ClauseSet = frozenset[Clause]

EMPTY_CLAUSE: Clause = frozenset()


def val_space(avars: Iterable[str]) -> list[frozenset[str]]:
    """All 2^n valuations over `avars`, as sets of true atoms, false outside."""
    return list(valuations(avars))


def clauses_of(x, max_atoms: int = DEFAULT_MAX_ATOMS) -> ClauseSet:
    """Clause form of a formula, or the union over a set of formulas.

    One clause per falsifying valuation; the conjunction of the result is
    equivalent to the input formula.
    """
    if isinstance(x, Formula):
        x = (x,)
    out: set[Clause] = set()
    for f in x:
        avars = atoms(f)
        for v in valuations(avars, max_atoms):
            if not evaluate(f, v):
                out.add(frozenset(Lit(a, a in v) for a in avars))
    return frozenset(out)


def clause_form(f: Formula, max_atoms: int = DEFAULT_MAX_ATOMS,
                negated: bool = False) -> ClauseSet:
    """Clauses equivalent to f, or to ~f when `negated`, read off f's shape.

    A double negation cancels, a conjunction (`and`, or a negated `or`)
    contributes its members' clauses, and a disjunction of literals (`or`,
    or a negated `and`, over literals) is one clause.  Only a disjunction
    with a member that is not a literal goes to `clauses_of`, so the atom
    limit bounds that subformula alone.  Runs on an explicit stack.  The
    clauses need not be those of `clauses_of`, only equivalent to them, so
    validation, whose error filter reads the clause form syntactically,
    keeps `clauses_of`.
    """
    out: set[Clause] = set()
    todo = [(f, negated)]
    while todo:
        f, negated = todo.pop()
        while type(f) is Neg and type(f.inner) is not Atom:
            f, negated = f.inner, not negated
        if is_literal(f):
            out.add(frozenset((as_lit(f).complement() if negated else as_lit(f),)))
        elif (type(f) is Conj) is not negated:
            todo.extend((m, negated) for m in f.members)  # type: ignore[union-attr]
        elif all(map(is_literal, f.members)):  # type: ignore[union-attr]
            ls = frozenset(map(as_lit, f.members))  # type: ignore[union-attr]
            out.add(complement(ls) if negated else ls)
        else:
            out |= clauses_of(Neg(f) if negated else f, max_atoms)
    return frozenset(out)


def clause_index(clauses: Iterable[Clause]) -> dict[Lit, tuple[Lit, list[Clause]]]:
    """What making a literal true can falsify: each literal whose complement
    some clause holds, mapped to that complement and the clauses holding it."""
    holding: dict[Lit, list[Clause]] = {}
    for c in clauses:
        for l in c:
            holding.setdefault(l, []).append(c)
    return {l.complement(): (l, cs) for l, cs in holding.items()}


def refutes(clauses: Iterable[Clause],
            implicates: Mapping[Lit, tuple[Lit, list[Clause]]] | None = None) -> bool:
    """Whether a clause set is unsatisfiable: DPLL with unit propagation
    (Davis, Logemann and Loveland 1962).

    A branch is a partial valuation, kept as its sets of true and of false
    literals.  Making a literal true revisits only the clauses holding its
    complement: one with no literal true and none left open is a conflict,
    which closes the branch, and one with a single open literal forces it.
    A branch that leaves no clause open is a model.  Otherwise it splits on
    an open literal of a shortest open clause, the literal first, then its
    complement.  Open branches wait on a list, not on Python frames.

    `implicates`, a `clause_index` of the prime implicates of a satisfiable
    clause set, joins the refutation through unit propagation alone.  That
    is exact: a partial valuation that falsifies no prime implicate extends
    to a model of them all, since otherwise they would entail the clause
    of its complemented literals, and some prime implicate would be a
    subset of that clause.  So a branch is a model once it leaves none of
    `clauses` open, and each question pays only for the implicates its
    literals reach.
    """
    clauses = set(clauses)
    if EMPTY_CLAUSE in clauses:
        return True
    indexes = (clause_index(clauses), implicates or {})
    stack = [(set(), set(), [l for c in clauses if len(c) == 1 for l in c])]
    while stack:
        true, false, forced = stack.pop()
        if _propagate(true, false, forced, indexes):
            left = [c - false for c in clauses if true.isdisjoint(c)]
            if not left:
                return False
            l = next(iter(min(left, key=len)))
            stack.append((set(true), set(false), [l.complement()]))
            stack.append((true, false, [l]))
    return True


def _propagate(true: set[Lit], false: set[Lit], forced: list[Lit],
               indexes: tuple[Mapping[Lit, tuple[Lit, list[Clause]]], ...]) -> bool:
    """Make the forced literals true, and each literal that forces in turn;
    False on a conflict.  Only complements that some clause holds are
    recorded as false, since only they can be asked about."""
    while forced:
        l = forced.pop()
        if l in true:
            continue
        if l in false:
            return False
        true.add(l)
        for index in indexes:
            hit = index.get(l)
            if hit is not None:
                nl, holding = hit
                false.add(nl)
                for c in holding:
                    if true.isdisjoint(c):
                        rest = c - false
                        if not rest:
                            return False
                        if len(rest) == 1:
                            forced.extend(rest)
    return True


def resolvents(c1: Clause, c2: Clause) -> Iterable[Clause]:
    for l in c1:
        if l.complement() in c2:
            yield (c1 - {l}) | (c2 - {l.complement()})


def resolution_closure(clauses: Iterable[Clause]) -> ClauseSet:
    """Least set containing `clauses` and closed under binary resolution.

    Exhaustive, tautologies included: the test oracle for `saturate`.
    """
    closed: set[Clause] = set()
    frontier = list(set(clauses))
    while frontier:
        c = frontier.pop()
        if c in closed:
            continue
        closed.add(c)
        fresh = []
        for d in closed:
            fresh.extend(r for r in resolvents(c, d) if r not in closed)
        frontier.extend(fresh)
    return frozenset(closed)


def saturate(clauses: Iterable[Clause]) -> ClauseSet:
    """`resolution_closure` without its tautological resolvents.

    A resolvent holding a literal and its complement is dropped.  For a
    tautology-free S the result can miss non-minimal clauses of the
    closure Res(S), but it holds the empty clause iff Res(S) does, has the
    same `core_clauses`, and has the same units:

    * Sound: saturate(S) is a subset of Res(S).
    * Every non-tautological C in Res(S) contains some C' in saturate(S),
      by induction on C's derivation.  Resolving a tautology {p, ~p} | R
      on p with a D holding ~p gives D | R, a superset of the other
      premise; resolving it on any other literal gives a tautology.  If
      neither premise is a derived tautology, each is an input clause or
      contains a member of saturate(S) by induction.  If those members
      both still hold the literal resolved upon, their resolvent is a
      subset of C, hence no tautology, hence kept; otherwise one of them
      is already a subset of C.
    * So the empty clause is in both or in neither, and both have the
      same subset-minimal non-tautological clauses, the core.
    * A unit {l} of Res(S) contains {l} or the empty clause from
      saturate(S); without the empty clause that is {l} itself.  With it,
      the argument above does not pin {l}, and the units rest on the law
      test against `resolution_closure` and on an exhaustive check of
      small clause sets.

    The units fail for an input tautology: with {b}, {c} and {~b, ~c},
    the clause {a, b, ~b, c, ~c} yields {a} only through tautological
    resolvents.  So a clause set holding a tautology is closed
    exhaustively; `clauses_of` never emits one.
    """
    clauses = frozenset(clauses)
    if any(map(is_tautology, clauses)):
        return resolution_closure(clauses)
    closed: set[Clause] = set()
    frontier = list(clauses)
    while frontier:
        c = frontier.pop()
        if c in closed:
            continue
        closed.add(c)
        fresh = []
        for d in closed:
            fresh.extend(r for r in resolvents(c, d)
                         if r not in closed and not is_tautology(r))
        frontier.extend(fresh)
    return frozenset(closed)


def conflicting_units(closed: Iterable[Clause]) -> frozenset[Lit]:
    """Unit literals of a saturated clause set whose complement is a unit too."""
    units = {next(iter(c)) for c in closed if len(c) == 1}
    return frozenset(l for l in units if l.complement() in units)


def without_errors(clauses: Iterable[Clause], bad: frozenset[Lit]) -> ClauseSet:
    """Drop the empty clause and every clause touching a literal of `bad`."""
    return frozenset(c for c in clauses if c and not (c & bad))


def err(clauses: Iterable[Clause]) -> frozenset[Lit]:
    """Potential-error literals: unit-derivable together with their complement."""
    return conflicting_units(saturate(clauses))


def sat_filter(clauses: Iterable[Clause]) -> ClauseSet:
    """Drop the empty clause and every clause touching a potential error."""
    clauses = frozenset(clauses)
    return without_errors(clauses, err(clauses))


def proves(premises: Iterable[Formula], f: Formula,
           max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """Classical refutation: the clause form of {~f} ∪ premises resolves to falsum."""
    start = clauses_of(list(premises) + [Neg(f)], max_atoms)
    return EMPTY_CLAUSE in saturate(start)


def judiciously_proves(premises: Iterable[Formula], f: Formula,
                       max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """Refutation against the error-filtered clause form of the premises."""
    start = clauses_of(Neg(f), max_atoms) | sat_filter(clauses_of(premises, max_atoms))
    return EMPTY_CLAUSE in saturate(start)


def in_from(premises: Iterable[Formula], f: Formula,
            max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """f follows from the premises: judiciously proved and not a tautology."""
    if not clauses_of(f, max_atoms):  # a tautology
        return False
    return judiciously_proves(premises, f, max_atoms)


def entails(premises: Iterable[Formula], f: Formula,
            max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """Semantic consequence by exhaustive valuation over the joint atoms."""
    premises = list(premises)
    avars = atoms(f).union(*map(atoms, premises))
    for v in valuations(avars, max_atoms):
        if all(evaluate(g, v) for g in premises) and not evaluate(f, v):
            return False
    return True


def satisfiable(formulas: Iterable[Formula],
                max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    formulas = list(formulas)
    avars = frozenset().union(*map(atoms, formulas))
    return any(
        all(evaluate(g, v) for g in formulas) for v in valuations(avars, max_atoms)
    )


def clauses_satisfiable(clauses: Iterable[Clause]) -> bool:
    """Valuation-based satisfiability of a clause set (unit test oracle)."""
    clauses = list(clauses)
    for v in valuations(l.atom for c in clauses for l in c):
        if all(any((l.atom in v) != l.neg for l in c) for c in clauses):
            return True
    return False
