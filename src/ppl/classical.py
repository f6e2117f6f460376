"""Classical propositional core: valuations, clause form, resolution.

Clauses are represented as frozensets of literals read disjunctively; the
empty clause is the falsum.  On top of binary resolution sit the
potential-error filter (drop every clause touching a literal derivable both
ways as a unit) and three proof relations: classical refutation, the
paraconsistent "judicious" refutation against the filtered clause set, and
membership in the consequence set (judicious minus tautologies).

Both closures run one given-clause loop over a literal index.  Internal
ones are `saturate`, which never keeps a tautological resolvent.  It has
the same empty-clause membership and core as the exhaustive
`resolution_closure`, and the same units by proof on satisfiable input
and by the law test otherwise (see `saturate`).  As the two share the
loop, valuation laws check it.  Semantic entailment and satisfiability
are decided by exhaustive valuation, so resolution is cross-checked.

Facts and support are decided at query time by `find_model`, DPLL with
unit propagation that returns a model or None (no model: the clauses are
refuted), on clauses that `clause_form` reads off a formula's shape, with
the axioms, prime implicates, joining through propagation alone (see
`kb.PlausibleDescription`).  A search can start where `assume` left a
shared part, and `extend` decides more atoms in a model it returned.  Only
a disjunction that is not a clause is enumerated, so the atom limit bounds
that subformula, never a whole check.  `entails` and `satisfiable` stay as
the kernel's oracles.
`is_tautology` and `core_clauses` are imported from `formulas`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Collection, Iterable, Mapping

from .formulas import (
    DEFAULT_MAX_ATOMS,
    Atom,
    AtomLimitError,
    Conj,
    Formula,
    Lit,
    Neg,
    _leaves,
    atoms,
    core_clauses,
    evaluate,
    is_tautology,
    valuations,
)

Clause = frozenset[Lit]
ClauseSet = frozenset[Clause]

EMPTY_CLAUSE: Clause = frozenset()

Index = Mapping[Lit, tuple[Clause, ...]]  # a clause_index
Part = tuple[Collection[Clause], Index]  # clauses, and the index of those not units
State = tuple[set[Lit], set[Lit]]  # a branch's true and false literals
NO_INDEX: Index = MappingProxyType({})


def val_space(avars: Iterable[str]) -> list[frozenset[str]]:
    """All 2^n valuations over `avars`, as sets of true atoms, false outside."""
    return list(valuations(avars))


def clauses_of(x, max_atoms: int = DEFAULT_MAX_ATOMS) -> ClauseSet:
    """Clause form of a formula, or the union over a set of formulas.

    One clause per falsifying valuation; the conjunction of the result is
    equivalent to the input formula.  A formula that is one clause (see
    `_clause`) skips the enumeration: a literal set that is no tautology is
    falsified by exactly one valuation of its atoms, the one making each of
    its literals false, whose clause is that set; a tautology is falsified
    by none.  More than `max_atoms` atoms still raise AtomLimitError.
    """
    if isinstance(x, Formula):
        x = (x,)
    out: set[Clause] = set()
    for f in x:
        ls = _clause(f)
        if ls is not None:
            n_atoms = len({l.atom for l in ls})
            if max_atoms is not None and n_atoms > max_atoms:
                raise AtomLimitError(n_atoms, max_atoms)
            if not is_tautology(ls):
                out.add(ls)
            continue
        avars = atoms(f)
        for v in valuations(avars, max_atoms):
            if not evaluate(f, v):
                out.add(frozenset(Lit(a, a in v) for a in avars))
    return frozenset(out)


def _clause(f: Formula, negated: bool = False) -> Clause | None:
    """The literals of f, or of ~f when `negated`, if that is one clause,
    else None: once leading negations are stripped, a literal, or a
    disjunction-shaped formula (`or{…}` or `~and{…}`) whose every leaf (see
    `formulas._leaves`) is an atom, taken with its polarity."""
    while type(f) is Neg:
        f, negated = f.inner, not negated
    if type(f) is Atom:
        return frozenset((Lit(f.name, negated),))
    if (type(f) is Conj) is not negated:  # and{…} or ~or{…}
        return None
    leaves = [*_leaves(f, negated)]
    if any(type(g) is not Atom for g, _ in leaves):
        return None
    return frozenset([Lit(g.name, p) for g, p in leaves])


def clause_form(f: Formula, max_atoms: int = DEFAULT_MAX_ATOMS) -> ClauseSet:
    """Clauses equivalent to f, read off f's shape.

    A conjunction-shaped f (`and`, or a negated `or`) contributes its
    leaves' clauses (see `formulas._leaves`), any other f its own.  A leaf
    that is one clause (see `_clause`) is read off, with no enumeration;
    only one that is not goes to `clauses_of`, so the atom limit bounds
    that subformula alone.  The clauses need not be those of `clauses_of`,
    only equivalent to them, so validation, whose error filter reads the
    clause form syntactically, keeps `clauses_of`.
    """
    negated = False
    while type(f) is Neg:
        f, negated = f.inner, not negated
    conjunctive = type(f) is not Atom and (type(f) is Conj) is not negated
    out: set[Clause] = set()
    for g, p in _leaves(f, negated) if conjunctive else ((f, negated),):
        c = _clause(g, p)
        if c is None:
            out |= clauses_of(Neg(g) if p else g, max_atoms)
        else:
            out.add(c)
    return frozenset(out)


def clause_index(clauses: Iterable[Clause]) -> Index:
    """Each literal that some clause holds, mapped to the clauses holding it:
    what making its complement true can falsify.  Tuples, not lists, since
    descriptions keep an index per memoised clause form."""
    index: dict[Lit, list[Clause]] = {}
    for c in clauses:
        for l in c:
            index.setdefault(l, []).append(c)
    return {l: tuple(cs) for l, cs in index.items()}


def assume(parts: Iterable[Part], implicates: Index = NO_INDEX) -> State | None:
    """The branch that unit propagation of the parts' clauses and the
    implicates reaches, as its sets of true and of false literals; None on
    a conflict.  It can start later `find_model` runs that share these
    parts."""
    found = _assume(parts, implicates, None)
    return None if found is None else found[:2]


def find_model(parts: Iterable[Part], implicates: Index = NO_INDEX,
               start: State | None = None) -> set[Lit] | None:
    """A model of the parts' clauses and of the implicates, as the true
    literals of an open branch, or None if there is none: DPLL with unit
    propagation (Davis, Logemann and Loveland 1962).

    A part is a clause set with the `clause_index` of its clauses of two or
    more literals; its units are made true at the start and hold in every
    branch, so they need no index.  A branch is a partial valuation, kept
    as its sets of true and of false literals, `false` holding the
    complement of every true literal.  It begins at `start`, a branch that
    `assume` reached through some of the same parts, and so shares their
    propagation.  Making a literal true revisits only the clauses holding
    its complement: one with no literal true and none left open is a
    conflict, which closes the branch, and one with a single open literal
    forces it.  A branch that leaves no clause open is a model.  Otherwise
    it splits on an open literal of a shortest open clause, the literal
    first, then its complement.  Open branches wait on a list, not on
    Python frames.

    `implicates`, a `clause_index` of the prime implicates of a satisfiable
    clause set, joins the search through unit propagation alone.  That is
    exact: a partial valuation that falsifies no prime implicate extends
    to a model of them all, since otherwise they would entail the clause
    of its complemented literals, and some prime implicate would be a
    subset of that clause.  So a branch is a model once it leaves none of
    the parts' clauses open, and each question pays only for the
    implicates its literals reach.  The model may leave atoms undecided;
    `extend` decides them.
    """
    found = _assume(parts, implicates, start)
    if found is None:
        return None
    true, false, clauses, indexes = found
    stack = [(true, false, [])]  # `_assume` has propagated the first branch
    while stack:
        true, false, forced = stack.pop()
        if forced and not _propagate(true, false, forced, indexes):
            continue
        left = [c - false for c in clauses if true.isdisjoint(c)]
        if not left:
            return true
        l = next(iter(min(left, key=len)))
        stack.append((set(true), set(false), [l.complement()]))
        stack.append((true, false, [l]))
    return None


def _assume(parts: Iterable[Part], implicates: Index, start: State | None):
    """`assume`, with the clauses still open and the indexes to propagate
    through, for `find_model` to branch on."""
    true, false = (set(), set()) if start is None else (set(start[0]), set(start[1]))
    forced: list[Lit] = []
    clauses: list[Clause] = []
    indexes = [implicates]
    for part, index in parts:
        if index:
            indexes.append(index)
        for c in part:
            if true.isdisjoint(c):
                rest = c - false
                if len(rest) > 1:
                    clauses.append(c)
                elif rest:
                    forced.extend(rest)
                else:
                    return None
    if not _propagate(true, false, forced, indexes):
        return None
    return true, false, clauses, indexes


def _propagate(true: set[Lit], false: set[Lit], forced: list[Lit],
               indexes: Iterable[Index]) -> bool:
    """Make the forced literals true, and each literal that forces in turn;
    False on a conflict."""
    while forced:
        l = forced.pop()
        if l in true:
            continue
        if l in false:
            return False
        true.add(l)
        nl = l.complement()
        false.add(nl)
        for index in indexes:
            for c in index.get(nl, ()):
                if true.isdisjoint(c):
                    rest = c - false
                    if not rest:
                        return False
                    if len(rest) == 1:
                        forced.extend(rest)
    return True


def extend(model: set[Lit], avars: Iterable[str], implicates: Index,
           units: Collection[Lit]) -> None:
    """Decide every atom of `avars` in a model that `find_model` returned.

    `implicates` indexes the prime implicates of a satisfiable set, the same
    that `find_model` searched with, and `units` holds their unit clauses'
    literals.  Each undecided atom is made true if it is a unit implicate,
    false otherwise, and unit-propagated through the implicates.  The
    result still falsifies no implicate, so it still extends to a model of
    them all, and it still satisfies every clause the model did.

    No step conflicts, because prime implicates are propagation-complete:
    if Ax ∪ L is consistent and entails a literal m, some prime implicate
    lies inside ~L ∪ {m}, so propagation derives m.  The model L falsifies
    no implicate, so Ax ∪ L is consistent, and `find_model` has already
    propagated L through every implicate but the units, which hold no
    literal to falsify.  A unit implicate is entailed, so making it true
    keeps Ax ∪ L consistent.  Setting an atom a false could conflict only
    if Ax ∪ L ⊨ a; then some prime implicate P lies inside ~L ∪ {a}.  P is
    not {a}, which is no unit implicate, and P holds a, since otherwise L
    falsifies P; so P's other literals are all false in L, and propagation
    has already made a true.  So each step keeps Ax ∪ L consistent, and
    propagation from a consistent Ax ∪ L adds only entailed literals, so
    it never falsifies an implicate.
    """
    false = {l.complement() for l in model}
    for a in avars:
        l = Lit(a, False)
        if l not in model and l not in false:
            _propagate(model, false, [l if l in units else Lit(a, True)], (implicates,))


def resolution_closure(clauses: Iterable[Clause]) -> ClauseSet:
    """Least set containing `clauses` and closed under binary resolution.

    Exhaustive, tautologies included.  It shares `saturate`'s loop, so as
    the oracle for `saturate` it checks only the tautology filter.
    """
    return _close(clauses, True)


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
    resolvents.  So a clause set holding a tautology keeps them, and is
    closed exhaustively; `clauses_of` never emits one.
    """
    clauses = frozenset(clauses)
    return _close(clauses, any(map(is_tautology, clauses)))


def _close(clauses: Iterable[Clause], keep_tautologies: bool) -> ClauseSet:
    """Least superset of `clauses` closed under binary resolution, keeping
    tautological resolvents only if `keep_tautologies`: the given-clause
    loop of Otter and Prover9 (McCune).  A clause taken from the frontier
    is indexed by literal, then resolves only with the indexed clauses
    that hold the complement of one of its literals, itself included.  The
    result is a least fixed point, whatever the visiting order."""
    closed: set[Clause] = set()
    index: dict[Lit, list[Clause]] = {}
    frontier = list(set(clauses))
    while frontier:
        c = frontier.pop()
        if c in closed:
            continue
        closed.add(c)
        for l in c:
            index.setdefault(l, []).append(c)
        for l in c:
            nl = l.complement()
            for d in index.get(nl, ()):
                r = (c - {l}) | (d - {nl})
                if r not in closed and (keep_tautologies or not is_tautology(r)):
                    frontier.append(r)
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
