"""Set-based propositional formulas.

Formulas are built from atoms with negation, conjunction, and disjunction,
where the operands of ``and``/``or`` form a genuine finite set: no order, no
duplicates.  ``or{}`` is the falsum and ``and{}`` is the verum.  All formula
objects are immutable, hashable, and kept in a canonical internal order so
that equality, hashing, and iteration are deterministic.

The text grammar (used by the KB file format and the CLI) is::

    atom     = [A-Za-z_][A-Za-z0-9_]*        ("and"/"or" are reserved)
    formula  = atom | "~" formula | "and{" list "}" | "or{" list "}"
    list     = formula ("," formula)* | nothing
"""

from __future__ import annotations

import sys
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

DEFAULT_MAX_ATOMS = 20


class AtomLimitError(Exception):
    """Semantic check refused: the formula has too many atoms to enumerate."""

    def __init__(self, n_atoms: int, limit: int):
        super().__init__(f"{n_atoms} atoms exceed the enumeration limit of {limit}")
        self.n_atoms = n_atoms
        self.limit = limit


class Formula:
    """Base class; instances are Atom, Neg, Conj, or Disj."""

    __slots__ = ("_key", "_hash")

    _key: tuple
    _hash: int

    def __eq__(self, other):
        return self is other or (isinstance(other, Formula) and self._key == other._key)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        return self._key < other._key

    def __repr__(self):
        return format_formula(self)


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _is_identifier(name):
            raise ValueError(f"invalid atom name: {name!r}")
        self.name = sys.intern(name)
        self._key = (0, self.name)
        self._hash = hash(self._key)


class Neg(Formula):
    __slots__ = ("inner",)

    def __init__(self, inner: Formula):
        self.inner = inner
        self._key = (1, inner._key)
        self._hash = hash(self._key)


class _SetFormula(Formula):
    __slots__ = ("members",)

    _tag: int

    def __init__(self, members: Iterable[Formula]):
        self.members = canonical_set(members)
        self._key = (self._tag, tuple(m._key for m in self.members))
        self._hash = hash(self._key)

    def __len__(self):
        return len(self.members)

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.members)


class Conj(_SetFormula):
    __slots__ = ()
    _tag = 2


class Disj(_SetFormula):
    __slots__ = ()
    _tag = 3


def canonical_set(members: Iterable[Formula]) -> tuple[Formula, ...]:
    """A finite formula set as a tuple: canonical order, duplicates collapsed."""
    seen = {m._key: m for m in members}
    return tuple(seen[k] for k in sorted(seen))


VERUM = Conj(())
FALSUM = Disj(())


def _is_identifier(name: str) -> bool:
    if not name or name in ("and", "or"):
        return False
    if not (name[0].isascii() and (name[0].isalpha() or name[0] == "_")):
        return False
    return all(c.isascii() and (c.isalnum() or c == "_") for c in name)


class Lit(NamedTuple):
    """A literal: an atom or a negated atom."""

    atom: str
    neg: bool

    def complement(self) -> "Lit":
        return Lit(self.atom, not self.neg)

    def formula(self) -> Formula:
        a = Atom(self.atom)
        return Neg(a) if self.neg else a

    def __repr__(self):
        return ("~" if self.neg else "") + self.atom


def complement(x):
    """Complement of a literal, or elementwise of a set of literals."""
    if isinstance(x, Lit):
        return x.complement()
    return frozenset(l.complement() for l in x)


def is_literal(f: Formula) -> bool:
    return isinstance(f, Atom) or (isinstance(f, Neg) and isinstance(f.inner, Atom))


def as_lit(f: Formula) -> Lit:
    if isinstance(f, Atom):
        return Lit(f.name, False)
    if isinstance(f, Neg) and isinstance(f.inner, Atom):
        return Lit(f.inner.name, True)
    raise ValueError(f"not a literal: {f!r}")


def lits(c: Formula) -> frozenset[Lit]:
    """The literal set of a clause or dual-clause (a literal yields itself)."""
    if is_literal(c):
        return frozenset([as_lit(c)])
    if isinstance(c, (Conj, Disj)):
        return frozenset(as_lit(m) for m in c.members)
    raise ValueError(f"not a clause or dual-clause: {c!r}")


def is_clause(f: Formula) -> bool:
    """True for a literal or a disjunction of literals."""
    if is_literal(f):
        return True
    return isinstance(f, Disj) and all(is_literal(m) for m in f.members)


def is_dual_clause(f: Formula) -> bool:
    if is_literal(f):
        return True
    return isinstance(f, Conj) and all(is_literal(m) for m in f.members)


def atoms(f: Formula) -> frozenset[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, Neg):
            stack.append(g.inner)
        else:
            stack.extend(g.members)  # type: ignore[union-attr]
    return frozenset(out)


def evaluate(f: Formula, true_atoms) -> bool:
    """Truth of f under the valuation that makes exactly `true_atoms` true."""
    if isinstance(f, Atom):
        return f.name in true_atoms
    if isinstance(f, Neg):
        return not evaluate(f.inner, true_atoms)
    if isinstance(f, Conj):
        return all(evaluate(m, true_atoms) for m in f.members)
    return any(evaluate(m, true_atoms) for m in f.members)


class FormulaClass(Enum):
    TAUTOLOGY = "tautology"
    CONTRADICTION = "contradiction"
    CONTINGENT = "contingent"


def classify(f: Formula, max_atoms: int = DEFAULT_MAX_ATOMS) -> FormulaClass:
    """Classify by exhaustive valuation over the atoms of f."""
    seen_true = seen_false = False
    for v in valuations(atoms(f), max_atoms):
        if evaluate(f, v):
            seen_true = True
        else:
            seen_false = True
        if seen_true and seen_false:
            return FormulaClass.CONTINGENT
    return FormulaClass.TAUTOLOGY if seen_true else FormulaClass.CONTRADICTION


def valuations(avars: Iterable[str],
               max_atoms: int | None = None) -> Iterator[frozenset[str]]:
    """All 2^n valuations over `avars`, lazily, as sets of true atoms.

    The order is canonical: bit i of the counter is the i-th atom in
    sorted order.  More than `max_atoms` atoms raise AtomLimitError
    before anything is enumerated.
    """
    ordered = sorted(set(avars))
    if max_atoms is not None and len(ordered) > max_atoms:
        raise AtomLimitError(len(ordered), max_atoms)
    return (
        frozenset(a for i, a in enumerate(ordered) if mask >> i & 1)
        for mask in range(1 << len(ordered))
    )


def simplify(f: Formula) -> Formula:
    """Unwrap singleton and{g} / or{g} wrappers, recursively; else unchanged."""
    while isinstance(f, (Conj, Disj)) and len(f.members) == 1:
        f = f.members[0]
    return f


def conj(members: Iterable[Formula]) -> Formula:
    """Simplified conjunction of a set of formulas."""
    return simplify(Conj(members))


def disj(members: Iterable[Formula]) -> Formula:
    return simplify(Disj(members))


def core(group: Iterable[Formula]) -> frozenset[Formula]:
    """Core of a homogeneous set of clauses (or of dual-clauses).

    Keeps the contingent-or-empty members, drops members whose literal set
    strictly contains another member's, and unwraps singleton wrappers.
    A clause is non-contingent exactly when its literal set has a
    complementary pair (tautology) or is empty; dually for dual-clauses,
    so one literal-set test serves both kinds.
    """
    group = list(group)
    kinds = {type(g) for g in group if isinstance(g, (Conj, Disj))}
    if len(kinds) > 1:
        raise ValueError("mixed clause and dual-clause members")
    litsets = {}
    for g in group:
        litsets[g] = lits(g)  # raises on non-clause members
    kept = [g for g in group if not _has_complementary_pair(litsets[g])]
    minimal = [
        g for g in kept
        if not any(litsets[h] < litsets[g] for h in kept)
    ]
    return frozenset(simplify(g) for g in minimal)


def _has_complementary_pair(ls: frozenset[Lit]) -> bool:
    return any(l.complement() in ls for l in ls)


# --- text grammar -----------------------------------------------------------

class FormulaSyntaxError(Exception):
    """Parse failure; `pos` is the 0-based offset into the parsed text."""

    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.message = message
        self.pos = pos


def format_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Neg):
        return "~" + format_formula(f.inner)
    word = "and" if isinstance(f, Conj) else "or"
    return word + "{" + ",".join(format_formula(m) for m in f.members) + "}"


def parse_formula(text: str) -> Formula:
    f, pos = parse_formula_at(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise FormulaSyntaxError(f"unexpected {text[pos]!r} after formula", pos)
    return f


def parse_formula_at(text: str, pos: int) -> tuple[Formula, int]:
    """Parse one formula starting at `pos`; returns (formula, next position)."""
    pos = _skip_ws(text, pos)
    if pos >= len(text):
        raise FormulaSyntaxError("expected a formula", pos)
    c = text[pos]
    if c == "~":
        inner, pos = parse_formula_at(text, pos + 1)
        return Neg(inner), pos
    if c.isalpha() or c == "_":
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        word = text[start:pos]
        if word in ("and", "or"):
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != "{":
                raise FormulaSyntaxError(f"expected '{{' after {word!r}", pos)
            members, pos = _parse_member_list(text, pos + 1)
            cls = Conj if word == "and" else Disj
            return cls(members), pos
        return Atom(word), pos
    raise FormulaSyntaxError(f"unexpected {c!r}", pos)


def _parse_member_list(text: str, pos: int) -> tuple[list[Formula], int]:
    members: list[Formula] = []
    pos = _skip_ws(text, pos)
    if pos < len(text) and text[pos] == "}":
        return members, pos + 1
    while True:
        f, pos = parse_formula_at(text, pos)
        members.append(f)
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            raise FormulaSyntaxError("unterminated member list", pos)
        if text[pos] == ",":
            pos += 1
            continue
        if text[pos] == "}":
            return members, pos + 1
        raise FormulaSyntaxError(f"expected ',' or '}}', got {text[pos]!r}", pos)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t":
        pos += 1
    return pos
