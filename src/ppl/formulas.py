"""Set-based propositional formulas.

Formulas are built from atoms with negation, conjunction, and disjunction,
where the operands of ``and``/``or`` form a genuine finite set: no order, no
duplicates.  ``or{}`` is the falsum and ``and{}`` is the verum.  All formula
objects are immutable and hashable, and sets keep the one canonical order that
`_compare` defines, so that equality, hashing, and iteration are deterministic.

The text grammar (used by the KB file format and the CLI) is::

    atom     = [A-Za-z_][A-Za-z0-9_]*        ("and"/"or" are reserved)
    formula  = atom | "~" formula | "and{" list "}" | "or{" list "}"
    list     = formula ("," formula)* | nothing

over tokens: runs of [A-Za-z0-9_], the arrows "=>" and "~>", and every
other character on its own, with spaces and tabs between them skipped.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

DEFAULT_MAX_ATOMS = 20


class AtomLimitError(Exception):
    """Semantic check refused: the formula has too many atoms to enumerate."""

    def __init__(self, n_atoms: int, limit: int):
        super().__init__(f"{n_atoms} atoms exceed the enumeration limit of {limit}")
        self.n_atoms = n_atoms
        self.limit = limit


class Formula:
    """Base class; instances are Atom, Neg, Conj, or Disj."""

    __slots__ = ("_hash",)

    _tag: int  # kind, in the canonical order: atom, ~, and, or
    _hash: int

    def __eq__(self, other):
        """Structural equality: identity, cached hashes, then the canonical order."""
        return self is other or (isinstance(other, Formula) and self._hash == other._hash
                                 and _compare(self, other) == 0)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        return _compare(self, other) < 0

    def __repr__(self):
        return format_formula(self)


class Atom(Formula):
    __slots__ = ("name",)
    _tag = 0

    def __init__(self, name: str):
        if not _is_identifier(name):
            raise ValueError(f"invalid atom name: {name!r}")
        self.name = sys.intern(name)
        self._hash = hash((0, self.name))


class Neg(Formula):
    __slots__ = ("inner",)
    _tag = 1

    def __init__(self, inner: Formula):
        self.inner = inner
        self._hash = hash((1, inner._hash))


class _SetFormula(Formula):
    __slots__ = ("members",)

    def __init__(self, members: Iterable[Formula]):
        self.members = canonical_set(members)
        self._hash = hash((self._tag, tuple(m._hash for m in self.members)))

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
    return tuple(sorted(set(members)))


def _compare(f, g) -> int:
    """-1, 0 or 1 as f comes before, equals or comes after g in the canonical order:
    kind first (atom < ~ < and < or), then atoms by name, negations by their
    inner formula, and and/or sets member by member, a prefix before its
    extensions.  Runs on an explicit stack, so any nesting depth compares."""
    stack = []  # open set pairs: (unread member pairs, order if all of them tie)
    while True:
        while f is not g and type(f) is Neg and type(g) is Neg:
            f, g = f.inner, g.inner
        if f is not g:
            if f._tag != g._tag:
                return -1 if f._tag < g._tag else 1
            if type(f) is not Atom:
                m, n = len(f.members), len(g.members)
                stack.append((zip(f.members, g.members), (m > n) - (m < n)))
            elif f.name != g.name:
                return -1 if f.name < g.name else 1
        while stack:
            pairs, tie = stack[-1]
            f, g = next(pairs, (None, None))
            if f is not None:
                break
            if tie:
                return tie
            stack.pop()
        else:
            return 0


# Sort keys.  A formula built from literals by and/or alone orders as a
# plain tuple that C compares: `(neg, atom)` for a literal and `(tag, member
# keys)` for an and/or set.  Tuple order is `_compare`'s: False (0) < True
# (1) < 2 < 3 puts the kind first, atom < ~ < and < or; two atoms compare by
# name, two negated atoms by their atom, as `_compare` strips both
# negations; and two sets of one kind compare member key by member key, a
# prefix before its extensions, as `_compare` walks their member pairs.
# Distinct formulas get distinct keys, and a literal's key never meets a
# set's beyond the kind, so a str is never compared with a tuple.

def _sorted_set(cls: type, members: Sequence[tuple]) -> tuple:
    """(key, formula, text) of the simplified `cls` set (Conj or Disj) of
    `members`, distinct (key, formula, text) triples already in key order.
    One member is returned as it is; otherwise the set is built around the
    members as given, with no comparison and no sort."""
    if len(members) == 1:
        return members[0]
    f = object.__new__(cls)
    f.members = tuple([m[1] for m in members])
    f._hash = hash((cls._tag, tuple([g._hash for g in f.members])))
    text = ("and{" if cls is Conj else "or{") + ",".join([m[2] for m in members]) + "}"
    return (cls._tag, tuple([m[0] for m in members])), f, text


VERUM = Conj(())
FALSUM = Disj(())


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_identifier(name: str) -> bool:
    return name not in ("and", "or") and _IDENTIFIER.fullmatch(name) is not None


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


def atoms(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):  # the commonest case, without the stack
        return frozenset((f.name,))
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


def _leaves(f: Formula, negated: bool) -> Iterator[tuple[Formula, bool]]:
    """The leaves of f, or of ~f when `negated`, f being an `and` or an `or`,
    each without its leading negations and with its polarity.

    Once its leading negations are stripped, a formula is conjunction-
    shaped when it is `and{…}` or `~or{…}`, and disjunction-shaped when it
    is `or{…}` or `~and{…}`: `~or{g1..gk}` is `and{~g1..~gk}` and
    `~and{g1..gk}` is `or{~g1..~gk}`.  A member g of f, or of ~f, has the
    polarity `negated`, flipped by each negation stripped off g.  A member
    of f's own shape is flattened, not yielded, on an explicit stack, so
    each leaf is a literal or of the other shape, and f (or ~f) is
    equivalent to the `and`, or the `or`, of its leaves with their
    polarities.  Each (member, polarity) pair is read once."""
    conjunctive = (type(f) is Conj) is not negated
    stack, seen = [(f, negated)], {(f, negated)}
    while stack:
        h, negated = stack.pop()
        for g in h.members:
            p = negated
            while type(g) is Neg:
                g, p = g.inner, not p
            if (g, p) in seen:
                continue
            seen.add((g, p))
            if type(g) is not Atom and ((type(g) is Conj) is not p) is conjunctive:
                stack.append((g, p))
            else:
                yield g, p


def evaluate(f: Formula, true_atoms) -> bool:
    """Truth of f under the valuation that makes exactly `true_atoms` true.

    Runs on an explicit stack of member iterators.  An and/or set stops at
    its first member that decides it.
    """
    if isinstance(f, Atom):  # the commonest case, without the stack
        return f.name in true_atoms
    stack = []  # open sets: (unread members, deciding value, negated)
    negated = False
    while True:
        while isinstance(f, Neg):
            f, negated = f.inner, not negated
        if isinstance(f, Atom):
            value = (f.name in true_atoms) != negated
        else:  # or is decided by a true member, and by a false one
            members = iter(f.members)  # type: ignore[union-attr]
            stack.append((members, isinstance(f, Disj), negated))
            value = None
        while stack:
            members, decides, negated = stack[-1]
            if value is not decides:
                f = next(members, None)
                if f is not None:
                    negated = False
                    break
                value = not decides
            stack.pop()
            value = value != negated
        else:
            return value


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


def is_tautology(c: frozenset[Lit]) -> bool:
    """Whether a literal set holds a complementary pair: a set holds each
    literal once, so two of its literals share an atom only as a pair."""
    return len({l.atom for l in c}) < len(c)


def core_clauses(clauses: Iterable[frozenset[Lit]]) -> frozenset[frozenset[Lit]]:
    """Contingent-or-empty, subset-minimal members (clause-set core).

    Shortest first, each clause is tested only against the kept clauses
    registered under one of its literals, and a kept clause is registered
    under its rarest literal.  A proper subset d of c is no longer than c,
    so it was tested first; if d was dropped, a kept subset of d is also one
    of c.  A kept d holds its registered literal, so c holds it too.  The
    empty clause is a subset of every other clause.
    """
    members = sorted({c for c in clauses if not is_tautology(c)}, key=len)
    if members and not members[0]:
        return frozenset(members[:1])
    uses = Counter(l for c in members for l in c)
    under: dict[Lit, list[frozenset[Lit]]] = {}
    kept = []
    for c in members:
        if not any(d < c for l in c for d in under.get(l, ())):
            kept.append(c)
            under.setdefault(min(c, key=uses.__getitem__), []).append(c)
    return frozenset(kept)


def core(group: Iterable[Formula]) -> frozenset[Formula]:
    """Core of a homogeneous set of clauses (or of dual-clauses).

    The members whose literal sets `core_clauses` keeps, unwrapped from
    singleton wrappers.  A clause is non-contingent exactly when its
    literal set has a complementary pair (tautology) or is empty; dually
    for dual-clauses, so one literal-set test serves both kinds.
    """
    litsets = {g: lits(g) for g in group}  # raises on non-clause members
    if len({type(g) for g in litsets if isinstance(g, (Conj, Disj))}) > 1:
        raise ValueError("mixed clause and dual-clause members")
    kept = core_clauses(litsets.values())
    return frozenset(simplify(g) for g in litsets if litsets[g] in kept)


# --- text grammar -----------------------------------------------------------

class FormulaSyntaxError(Exception):
    """Parse failure; `pos` is the 0-based offset into the parsed text."""

    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.message = message
        self.pos = pos


def format_formula(f: Formula) -> str:
    """Canonical text of f, written from an explicit stack of member iterators."""
    if isinstance(f, Atom):  # the commonest case, without the stack
        return f.name
    out = []
    stack = []  # the unwritten members of each open and/or set
    while True:
        while isinstance(f, Neg):
            out.append("~")
            f = f.inner
        if isinstance(f, Atom):
            out.append(f.name)
        else:
            out.append("and{" if isinstance(f, Conj) else "or{")
            stack.append(iter(f.members))  # type: ignore[union-attr]
        while stack:
            f = next(stack[-1], None)
            if f is not None:
                if not out[-1].endswith("{"):
                    out.append(",")
                break
            out.append("}")
            stack.pop()
        else:
            return "".join(out)


def parse_formula(text: str) -> Formula:
    return _parse_all(text, _tokens(text), 0, {})


# The tokens of a formula or a KB line: [A-Za-z0-9_] runs, the two arrows,
# and every other character but the blanks (space and tab) on its own.
_TOKEN = re.compile(r"[A-Za-z0-9_]+|[=~]>|[^ \t]")


def _tokens(text: str) -> list[str]:
    """The tokens of `text`, ended by "" (no token is empty)."""
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def _offset(text: str, i: int) -> int:
    """The offset of token i of `text`, or len(text) past its last token.
    Only the error path re-scans the text for it."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


def _parse_all(text: str, tokens: list[str], i: int, atoms: dict) -> Formula:
    """The formula that tokens[i:] hold, and nothing after it."""
    f, i = _parse(text, tokens, i, [], atoms)
    if tokens[i]:
        raise FormulaSyntaxError(f"unexpected {tokens[i][0]!r} after formula", _offset(text, i))
    return f


def _parse(text: str, tokens: list[str], i: int, stack: list, atoms: dict) -> tuple:
    """Parse tokens[i:] into the open frames of `stack` until it empties;
    returns (formula, index of the next token).

    A frame is None for a pending `~`, or (constructor, members) for an
    open member list, so nesting depth is bounded by memory, not by the
    recursion limit.  `atoms` maps each name read so far to its one Atom.
    """
    while True:
        tok = tokens[i]
        i += 1
        f = atoms.get(tok)
        if f is not None:
            pass  # a name read before
        elif tok == "~":
            stack.append(None)
            continue
        elif tok == "and" or tok == "or":
            if tokens[i] != "{":
                raise FormulaSyntaxError(f"expected '{{' after {tok!r}", _offset(text, i))
            stack.append((Conj if tok == "and" else Disj, []))
            i += 1
            continue
        elif tok == "}" and stack and stack[-1] and not stack[-1][1]:
            f = stack.pop()[0](())  # a list closed before its first member
        elif tok == "~>":  # a `~`, then a '>' where a formula must start
            raise FormulaSyntaxError("unexpected '>'", _offset(text, i - 1) + 1)
        else:
            try:  # a new name: Atom checks it, once
                f = atoms[tok] = Atom(tok)
            except ValueError:
                message = f"unexpected {tok[0]!r}" if tok else "expected a formula"
                raise FormulaSyntaxError(message, _offset(text, i - 1)) from None
        while stack:  # f is complete: close every frame it completes
            if stack[-1] is None:
                stack.pop()
                f = Neg(f)
                continue
            cls, members = stack[-1]
            members.append(f)
            tok = tokens[i]
            i += 1
            if tok == ",":
                break
            if tok != "}":
                message = (f"expected ',' or '}}', got {tok[0]!r}" if tok
                           else "unterminated member list")
                raise FormulaSyntaxError(message, _offset(text, i - 1))
            stack.pop()
            f = cls(members)
        else:
            return f, i
