"""Seeded generators for the benchmark's knowledge-base families.

Each generator takes a ``random.Random`` and returns a ``Family``: the KB
document, the queries to ask it, and the facts a reference needs.  The seed
shuffles rule declaration order and atom / rule naming; it never changes a
family's shape, so a query's verdict depends only on its ``shape`` key.

Families:

* lottery(n): exactly one of n tickets wins (C(n,2)+1 facts); each ticket
  usually loses and each (n-1)-ticket disjunction usually holds (2n rules).
* implication_chain(L): facts p_i -> p_{i+1} for L links, root {} => p0.
* rule_chain(n): defeasible chain {} => a0, {a_{i-1}} => a_i, no facts.
* ladder(k, prio): k ambiguity stages of 6 rules each after a root rule,
  optionally with priorities that let team defeat decide each stage.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from ppl.formulas import Atom, Conj, Disj, Formula, Neg
from ppl.kb import Arrow, Rule
from ppl.kbtext import KbDocument


@dataclass
class Query:
    """One formula to ask; ``key`` names it independently of the naming seed."""

    formula: Formula
    key: tuple


@dataclass
class Family:
    name: str
    shape: tuple
    doc: KbDocument
    queries: list[Query] = field(default_factory=list)


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """The identifiers prefix0..prefix{count-1}, in seeded order.

    The pool of names is fixed, so the seed changes which atom or rule gets
    which name but not the strings hashed: with a fixed hash seed, a
    symmetric family then iterates its sets in the same order every run.
    """
    digits = list(range(count))
    rng.shuffle(digits)
    return [f"{prefix}{d}" for d in digits]


def _rule(rid, antecedents, consequent, arrow=Arrow.DEFEASIBLE) -> Rule:
    return Rule(rid, tuple(antecedents), arrow, consequent)


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def lottery(n: int, rng: random.Random) -> Family:
    s = [Atom(a) for a in _names(rng, "s", n)]
    rid = _names(rng, "r", 2 * n)
    facts = [Disj(s)] + [Neg(Conj(p)) for p in itertools.combinations(s, 2)]
    rules = [_rule(rid[i], (), Neg(s[i])) for i in range(n)]
    rules += [_rule(rid[n + i], (), Disj(s[:i] + s[i + 1:])) for i in range(n)]
    doc = KbDocument(_shuffled(rng, facts), _shuffled(rng, rules), [])
    queries = []
    for i in range(n):
        queries.append(Query(s[i], ("lit", i, False)))
        queries.append(Query(Neg(s[i]), ("lit", i, True)))
    # Every disjunction and conjunction of two or more tickets, and every
    # two-literal clause and dual clause with a negated ticket.
    for k in range(2, n + 1):
        for idx in itertools.combinations(range(n), k):
            patterns = itertools.product((False, True), repeat=2) if k == 2 else [(False,) * k]
            for signs in patterns:
                ls = [Neg(s[i]) if neg else s[i] for i, neg in zip(idx, signs)]
                queries.append(Query(Disj(ls), ("or", idx, signs)))
                queries.append(Query(Conj(ls), ("and", idx, signs)))
    return Family("lottery", ("lottery", n), doc, queries)


def implication_chain(links: int, rng: random.Random) -> Family:
    p = [Atom(a) for a in _names(rng, "p", links + 1)]
    rid = _names(rng, "r", 1)
    facts = [Disj([Neg(p[i]), p[i + 1]]) for i in range(links)]
    rules = [_rule(rid[0], (), p[0])]
    doc = KbDocument(_shuffled(rng, facts), rules, [])
    queries = []
    for i in range(links + 1):
        queries.append(Query(p[i], ("lit", i, False)))
        queries.append(Query(Neg(p[i]), ("lit", i, True)))
    for i, j in itertools.combinations(range(links + 1), 2):
        for si, sj in itertools.product((False, True), repeat=2):
            f = Disj([Neg(p[i]) if si else p[i], Neg(p[j]) if sj else p[j]])
            queries.append(Query(f, ("or", i, si, j, sj)))
    return Family("implication_chain", ("implication_chain", links), doc, queries)


def rule_chain(n: int, rng: random.Random, stride: int = 1) -> Family:
    """Chain of n defeasible rules; queries a_d and ~a_d every `stride` depths and at the top."""
    a = [Atom(x) for x in _names(rng, "a", n)]
    rid = _names(rng, "r", n)
    rules = [_rule(rid[0], (), a[0])]
    rules += [_rule(rid[i], (a[i - 1],), a[i]) for i in range(1, n)]
    doc = KbDocument([], _shuffled(rng, rules), [])
    depths = sorted(set(range(stride - 1, n, stride)) | {n - 1})
    queries = []
    for d in depths:
        queries.append(Query(a[d], ("lit", d, False)))
        queries.append(Query(Neg(a[d]), ("lit", d, True)))
    return Family("rule_chain", ("rule_chain", n), doc, queries)


def ladder(stages: int, prio: bool, rng: random.Random) -> Family:
    """Ambiguity ladder of `stages` stages after the root rule {} => b0.

    Stage i has equal evidence for a_i and ~a_i from b_{i-1}, two supporters
    of b_i from b_{i-1} (rb, tb), and two attackers of b_i through a_i: the
    defeasible ranb and the warning rule w.  Without priorities only the
    co-algorithm can disable the attackers, so beta proves b_i and pi does
    not (ambiguity blocking versus propagation).  With priorities tb > ranb
    and rb > w, the attackers are team-defeated and pi proves b_i too.
    """
    names = _names(rng, "x", 2 * stages + 1)
    b = [Atom(names[0])]
    a = [None]
    for i in range(1, stages + 1):
        a.append(Atom(names[2 * i - 1]))
        b.append(Atom(names[2 * i]))
    rid = _names(rng, "r", 6 * stages + 1)
    rules = [_rule(rid[0], (), b[0])]
    priority = []
    for i in range(1, stages + 1):
        ra, rna, rb, ranb, tb, w = rid[6 * i - 5:6 * i + 1]
        rules += [
            _rule(ra, (b[i - 1],), a[i]),
            _rule(rna, (b[i - 1],), Neg(a[i])),
            _rule(rb, (b[i - 1],), b[i]),
            _rule(ranb, (a[i],), Neg(b[i])),
            _rule(tb, (b[i - 1],), b[i]),
            _rule(w, (a[i],), Neg(b[i]), Arrow.WARNING),
        ]
        if prio:
            priority += [(tb, ranb), (rb, w)]
    doc = KbDocument([], _shuffled(rng, rules), _shuffled(rng, priority))
    queries = []
    for i in range(1, stages + 1):
        for x, tag in ((a[i], "a"), (b[i], "b")):
            queries.append(Query(x, (tag, i, False)))
            queries.append(Query(Neg(x), (tag, i, True)))
    return Family("ladder", ("ladder", stages, prio), doc, queries)
