"""The planned tree builder against the per-subject reference builder.

`evaluation_tree` counts a tree's distinct nodes before it builds
anything, reusing each subtree's size under every history that agrees on
the entries the subtree read, then builds a tree that fits from the same
plans.  The reference below builds one subject at a time from the
construction rules of `_TreeEvaluator.expand`, whose subjects carry no
history: it re-attaches each child's history from the one bit the child
adds, and shares identical subjects, histories included, through a dict;
the evaluator's own memo is keyed by the history-free subject.  The two
must give equal DAGs, equal node counts and equal exports, and the
budget must refuse exactly the trees with more than `max_nodes` distinct
nodes, after reading no more levels than it needs.
"""

import random

import pytest

from conftest import (
    desc_ambiguity,
    desc_lottery3,
    desc_rule_chain,
    make_random_theory,
    make_wide_theory,
    probe_formulas,
)
from test_engine import random_history
from test_exports import MAX_EXPANDED, MAX_NODES, expanded_size, kb_files, ladder, queries
from ppl import (
    ALG_ORDER,
    Alg,
    Arrow,
    Atom,
    EvalNode,
    Neg,
    Rule,
    TreeBudgetError,
    evaluation_tree,
    tree_dot,
    validate_description,
)
from ppl import engine
from ppl.engine import (
    _aggregate,
    _normalize,
    _root_subject,
    _run,
    _TreeEvaluator,
    check_history,
    co_algorithm,
    tree_json_pieces,
)


class _TooLarge(Exception):
    pass


class ReferenceBuilder(_TreeEvaluator):
    """Materializes nodes one subject at a time, sharing subtrees with
    identical subjects; gives up once more than `limit` nodes are built."""

    def __init__(self, desc, limit: int):
        super().__init__(desc)
        self.limit = limit
        self.nodes: dict = {}

    def build(self, subject, h):
        nodes = self.nodes
        op, child_subjects = self.expand(subject, h)
        children = []
        for c, g in child_subjects:
            # `expand`'s children carry no history: a child's is its
            # parent's, plus the entry of the one bit it adds, if it adds one
            history = subject.history
            if g != h:
                rid = self.desc.rules[(g & ~h).bit_length() - 1 >> 1].rid
                history += ((c.alg, rid),)
            c = c._replace(history=history)
            node = nodes.get(c)
            if node is None:
                node = yield self.build(c, g)
            children.append(node)
        children = tuple(children)
        node = EvalNode(subject, op, _aggregate(op, children), children)
        nodes[subject] = node
        if len(nodes) > self.limit:
            raise _TooLarge
        return node


def reference_tree(desc, alg, x, history=(), limit=MAX_NODES):
    """(root, distinct nodes) of the reference tree, or None when it has
    more than `limit` distinct nodes."""
    alg, history = check_history(desc, alg, history)
    builder = ReferenceBuilder(desc, limit)
    try:
        root = _run(builder.build(_root_subject(alg, history, _normalize(x)),
                                  engine._history_bits(desc, history)))
    except _TooLarge:
        return None
    return root, len(builder.nodes)


def distinct(root) -> int:
    """Distinct node objects of a DAG."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for c in stack.pop().children:
            if id(c) not in seen:
                seen.add(id(c))
                stack.append(c)
    return len(seen)


def assert_same_dag(got, want):
    """Equal labels, ops, values and children, node for node, and the same
    sharing: walked in step on an explicit stack, so any depth compares."""
    pairs = {id(got): id(want)}
    stack = [(got, want)]
    while stack:
        a, b = stack.pop()
        assert (a.subject, a.op, a.value, len(a.children)) == (
            b.subject, b.op, b.value, len(b.children))
        for c, d in zip(a.children, b.children):
            if id(c) not in pairs:
                pairs[id(c)] = id(d)
                stack.append((c, d))
            assert pairs[id(c)] == id(d)
    assert len(set(pairs.values())) == len(pairs)


def compare(desc, alg, x, history=(), limit=MAX_NODES) -> bool:
    """Whether the tree fits `limit`, after checking that both builders
    agree on that and, when it fits, on the tree and its exports."""
    try:
        got = evaluation_tree(desc, alg, x, history, max_nodes=limit)
    except TreeBudgetError:
        got = None
    want = reference_tree(desc, alg, x, history, limit)
    assert (got is None) == (want is None), (alg, history, x)
    if got is None:
        return False
    root, nodes = want
    assert distinct(got) == distinct(root) == nodes
    assert_same_dag(got, root)
    if expanded_size(root) <= 5 * MAX_EXPANDED:
        assert got == root
        assert "".join(tree_json_pieces(got)) == "".join(tree_json_pieces(root))
        assert tree_dot(got) == tree_dot(root)
    return True


def desc_orders():
    """x: {b} => a, y: {a, c} => b, z: {} => c, and ~a against x: the
    entry set {x, y} is reached last by y (still to prove a and c) and
    last by x (still to prove b), whose subtrees differ."""
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    return validate_description([], [
        Rule("x", (b,), Arrow.DEFEASIBLE, a),
        Rule("y", (a, c), Arrow.DEFEASIBLE, b),
        Rule("z", (), Arrow.DEFEASIBLE, c),
        Rule("n", (), Arrow.DEFEASIBLE, Neg(a)),
    ])


def desc_team():
    """r's foe s is team-defeated by t1 and by t2: a foe with two routes
    besides the co-algorithm's."""
    f = Atom("f")
    return validate_description([], [
        Rule("r", (), Arrow.DEFEASIBLE, f),
        Rule("s", (), Arrow.DEFEASIBLE, Neg(f)),
        Rule("t1", (), Arrow.DEFEASIBLE, f),
        Rule("t2", (Atom("g"),), Arrow.DEFEASIBLE, f),
        Rule("g", (), Arrow.DEFEASIBLE, Atom("g")),
    ], [("t1", "s"), ("t2", "s")])


def shapes():
    """(name, description, queries) of chains, ladders and hand-made cases."""
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    return [("chain30", desc_rule_chain(30), [Atom("a29"), Neg(Atom("a29"))]),
            ("ladder2", ladder(2, False), [Atom("b2"), Neg(Atom("b2"))]),
            ("ladder2p", ladder(2, True), [Atom("b2"), Atom("a2")]),
            ("orders", desc_orders(), [[a, b], [a, b, c], a]),
            ("team", desc_team(), [Atom("f"), Neg(Atom("f"))])]


class TestAgainstTheReference:
    def test_kb_files_under_every_algorithm(self):
        fits = total = 0
        for _, desc in kb_files():
            for alg in ALG_ORDER:
                for x in queries(desc):
                    fits += compare(desc, alg, x)
                    total += 1
        assert fits > 800 and total > fits

    def test_random_theories_from_random_histories(self):
        rng = random.Random(20261019)
        fits = started = 0
        for _ in range(100):
            desc = make_random_theory(rng)
            probes = probe_formulas(desc)
            for alg in ALG_ORDER:
                history = random_history(rng, desc, alg)
                started += bool(history)
                xs = rng.sample(probes, min(3, len(probes)))
                xs += [rng.sample(probes, rng.randint(0, min(3, len(probes))))
                       for _ in range(2)]
                for x in xs:
                    fits += compare(desc, alg, x, history)
        assert fits > 3000 and started > 400

    def test_chain_ladders_and_hand_made_cases(self):
        for _, desc, xs in shapes():
            for alg in ALG_ORDER:
                for x in xs:
                    assert compare(desc, alg, x, limit=200_000)


def budget_cases():
    """(description, algorithm, query) trees with a few thousand nodes at most."""
    for path, desc in kb_files():
        for alg in ALG_ORDER:
            for x in (Atom("a"), Atom("b"), Atom("s1"), Neg(Atom("s1")), [Atom("a"), Atom("b")]):
                yield path.name, desc, alg, x
    for name, desc, xs in shapes():
        for alg in ALG_ORDER:
            for x in xs:
                yield name, desc, alg, x


def assert_exact_budget(desc, alg, x, history, d, root=None):
    """The tree of (alg, history, x), whose distinct nodes are d, builds at
    `max_nodes = d` (as root, when given) and is refused at d - 1."""
    got = evaluation_tree(desc, alg, x, history, max_nodes=d)
    assert distinct(got) == d and (root is None or got == root), (alg, history, x)
    with pytest.raises(TreeBudgetError, match=f"^more than {d - 1} distinct nodes$"):
        evaluation_tree(desc, alg, x, history, max_nodes=d - 1)


class TestExactBudget:
    def test_builds_at_its_count_and_refuses_below(self):
        checked = 0
        for name, desc, alg, x in budget_cases():
            try:
                root = evaluation_tree(desc, alg, x, max_nodes=5_000)
            except TreeBudgetError:
                continue
            assert_exact_budget(desc, alg, x, (), distinct(root), root)
            checked += 1
        assert checked > 240

    def test_wide_theories_from_random_histories(self):
        # a stored size is reused under any history agreeing on the entries
        # its subtree read; start histories, and rules reaching one state by
        # different paths, make histories differ in entries a state's own
        # level does not test but a level below it does
        rng = random.Random(20261020)
        checked = started = 0
        for _ in range(150):
            desc = make_wide_theory(rng)
            probes = probe_formulas(desc)
            for alg in ALG_ORDER:
                history = random_history(rng, desc, alg)
                x = rng.choice(probes)
                try:
                    root = evaluation_tree(desc, alg, x, history, max_nodes=5_000)
                except TreeBudgetError:
                    continue
                assert_exact_budget(desc, alg, x, history, distinct(root), root)
                checked += 1
                started += bool(history)
        assert checked > 950 and started > 700

    def test_mid_size_counts_equal_the_reference(self):
        # trees of a few hundred to ten thousand nodes, where most sizes are
        # reused, from the empty history and from one entry of a rule the
        # query uses
        s1, s2 = Atom("s1"), Atom("s2")
        cases = [(desc, Alg.PI, x, history)
                 for path, desc in kb_files() if path.name.startswith("lottery")
                 for x in (s1, Neg(s1), [s1, s2])
                 for history in ((), ((Alg.PI_P, desc.rules[-1].rid),))]
        for stages in (3, 4):
            for prio in (False, True):
                desc = ladder(stages, prio)
                for alg in (Alg.PI, Alg.BETA, Alg.PSI_P):
                    for history in ((), ((alg, "rb1"),), ((co_algorithm(alg), "rna1"),)):
                        cases.append((desc, alg, Atom(f"b{stages}"), history))
        sizes = set()
        for desc, alg, x, history in cases:
            root, d = reference_tree(desc, alg, x, history, limit=20_000)
            assert_exact_budget(desc, alg, x, history, d)
            sizes.add(d)
        assert max(sizes) > 9_000 and len(sizes) > 20

    def test_nodes_still_being_built_count(self):
        # the chain's beta tree holds a formula, a rule and a set node per
        # link below the top; all of them count, finished or not
        chain = desc_rule_chain(40)
        assert distinct(evaluation_tree(chain, Alg.BETA, Atom("a30"))) == 93
        for desc, x, d in ((chain, Atom("a30"), 93), (desc_ambiguity(), Atom("b"), 12)):
            with pytest.raises(TreeBudgetError):
                evaluation_tree(desc, Alg.BETA, x, max_nodes=d - 1)
            with pytest.raises(TreeBudgetError):
                evaluation_tree(desc, Alg.BETA, x, max_nodes=3)

    def test_exact_count_far_past_the_budget(self):
        # the levels stored per masked history, on a tree far larger than
        # the reference builder can check
        lottery3 = next(desc for path, desc in kb_files() if path.name == "lottery3.ppl")
        builder = engine._TreeBuilder(lottery3, 10**9)
        assert builder.count(Alg.BETA, 0, Neg(Atom("s1"))) == 1_157_094

    def test_refusal_stops_reading_levels(self, monkeypatch):
        # the count checks its running total before each entry, so a refusal
        # reads only the levels that bring the total past the budget
        calls = 0
        level = engine._TreeBuilder._level

        def counted(builder, *args):
            nonlocal calls
            calls += 1
            return level(builder, *args)

        monkeypatch.setattr(engine._TreeBuilder, "_level", counted)
        lotteries = {path.name: desc for path, desc in kb_files()
                     if path.name.startswith("lottery")}
        for name, most in (("lottery3.ppl", 1_350), ("lottery4.ppl", 3_002)):
            calls = 0
            with pytest.raises(TreeBudgetError, match="^more than 200000 distinct nodes$"):
                evaluation_tree(lotteries[name], Alg.BETA, Neg(Atom("s1")))
            assert 0 < calls <= most, (name, calls)
        calls = 0
        builder = engine._TreeBuilder(lotteries["lottery3.ppl"], 10**9)
        assert builder.count(Alg.BETA, 0, Neg(Atom("s1"))) == 1_157_094
        assert calls == 5_376


class TestRecords:
    def test_fields_cannot_be_assigned(self):
        root = evaluation_tree(desc_ambiguity(), Alg.BETA, Atom("b"))
        for record, name in ((root, "value"), (root, "children"), (root.subject, "kind"),
                             (root.subject, "history")):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_equal_by_value(self):
        first, second = (evaluation_tree(desc_ambiguity(), Alg.BETA, Atom("b")) for _ in "ab")
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first.subject == second.subject and hash(first.subject) == hash(second.subject)


class TestNodesBuilt:
    @pytest.fixture
    def built(self, monkeypatch):
        made = {"EvalNode": 0, "Subject": 0}

        def counted(cls):
            def make(*args, **kwargs):
                made[cls.__name__] += 1
                return cls(*args, **kwargs)
            return make

        monkeypatch.setattr(engine, "EvalNode", counted(engine.EvalNode))
        monkeypatch.setattr(engine, "Subject", counted(engine.Subject))
        return made

    def test_refusal_builds_nothing(self, built):
        with pytest.raises(TreeBudgetError, match="^more than 200000 distinct nodes$"):
            evaluation_tree(desc_lottery3(), Alg.BETA, Neg(Atom("s1")))
        assert built == {"EvalNode": 0, "Subject": 0}

    def test_one_node_per_distinct_subject(self, built):
        root = evaluation_tree(desc_ambiguity(), Alg.BETA, Atom("b"))
        assert built == {"EvalNode": 12, "Subject": 12} and distinct(root) == 12
