"""Tests of the benchmark itself: family shapes, text round trip, closed-form
references against the evaluation tree, and the tracer's bookkeeping.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ppl import cli, engine, kb, kbtext  # noqa: E402
from ppl.engine import ALG_ORDER, Alg  # noqa: E402
from ppl.kb import Arrow  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402


def validated(family):
    doc = kbtext.parse_kb(kbtext.serialize_kb(family.doc))
    return doc, kb.validate_description(doc.facts, doc.rules, doc.priority)


def prover_verdict(desc, f):
    return "".join(engine.truth_value(desc, a, f).value for a in ALG_ORDER)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lottery_shape(n):
    fam = gen.lottery(n, random.Random(n))
    assert len(fam.doc.facts) == math.comb(n, 2) + 1
    assert len(fam.doc.rules) == 2 * n
    assert len({q.key for q in fam.queries}) == len(fam.queries)


@pytest.mark.parametrize("stages,prio", [(3, False), (4, True)])
def test_ladder_shape(stages, prio):
    fam = gen.ladder(stages, prio, random.Random(0))
    assert len(fam.doc.rules) == 6 * stages + 1
    assert sum(r.arrow is Arrow.WARNING for r in fam.doc.rules) == stages
    assert len(fam.doc.priority) == (2 * stages if prio else 0)
    assert not fam.doc.facts


def test_chain_shapes():
    chain = gen.rule_chain(40, random.Random(0), stride=10)
    assert len(chain.doc.rules) == 40 and not chain.doc.facts
    assert sorted({q.key[1] + 1 for q in chain.queries}) == [10, 20, 30, 40]
    impl = gen.implication_chain(7, random.Random(0))
    assert len(impl.doc.facts) == 7 and len(impl.doc.rules) == 1
    assert len(impl.queries) == 2 * 8 + 4 * math.comb(8, 2)


@pytest.mark.parametrize("make", [
    lambda rng: gen.lottery(4, rng),
    lambda rng: gen.implication_chain(5, rng),
    lambda rng: gen.rule_chain(30, rng),
    lambda rng: gen.ladder(3, True, rng),
])
def test_seeded_text_round_trip(make):
    first, again, other = make(random.Random(7)), make(random.Random(7)), make(random.Random(8))
    text = kbtext.serialize_kb(first.doc)
    assert text == kbtext.serialize_kb(again.doc)
    assert text != kbtext.serialize_kb(other.doc)
    doc = kbtext.parse_kb(text)
    assert (doc.facts, doc.rules, doc.priority) == (
        first.doc.facts, first.doc.rules, first.doc.priority)
    assert kbtext.serialize_kb(doc) == text


def test_implication_chain_closed_form():
    fam = gen.implication_chain(3, random.Random(1))
    _, desc = validated(fam)
    for q in fam.queries:
        want = reference.implication_chain_verdict(q.key)
        assert reference.tree_verdict(desc, q.formula) == want, q.key
        assert prover_verdict(desc, q.formula) == want, q.key


def test_rule_chain_closed_form():
    fam = gen.rule_chain(8, random.Random(2))
    _, desc = validated(fam)
    for q in fam.queries:
        assert reference.tree_verdict(desc, q.formula) == reference.chain_verdict(q.key)


@pytest.mark.parametrize("n", [3, 4])
def test_lottery_closed_forms(n):
    fam = gen.lottery(n, random.Random(n))
    doc, desc = validated(fam)
    pinned = 0
    for q in fam.queries:
        tree = reference.tree_verdict(desc, q.formula)
        assert reference.lottery_verdict(n, doc.facts, desc, q) == tree, q.key
        pinned += reference._lottery_pi(n, q.key) is not None
    assert pinned > 2 * n


def test_four_lottery_matches_acceptance_profile():
    fam = gen.lottery(4, random.Random(0))
    by_key = {q.key: q for q in fam.queries}
    pi = ALG_ORDER.index(Alg.PI)
    doc, desc = validated(fam)

    def at_pi(key):
        return reference.lottery_verdict(4, doc.facts, desc, by_key[key])[pi]

    assert at_pi(("lit", 0, True)) == "t"
    assert at_pi(("lit", 0, False)) == "f"
    assert at_pi(("or", (0, 1), (False, False))) == "u"
    assert at_pi(("or", (0, 1, 2), (False, False, False))) == "t"
    assert at_pi(("or", (0, 1, 2, 3), (False,) * 4)) == "t"


def test_interleave_keeps_shares_in_every_prefix():
    merged = workloads.interleave([list("aaaaaaaa"), list("bb")])
    assert sorted(merged) == sorted("aaaaaaaabb")
    assert merged[:5].count("b") == 1


def test_percentile_counts_samples_above():
    values = sorted(float(i) for i in range(100))
    assert run.percentile(values, 0.9) == (89.0, 10)
    assert run.percentile(values, 0.5) == (49.0, 50)


def test_scaled_times_follow_the_probe():
    result, wall, norm = run.scaled(time.sleep, 0.01)
    assert result is None and wall >= 0.01
    assert 0 < norm < 100 * wall


def test_sink_keeps_head_tail_and_size():
    sink = workloads.Sink()
    sink.write("x" * 10000)
    sink.write("end")
    assert sink.size == 10003
    assert len(sink.head) == sink.KEEP and sink.tail.endswith("xend")


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (cli.truth_value, engine.truth_value, kb.PlausibleDescription.supporters)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.truth_value is engine.truth_value
        assert cli.truth_value is not originals[0]
        assert engine.tree_json.__name__ == "tree_json"
        assert getattr(engine.tree_json, "__wrapped__", None) is None
        assert cli.tree_json.__wrapped__ is originals[0].__globals__["tree_json"]
    finally:
        tracer.uninstall()
    assert (cli.truth_value, engine.truth_value, kb.PlausibleDescription.supporters) == originals


def test_tracer_counts_self_time_and_spans(tmp_path):
    fam = gen.lottery(3, random.Random(3))
    tracer = Tracer()
    tracer.install()
    try:
        _, desc = validated(fam)
        verdicts = [prover_verdict(desc, q.formula) for q in fam.queries[:4]]
    finally:
        tracer.uninstall()
    m = tracer.metrics(1.0)
    assert [k for k, _ in METRICS] == list(m)
    assert m["kbtext.parse_kb.calls"] == 1
    assert m["engine.truth_value.calls"] == 4 * len(ALG_ORDER)
    assert m["engine.prove.calls"] == 2 * m["engine.truth_value.calls"]
    assert m["kb.build_axioms.clauses_out"] == 4
    assert 0 < m["kb.build_axioms.keep_ratio"] < 1
    assert 0 < m["kb.is_fact.miss_ratio"] < 1
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s"))
    assert len(verdicts) == 4

    calls = sum(tracer.calls)
    assert len(tracer.span_layer) == calls
    assert all(-1 <= p < i for i, p in enumerate(tracer.span_parent))
    path = tmp_path / "spans.bin"
    tracer.write_spans(str(path))
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        body = fh.read()
    assert header["count"] == calls
    assert len(body) == calls * sum(size for _, _, size in header["columns"])


def test_tracer_self_time_excludes_nested_calls():
    tracer = Tracer()
    outer_idx = tracer.names.index("engine.prove")
    inner_idx = tracer.names.index("kb.supporters")
    inner = tracer._wrap(lambda: time.sleep(0.02), inner_idx, "x")
    outer = tracer._wrap(lambda: inner() or time.sleep(0.01), outer_idx, "y")
    outer()
    assert 0.009 < tracer.self_s[outer_idx] < 0.018
    assert tracer.self_s[inner_idx] >= 0.02
    assert tracer.span_parent[1] == 0
