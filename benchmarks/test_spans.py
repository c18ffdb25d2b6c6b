"""Tests of the tracer and of the metric names the benchmark declares.

    python3 -m pytest benchmarks
"""

import json
import sys
import types
from pathlib import Path

import pytest

import spans
from workloads import WORKLOADS

DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(n):
        return list(range(n))

    def outer(n):
        return [mod.inner(n), mod.inner(2 * n)]

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


TARGETS = (
    spans.Target("fake_layers", "outer", "a.outer"),
    spans.Target("fake_layers", "inner", "b.inner", "b.items", len),
    spans.Target("fake_layers", "renamed", "c.renamed"),
)


def test_self_times_add_up_to_the_root(fake_module):
    tracer = spans.Tracer()
    originals = (fake_module.outer, fake_module.inner)
    with tracer.installed(TARGETS):
        tracer.span(spans.ROOT, lambda: fake_module.outer(5))()
    assert (fake_module.outer, fake_module.inner) == originals
    assert [s[0] for s in tracer.spans] == [spans.ROOT, "a.outer", "b.inner", "b.inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 1, 1]
    own = tracer.self_times_ns()
    assert all(value >= 0 for value in own.values())
    assert sum(own.values()) == tracer.root_ns()
    assert tracer.counts == {"b.items": 15}
    assert tracer.calls == {"a.outer": 1, "b.inner": 2}


def test_a_missing_name_is_reported_absent(fake_module):
    tracer = spans.Tracer()
    with tracer.installed(TARGETS):
        fake_module.outer(1)
    assert tracer.absent == ["c.renamed"]


def test_class_methods_are_wrapped_and_restored(monkeypatch):
    class Chain:
        @classmethod
        def make(cls, n):
            return cls(), n

    mod = types.ModuleType("fake_chain")
    mod.Chain = Chain
    monkeypatch.setitem(sys.modules, "fake_chain", mod)
    tracer = spans.Tracer()
    with tracer.installed((spans.Target("fake_chain", "Chain.make", "q.make"),)):
        made, n = mod.Chain.make(3)
    assert isinstance(made, Chain) and n == 3
    assert tracer.calls == {"q.make": 1}
    assert isinstance(vars(Chain)["make"], classmethod)


def test_every_target_resolves_in_the_program(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "src"))
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == []


def test_declared_metrics_are_the_emitted_ones():
    emitted = {(name, unit) for name, (_, unit) in
               spans.layer_metrics(spans.Tracer(), 0).items()}
    assert {(m["name"], m["unit"]) for m in DECLARED["per_layer"]} \
        == emitted | {("tracing.overhead_s", "s")}
    assert {(m["name"], m["unit"]) for m in DECLARED["end_to_end"]} \
        == {("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")}
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS)
