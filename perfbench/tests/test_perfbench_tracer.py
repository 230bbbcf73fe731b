import sys

import pytest

from perfbench.layers import make_targets
from perfbench.tracer import Span, Tracer, self_times_ns
from perfbench.workloads import Checker, digest


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0, 100, -1, "run"),
        Span("a", 10, 30, 0, "run"),
        Span("b", 20, 50, 0, "run"),  # overlaps a: together they cover 10..50
        Span("a.child", 12, 18, 1, "run"),
        Span("late", 90, 120, 0, "run"),  # clipped to the parent's end
    ]
    assert self_times_ns(spans) == [100 - 40 - 10, 20 - 6, 30, 6, 30]


def _setfusion_attributes():
    import setfusion  # noqa: F401

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "setfusion" or name.startswith("setfusion."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_wrappers_record_spans_and_are_restored():
    from setfusion import data, hypernet, rng

    before = _setfusion_attributes()
    tracer = Tracer()
    with tracer.installed("setfusion", make_targets()):
        assert data.generate is not before[("setfusion.data", "generate")]
        schema = data.DatasetSchema(2, ["a", "b"], 4, 2)
        data.generate(schema, 4, seed=0)
        net = hypernet.HyperNetwork(2, 4, 3, rng.SeededRng(0))
        net.conditional_linear(hypernet.Tensor([1.0, 2.0, 3.0, 4.0]), 1)
    assert [s.name for s in tracer.spans] == ["data.generate", "hypernet.generate_weights"]
    after = _setfusion_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_are_restored_when_the_traced_code_raises():
    from setfusion import trainer

    original = trainer.run_full
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed("setfusion", make_targets()):
            assert trainer.run_full is not original
            1 / 0
    assert trainer.run_full is original


def test_checker_counts_mismatch_nonfinite_and_exceptions():
    check = Checker(digest({"x": 1}))
    check.attempt("same", lambda: {"x": 1}, record=lambda out: out)
    check.attempt("different", lambda: {"x": 2}, record=lambda out: out)
    check.attempt("nan", lambda: {"x": float("nan")}, record=lambda out: out)
    check.attempt("raises", lambda: 1 / 0)
    assert (check.attempted, check.failed) == (4, 3)
