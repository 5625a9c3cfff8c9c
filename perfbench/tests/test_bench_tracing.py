"""Tests of the span tracer: self-time arithmetic and binding restoration."""

import importlib
import sys

from tracing import TARGETS, Tracer, aggregate, metric_names


def test_self_time_on_synthetic_tree():
    # a[0,10] -> b[1,4] -> c[2,3]
    #         -> b[5,9] -> a[6,7]   (a nested in itself through b)
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 6.0, 7.0, 3],
    ]
    m = aggregate(spans)
    assert m["a.calls"] == 2 and m["b.calls"] == 2 and m["c.calls"] == 1
    # Inclusive time counts the outermost "a" only.
    assert m["a.s"] == 10.0
    assert m["b.s"] == 7.0
    assert m["c.s"] == 1.0
    # Self time: a = (10 - 3 - 4) + 1, b = (3 - 1) + (4 - 1), c = 1.
    assert m["a.self_s"] == 4.0
    assert m["b.self_s"] == 5.0
    assert m["c.self_s"] == 1.0
    # Self times partition the root span.
    assert m["a.self_s"] + m["b.self_s"] + m["c.self_s"] == 10.0


def test_counters_are_reported_and_private_keys_dropped():
    m = aggregate([["f", 0.0, 1.0, -1]], {"f": {"hits": 3, "_keys": {1, 2}}})
    assert m["f.hits"] == 3
    assert not any(k.startswith("f._") for k in m)


def test_wrapper_records_nested_spans_with_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracer.wrap("outer", outer)
    assert wrapped_outer(1) == 4
    assert tracer.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]
    m = aggregate(tracer.spans)
    assert m["outer.self_s"] == 2.0 and m["inner.self_s"] == 1.0


def _bindings():
    """Every (module, name) in the package bound to a target function."""
    import toricweights

    originals = {}
    for _, module, attr, _ in TARGETS:
        home = importlib.import_module(f"toricweights.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            originals[(cls, meth)] = cls.__dict__[meth]
            continue
        fn = getattr(home, attr)
        for key, mod in list(sys.modules.items()):
            if key == "toricweights" or key.startswith("toricweights."):
                for name, value in vars(mod).items():
                    if value is fn:
                        originals[(mod, name)] = fn
    return toricweights, originals


def test_install_rebinds_call_sites_and_restore_puts_originals_back():
    toricweights, originals = _bindings()
    from toricweights import cli, triangulation, weights

    # The call-site bindings the package uses through `from ... import`.
    for owner, name in [(triangulation, "feasible_strict"), (weights, "extreme_point_indices"), (cli, "analyze")]:
        assert (owner, name) in originals
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, name), original in originals.items():
            assert owner.__dict__[name] is not original, (owner, name)
    finally:
        tracer.restore()
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original, (owner, name)


def test_traced_call_produces_layer_metrics():
    import toricweights

    tracer = Tracer()
    tracer.install()
    try:
        config = toricweights.lattice_points(toricweights.LatticePolytope.from_vertices([[0, 0], [0, 1], [1, 0], [1, 1]]))
        toricweights.analyze([[0, 0], [0, 1], [1, 0], [1, 1]])
    finally:
        tracer.restore()
    m = aggregate(tracer.spans, tracer.counters)
    assert len(config) == 4
    assert m["pipeline.analyze.calls"] == 1
    assert m["triangulation.enumerate_regular.calls"] == 1
    assert m["triangulation.is_regular.regular"] == 2
    assert m["weights.build.generators"] == 4
    assert m["lp.feasible_strict.calls"] >= 2
    assert m["polytope.from_vertices.calls"] == 2
    for name in metric_names():
        assert name.rsplit(".", 1)[0] in {t[0] for t in TARGETS}
