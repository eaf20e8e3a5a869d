"""Tests of the benchmark itself: seeded inputs, self time, tracer hygiene.

Run with `PYTHONPATH=src python -m pytest -q perfbench`.
"""

import sys
from array import array

import pytest
from mpmath import mp

import inputs
import spans


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first = inputs.make_inputs(workload, 3)
    assert first == inputs.make_inputs(workload, 3)
    assert first != inputs.make_inputs(workload, 4)


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # a and c share a name, so their self times add up
    key = array("i", [0, 1, 2, 1])
    start = array("d", [0.0, 1.0, 2.0, 5.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0])
    parent = array("i", [-1, 0, 1, 0])
    out = spans.self_times(key, start, end, parent, 3)
    assert out == [[1, 3.0], [2, 6.0], [1, 1.0]]
    # time the benchmark spent on its own work inside b is no one's
    out = spans.self_times(key, start, end, parent, 3, excluded={2: 0.25})
    assert out == [[1, 3.0], [2, 6.0], [1, 0.75]]


def test_variant_spans_count_toward_their_function():
    tracer = spans.Tracer()
    for name, begin, finish, up in (("vmn.verify_thm11", 0.0, 8.0, -1),
                                    ("theta.jacobi_theta.small_im", 1.0, 6.0, 0),
                                    ("theta.jacobi_theta", 6.5, 7.0, 0)):
        tracer.key.append(tracer._name_id(name))
        tracer.start.append(begin)
        tracer.end.append(finish)
        tracer.parent.append(up)
    stats = tracer.layer_stats()
    assert stats["vmn.verify_thm11.self_s"] == 2.5
    assert stats["theta.jacobi_theta.small_im.calls"] == 1
    assert stats["theta.jacobi_theta.small_im.self_s"] == 5.0
    assert stats["theta.jacobi_theta.calls"] == 2
    assert stats["theta.jacobi_theta.self_s"] == 5.5
    assert tracer.root_time() == 8.0


def _etamock_namespaces():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "etamock" or name.startswith("etamock.")}


def test_tracer_rebinds_and_restores_every_name():
    import etamock
    import etamock.eichler as eichler

    before = _etamock_namespaces()
    originals = {id(getattr(sys.modules["etamock." + layer.module],
                            layer.function)) for layer in spans.LAYERS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, namespace in _etamock_namespaces().items():
            leftover = [attr for attr, value in namespace.items()
                        if id(value) in originals]
            assert not leftover, "%s still holds %s" % (name, leftover)
        with mp.workdps(23):
            fresh = (7, mp.prec) not in eichler._gl_cache
            etamock.eichler.gauss_legendre_nodes(7)
            etamock.eichler.gauss_legendre_nodes(7)
            eichler.adaptive_panels(lambda x: x * x, [0, 1], mp.mpf(1e-10),
                                    npts=7, max_rounds=1)
    finally:
        tracer.uninstall()
    assert _etamock_namespaces().keys() == before.keys()
    for name, namespace in _etamock_namespaces().items():
        changed = [attr for attr, value in namespace.items()
                   if before[name].get(attr) is not value]
        assert not changed, "%s not restored: %s" % (name, changed)
    stats = tracer.layer_stats()
    # two direct calls plus one per panel of the two quadrature passes
    assert stats["eichler.gauss_legendre_nodes.calls"] == 2 + 1 + 2
    assert stats["eichler.gauss_legendre_nodes.misses"] == int(fresh)
    assert stats["eichler.adaptive_panels.calls"] == 1
    assert stats["eichler.adaptive_panels.evals"] == 7 * 3
