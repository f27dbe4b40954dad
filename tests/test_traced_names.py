"""The names `perfbench/tracer.py` wraps still exist in the package.

The benchmark's tracer finds its layers by name; a layer renamed away is
skipped there and reports zero calls, so this test reads the tracer's table
(it installs nothing) and checks every name against the package.
"""

import importlib
import importlib.util
import os

from fredkinlab import analysis, catalog

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_layer_resolves_to_a_callable():
    layers = _tracer().FUNCTION_LAYERS
    assert layers
    for name, module_name, path in layers:
        target = importlib.import_module(module_name)
        for attr in path.split("."):
            target = getattr(target, attr, None)
        assert callable(target), name


def test_traced_registries_have_their_wrapped_fields():
    assert catalog.CATALOG and analysis.PROBLEMS
    for info in catalog.CATALOG.values():
        assert callable(info.build), info.name
    for name, problem in analysis.PROBLEMS.items():
        assert callable(problem.evaluate) and callable(problem.residuals), name


def test_tracer_counts_each_measurement_of_a_run():
    # a measurement the run reached without the traced name would read 0 here
    from fredkinlab import circuits, engine
    from fredkinlab.fock import LogicalAmplitudes

    circuit = catalog.get_gate("cnot-pittman").build()
    originals = (engine.measure_and_feedforward, circuits.measure_and_feedforward, circuits.run)
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        tracer.active, tracer.op = True, 0
        res = circuits.run(circuit, LogicalAmplitudes.basis(2, 3))
    finally:
        tracer.active = False
        tracer.uninstall()
    assert (engine.measure_and_feedforward, circuits.measure_and_feedforward,
            circuits.run) == originals
    figures = tracer.layer_figures()
    assert figures["circuits.run.calls"] == 1
    assert figures["engine.measure_and_feedforward.calls"] == 2
    assert figures["engine.measure_and_feedforward.branches"] == len(res.branch_log) > 0
