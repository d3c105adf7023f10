"""Tests of the benchmark's span tracer.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import sys
from pathlib import Path

import pytest

import tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def _span(span_id, parent, name, start, end, **counts):
    return (span_id, parent, 0, name, start, end, counts)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "chsh.run_chsh", 1.0, 9.0, clamped=0.5),
        _span(2, 1, "measurement.exact_rates", 2.0, 8.0),
        _span(3, 2, "elements.apply", 3.0, 4.0, terms_out=5),
        _span(4, 2, "elements.apply", 5.0, 6.0, terms_out=7),
        _span(5, 0, "measurement.run_montecarlo_coherent", 9.0, 9.5, trials=100, hits=4.0),
    ]
    m = tracer.layer_metrics(spans, pass_wall=11.0)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["chsh.self_s"] == pytest.approx(2.0)
    assert m["chsh.clamped"] == 0.5
    assert m["measurement.exact_rates.self_s"] == pytest.approx(4.0)
    assert m["elements.apply.s"] == pytest.approx(2.0)
    assert (m["elements.apply.calls"], m["elements.apply.terms_out"]) == (2, 12)
    assert m["measurement.mc.trials.coherent"] == 100
    assert m["measurement.mc.hit_ratio.coherent"] == pytest.approx(0.04)
    assert m["measurement.mc.ns_per_trial.coherent"] == pytest.approx(0.5 / 100 * 1e9)
    assert m["measurement.mc.calls.fock"] == 0
    assert m["trace.unaccounted_s"] == pytest.approx(1.0)


@pytest.mark.skipif(not (SRC / "cohsh").is_dir(), reason="needs the cohsh package beside perfbench")
def test_installed_wraps_where_callers_look_up_and_restores():
    sys.path.insert(0, str(SRC))
    from cohsh import chsh, measurement
    from cohsh.measurement import AnalyzerSetting, DetectorModel
    from cohsh.source import SourceSpec

    original = measurement.apply
    t = tracer.Tracer()
    with t.installed():
        assert measurement.apply is not original
        chsh.exact_rates(SourceSpec(0.05, 0.05), AnalyzerSetting(0.0, 0.3), DetectorModel())
    assert measurement.apply is original
    spans = t.take()
    (rates,) = [s for s in spans if s[3] == "measurement.exact_rates"]
    applies = [s for s in spans if s[3] == "elements.apply"]
    assert applies and all(s[1] == rates[0] for s in applies)
    assert all(s[6]["terms_out"] > 0 for s in applies)
    assert [s for s in spans if s[3] == "source.two_mode_input"][0][1] == rates[0]
