"""CHSH analysis: subtraction, correlations, S statistics, visibility fits, sweeps."""

import math

import numpy as np
import pytest

from cohsh import chsh, measurement
from cohsh.chsh import (
    _STREAM_CHSH,
    _STREAM_SWEEP,
    BELL_TEST_ANGLES,
    SubtractedCorrelation,
    _blocked_variants,
    _common_normalization,
    bell_angle_S,
    chsh_S,
    correlation_E,
    fit_visibility,
    measure_protocol,
    run_chsh,
    setting_quad,
    subtract_background,
    sweep_correlation,
)
from cohsh.measurement import (
    AnalyzerSetting,
    CoincidenceSemantics,
    CountTable,
    DetectorModel,
    coherent_outcome_table,
    exact_rates,
)
from cohsh.source import BlockedArm, SourceSpec

from oracle import oracle_singlet_E, oracle_unsubtracted_E

IDEAL = DetectorModel()
SQRT2 = math.sqrt(2.0)


def table(pp, pm, mp, mm, **meta) -> CountTable:
    return CountTable(pp, pm, mp, mm, **meta)


def test_subtract_background_trivial_cases():
    full = table(4.0, 3.0, 2.0, 1.0)
    zero = table(0.0, 0.0, 0.0, 0.0)
    out, clamped = subtract_background(full, zero, zero)
    assert np.array_equal(out.values(), full.values())
    assert clamped == 0.0

    half = table(2.0, 1.5, 1.0, 0.5)
    out, clamped = subtract_background(full, half, half)
    assert out.total == 0.0
    assert clamped == 0.0


def test_subtract_background_clamps_negatives():
    full = table(1.0, 1.0, 1.0, 1.0)
    big = table(2.0, 0.0, 0.0, 0.0)
    out, clamped = subtract_background(full, big, big)
    assert out.n_pp == 0.0
    assert clamped == pytest.approx(3.0)


def test_subtract_background_metadata_validation():
    full = table(1.0, 0.0, 0.0, 0.0, alpha=0.0, beta=0.1)
    other = table(0.0, 0.0, 0.0, 0.0, alpha=0.0, beta=0.2)
    match = table(0.0, 0.0, 0.0, 0.0, alpha=0.0, beta=0.1)
    with pytest.raises(ValueError):
        subtract_background(full, other, match)
    with pytest.raises(ValueError):
        subtract_background(
            table(1.0, 0.0, 0.0, 0.0, trials=100),
            table(0.0, 0.0, 0.0, 0.0, trials=200),
            table(0.0, 0.0, 0.0, 0.0, trials=100),
        )
    with pytest.raises(ValueError):
        subtract_background(
            table(1.0, 0.0, 0.0, 0.0, blocked=BlockedArm.BLOCK_A),
            table(0.0, 0.0, 0.0, 0.0, blocked=BlockedArm.BLOCK_A),
            table(0.0, 0.0, 0.0, 0.0, blocked=BlockedArm.BLOCK_B),
        )


def test_exact_subtraction_isolates_anticorrelation():
    corr, tables, clamped = measure_protocol(
        SourceSpec(0.05, 0.05), AnalyzerSetting(0.0, 0.0), IDEAL
    )
    assert corr.c_table.n_pp == pytest.approx(0.0, abs=1e-9)
    assert corr.c_table.n_mm == pytest.approx(0.0, abs=1e-9)
    assert corr.e_value == pytest.approx(-1.0, abs=1e-12)
    assert clamped < 1e-15
    assert len(tables) == 3


def test_blocked_rescaling_uses_detected_means():
    """Rescaled per-trial blocked tables share the full run's vacuum factor."""
    eff = 0.6
    detector = DetectorModel(efficiency=eff)
    spec = SourceSpec(0.1, 0.07)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    per_trial = tuple(
        CountTable.from_values(coherent_outcome_table(s, setting, detector), trials=1)
        for s in _blocked_variants(spec)
    )
    vacuum = math.exp(-eff * (spec.mu_a + spec.mu_b))
    rescaled_tables = _common_normalization(per_trial, spec, detector)
    for rescaled, rates in zip(rescaled_tables, exact_rates(spec, setting, detector)):
        expected = rates.values() * vacuum
        assert np.abs(rescaled.values() - expected).max() <= 1e-14 * expected.max()


def test_correlation_e_values():
    assert correlation_E(table(0.0, 0.5, 0.5, 0.0)).e_value == pytest.approx(-1.0)
    assert correlation_E(table(0.25, 0.25, 0.25, 0.25)).e_value == pytest.approx(0.0)
    with pytest.raises(ValueError):
        correlation_E(table(0.0, 0.0, 0.0, 0.0))


def test_correlation_e_exact_pipeline_at_pi_8():
    corr, _, _ = measure_protocol(
        SourceSpec(0.05, 0.05), AnalyzerSetting(math.pi / 8, 0.0), IDEAL
    )
    assert corr.e_value == pytest.approx(-math.cos(math.pi / 4), abs=1e-9)
    assert corr.std_error == 0.0


def test_correlation_e_multinomial_error():
    counted = table(100.0, 200.0, 250.0, 50.0, trials=10_000)
    corr = correlation_E(counted)
    e = (100 - 200 - 250 + 50) / 600
    assert corr.e_value == pytest.approx(e)
    assert corr.std_error == pytest.approx(math.sqrt((1 - e * e) / 600))


def _quad(es):
    return [SubtractedCorrelation(table(1, 1, 1, 1), e, 0.0) for e in es]


def test_chsh_s_from_quads():
    result = chsh_S(_quad([-1 / SQRT2, 1 / SQRT2, -1 / SQRT2, -1 / SQRT2]))
    assert result.s_value == pytest.approx(2 * SQRT2)
    assert chsh_S(_quad([0, 0, 0, 0])).s_value == 0.0
    eta = 0.964
    scaled = chsh_S(_quad([eta * e for e in (-1 / SQRT2, 1 / SQRT2, -1 / SQRT2, -1 / SQRT2)]))
    assert scaled.s_value == pytest.approx(2 * SQRT2 * eta)
    # error combines in quadrature
    errs = [SubtractedCorrelation(table(1, 1, 1, 1), 0.0, 0.1) for _ in range(4)]
    assert chsh_S(errs).s_error == pytest.approx(0.2)
    with pytest.raises(ValueError):
        chsh_S(errs[:3])


def test_bell_angle_form():
    e_theta = SubtractedCorrelation(table(1, 1, 1, 1), -1 / SQRT2, 0.01)
    e_3theta = SubtractedCorrelation(table(1, 1, 1, 1), 1 / SQRT2, 0.02)
    result = bell_angle_S(e_theta, e_3theta)
    assert result.s_value == pytest.approx(2 * SQRT2)
    assert result.s_error == pytest.approx(math.sqrt(9 * 0.01**2 + 0.02**2))
    assert bell_angle_S(
        SubtractedCorrelation(table(1, 1, 1, 1), 0.0, 0.0),
        SubtractedCorrelation(table(1, 1, 1, 1), 0.0, 0.0),
    ).s_value == 0.0
    # recomputable from the stored e_values
    e = result.e_values
    assert abs(e[0] - e[1] + e[2] + e[3]) == pytest.approx(result.s_value, abs=1e-12)


def test_bell_angle_matches_quad_form_exactly():
    spec = SourceSpec(0.05, 0.05)
    run = run_chsh(spec, IDEAL)
    theta = math.pi / 8
    e_t, _, _ = measure_protocol(spec, AnalyzerSetting(theta, 0.0), IDEAL)
    e_3t, _, _ = measure_protocol(spec, AnalyzerSetting(3 * theta, 0.0), IDEAL)
    assert abs(bell_angle_S(e_t, e_3t).s_value - run.result.s_value) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="open bug: exact threshold tables are vacuum-relative per configuration, so the "
    "exact subtraction rescales blocked runs by exp(-m), while _common_normalization passes "
    "threshold Monte Carlo counts through unscaled; the two modes disagree by ~31 sigma",
)
def test_exact_threshold_matches_monte_carlo():
    spec = SourceSpec(0.1, 0.1, n_max=6)
    detector = DetectorModel(visibility_eta=0.9, semantics=CoincidenceSemantics.THRESHOLD)
    exact = run_chsh(spec, detector).result
    sampled = run_chsh(
        spec, detector, mode="mc_coherent", trials=20_000_000, repetitions=4, seed=11
    ).result
    assert abs(exact.s_value - sampled.s_value) <= 5.0 * sampled.s_error


def test_run_chsh_exact_values():
    run = run_chsh(SourceSpec(0.05, 0.05), IDEAL)
    assert run.result.s_value == pytest.approx(2 * SQRT2, abs=1e-9)
    assert run.result.e_values[0] == pytest.approx(-1 / SQRT2, abs=1e-9)
    assert run.result.e_values[1] == pytest.approx(+1 / SQRT2, abs=1e-9)
    faded = run_chsh(SourceSpec(0.05, 0.05), DetectorModel(visibility_eta=0.964))
    assert faded.result.s_value == pytest.approx(2 * SQRT2 * 0.964, abs=1e-9)


def test_exact_e_matches_oracle_and_is_mu_independent():
    for alpha, beta in ((0.0, 0.3), (0.7, 0.1), (1.2, 2.2)):
        values = []
        for mu in (0.02, 0.05, 0.1):
            corr, _, _ = measure_protocol(
                SourceSpec(mu, mu), AnalyzerSetting(alpha, beta), IDEAL
            )
            assert corr.e_value == pytest.approx(oracle_singlet_E(alpha, beta), abs=1e-9)
            values.append(corr.e_value)
        assert max(values) - min(values) < 1e-6


def test_unsubtracted_correlation_matches_oracle():
    spec = SourceSpec(0.05, 0.05)
    for alpha, beta in ((0.0, math.pi / 8), (math.pi / 4, math.pi / 8), (0.9, 0.3)):
        _, tables, _ = measure_protocol(spec, AnalyzerSetting(alpha, beta), IDEAL)
        raw = correlation_E(tables[0]).e_value
        assert raw == pytest.approx(oracle_unsubtracted_E(alpha, beta), abs=1e-12)


def test_fit_visibility_recovers_eta():
    thetas = np.linspace(0.0, math.pi, 17)
    for eta in (1.0, 0.964, 0.8):
        points = [(t, -eta * math.cos(2 * t), 0.0) for t in thetas]
        fit = fit_visibility(points)
        assert fit.eta == pytest.approx(eta, abs=1e-9)
        assert fit.eta_error == pytest.approx(0.0, abs=1e-9)


def test_fit_visibility_validation():
    with pytest.raises(ValueError):
        fit_visibility([(0.0, -1.0, 0.0), (0.1, -0.9, 0.0)])
    with pytest.raises(ValueError):
        fit_visibility([(0.0, -1.0, 0.0), (0.1, -0.9, 0.0), (0.2, -0.9, 0.0)])
    # every point at a zero of cos(2 theta): degenerate design
    quarter = math.pi / 4
    with pytest.raises(ValueError):
        fit_visibility(
            [(quarter, 0.0, 0.0), (3 * quarter, 0.0, 0.0), (5 * quarter, 0.0, 0.0)]
        )


def test_fit_visibility_noisy_coverage():
    rng = np.random.default_rng(31)
    thetas = np.linspace(0.0, math.pi, 17)
    eta, sigma = 0.964, 0.02
    hits = 0
    for _ in range(100):
        points = [
            (t, -eta * math.cos(2 * t) + sigma * rng.normal(), sigma) for t in thetas
        ]
        fit = fit_visibility(points)
        hits += abs(fit.eta - eta) <= 3.0 * fit.eta_error
    assert hits >= 95


def test_sweep_exact_follows_singlet_law():
    thetas = np.linspace(0.0, math.pi, 9)
    points = sweep_correlation(SourceSpec(0.05, 0.05), IDEAL, thetas)
    for p in points:
        assert p.e_mean == pytest.approx(-math.cos(2 * p.theta), abs=1e-9)
        assert p.e_std == 0.0
        assert p.repetitions == 1


def test_sweep_montecarlo_repetition_statistics():
    thetas = (0.0, math.pi / 4, math.pi / 2)
    points = sweep_correlation(
        SourceSpec(0.05, 0.05),
        IDEAL,
        thetas,
        mode="mc_coherent",
        trials=200_000,
        repetitions=3,
        seed=77,
    )
    for p in points:
        assert p.repetitions == 3
        assert p.trials == 200_000
        assert p.e_std > 0.0
        assert abs(p.e_mean + math.cos(2 * p.theta)) < 0.15
    again = sweep_correlation(
        SourceSpec(0.05, 0.05),
        IDEAL,
        thetas,
        mode="mc_coherent",
        trials=200_000,
        repetitions=3,
        seed=77,
    )
    assert again == points


def test_tsirelson_never_exceeded():
    spec = SourceSpec(0.05, 0.05)
    rng = np.random.default_rng(55)
    best = 0.0
    quads = [BELL_TEST_ANGLES] + [tuple(rng.uniform(0, math.pi, 4)) for _ in range(12)]
    for quad in quads:
        s = run_chsh(spec, IDEAL, quad).result.s_value
        best = max(best, s)
        assert s <= 2 * SQRT2 + 1e-9
    assert best == pytest.approx(2 * SQRT2, abs=1e-9)


def test_linear_visibility_response_over_sweep():
    thetas = np.linspace(0.0, math.pi, 9)
    eta = 0.7
    ideal = sweep_correlation(SourceSpec(0.05, 0.05), IDEAL, thetas)
    faded = sweep_correlation(
        SourceSpec(0.05, 0.05), DetectorModel(visibility_eta=eta), thetas
    )
    for p_ideal, p_faded in zip(ideal, faded):
        assert p_faded.e_mean == pytest.approx(eta * p_ideal.e_mean, abs=1e-9)


def test_raw_versus_subtracted_ordering():
    spec = SourceSpec(0.05, 0.05)
    subtracted = run_chsh(spec, IDEAL).result.s_value
    raws = []
    for setting in setting_quad(*BELL_TEST_ANGLES):
        _, tables, _ = measure_protocol(spec, setting, IDEAL)
        raws.append(correlation_E(tables[0]))
    s_raw = chsh_S(raws).s_value
    assert s_raw < subtracted
    assert s_raw == pytest.approx(SQRT2 / 2.0, abs=1e-9)


def test_measure_protocol_validation():
    spec = SourceSpec(0.05, 0.05)
    with pytest.raises(ValueError):
        measure_protocol(spec, AnalyzerSetting(0, 0), IDEAL, mode="nonsense")
    with pytest.raises(ValueError):
        measure_protocol(spec, AnalyzerSetting(0, 0), IDEAL, mode="mc_fock", trials=0, seed=1)
    with pytest.raises(ValueError):
        measure_protocol(spec, AnalyzerSetting(0, 0), IDEAL, mode="mc_fock", trials=10)
    blocked = SourceSpec(0.05, 0.05, blocked=BlockedArm.BLOCK_A)
    with pytest.raises(ValueError):
        measure_protocol(blocked, AnalyzerSetting(0, 0), IDEAL)


def _call_log(monkeypatch, module, name):
    """Arguments of every call made through ``module.name``."""
    calls = []
    original = getattr(module, name)

    def logged(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)
    return calls


def test_exact_protocol_builds_one_mixture_and_one_transform(monkeypatch):
    """Work-count guard: an exact protocol run computes its three configurations together."""
    logs = [
        _call_log(monkeypatch, chsh, "exact_rates"),
        _call_log(monkeypatch, measurement, "two_mode_input"),
        _call_log(monkeypatch, measurement, "setup_transform"),
    ]
    for semantics in CoincidenceSemantics:
        for log in logs:
            log.clear()
        detector = DetectorModel(semantics=semantics)
        measure_protocol(SourceSpec(0.05, 0.07, n_max=6), AnalyzerSetting(0.3, 0.1), detector)
        assert [len(log) for log in logs] == [1, 1, 1]


def test_exact_drivers_call_exact_rates_once_per_setting(monkeypatch):
    """Work-count guard: four settings for run_chsh, one per sweep point."""
    rates = _call_log(monkeypatch, chsh, "exact_rates")
    spec = SourceSpec(0.05, 0.05)
    run_chsh(spec, IDEAL, repetitions=3)
    assert len(rates) == 4
    rates.clear()
    sweep_correlation(spec, IDEAL, np.linspace(0.0, math.pi, 17), repetitions=3)
    assert len(rates) == 17


def test_repetitions_must_be_positive():
    spec = SourceSpec(0.05, 0.05)
    mc = dict(mode="mc_coherent", trials=1000, seed=3)
    for kwargs in ({}, mc):
        with pytest.raises(ValueError, match="repetitions"):
            run_chsh(spec, IDEAL, repetitions=0, **kwargs)
        with pytest.raises(ValueError, match="repetitions"):
            sweep_correlation(spec, IDEAL, (0.0, 1.0), repetitions=0, **kwargs)


def test_single_repetition_reports_multinomial_error():
    spec = SourceSpec(0.05, 0.05)
    theta, trials, seed = math.pi / 8, 200_000, 19
    (point,) = sweep_correlation(
        spec, IDEAL, (theta,), mode="mc_coherent", trials=trials, repetitions=1, seed=seed
    )
    corr, _, _ = measure_protocol(
        spec,
        AnalyzerSetting(theta, 0.0),
        IDEAL,
        "mc_coherent",
        trials,
        seed,
        cell_key=(_STREAM_SWEEP, 0, 0),
    )
    assert point.e_mean == corr.e_value
    expected = math.sqrt((1.0 - corr.e_value**2) / corr.c_table.total)
    assert point.e_std == pytest.approx(expected, rel=1e-12)
    assert point.e_std > 0.0
    # run_chsh follows the same convention
    run = run_chsh(spec, IDEAL, mode="mc_coherent", trials=trials, repetitions=1, seed=seed)
    for s_idx, setting in enumerate(setting_quad(*BELL_TEST_ANGLES)):
        corr, _, _ = measure_protocol(
            spec, setting, IDEAL, "mc_coherent", trials, seed, cell_key=(_STREAM_CHSH, s_idx, 0)
        )
        assert run.result.e_errors[s_idx] == corr.std_error > 0.0
