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
    bell_angle_S,
    chsh_S,
    correlation_E,
    fit_visibility,
    run_chsh,
    setting_quad,
    subtract_background,
    sweep_correlation,
)
from cohsh.measurement import (
    AnalyzerSetting,
    CoincidenceSemantics,
    DetectorModel,
    coherent_outcome_table,
    derive_rng,
    exact_rates,
    protocol,
)
from cohsh.source import BlockedArm, SourceSpec

from oracle import oracle_singlet_E, oracle_unsubtracted_E

IDEAL = DetectorModel()
SQRT2 = math.sqrt(2.0)


def table(pp, pm, mp, mm) -> np.ndarray:
    return np.array([pp, pm, mp, mm], dtype=float)


def stack(*tables: np.ndarray) -> np.ndarray:
    """``tables`` as subtract_background takes them, one table per row."""
    return np.array(tables)


def correlation_of(cells: np.ndarray, trials: int = 0) -> SubtractedCorrelation:
    """correlation_E of one table, as the correlation chsh_S reads."""
    e, error = correlation_E(cells, trials)
    return SubtractedCorrelation(float(e), float(error))


def exact_protocol(spec, setting, detector=IDEAL):
    """One exact protocol run at one setting: its correlation, raw tables and clamped weight."""
    tables, _, clamped, e, error = _cell(spec, setting, detector, "exact", 0, None, ())
    return SubtractedCorrelation(e, error), tables, clamped


#: The protocol runs with weights (1, -1, -1): plain subtraction of the blocked tables.
UNIT_RUNS = protocol(SourceSpec(0.05, 0.05), DetectorModel(semantics="threshold"))


def test_subtract_background_trivial_cases():
    full = table(4.0, 3.0, 2.0, 1.0)
    zero = table(0.0, 0.0, 0.0, 0.0)
    out, clamped = subtract_background(stack(full, zero, zero), UNIT_RUNS)
    assert np.array_equal(out, full)
    assert clamped == 0.0

    half = table(2.0, 1.5, 1.0, 0.5)
    out, clamped = subtract_background(stack(full, half, half), UNIT_RUNS)
    assert out.sum() == 0.0
    assert clamped == 0.0


def test_subtract_background_clamps_negatives():
    full = table(1.0, 1.0, 1.0, 1.0)
    big = table(2.0, 0.0, 0.0, 0.0)
    out, clamped = subtract_background(stack(full, big, big), UNIT_RUNS)
    assert out[0] == 0.0
    assert clamped == pytest.approx(3.0)


def test_subtract_background_needs_one_table_per_run():
    zero = table(0.0, 0.0, 0.0, 0.0)
    for tables in ((zero, zero), (zero, zero, zero, zero)):
        with pytest.raises(ValueError, match=f"{len(tables)} tables for a protocol of 3 runs"):
            subtract_background(stack(*tables), UNIT_RUNS)


def test_array_functions_equal_per_table_calls():
    """A (setting, repetition, configuration, cell) stack equals the per-table calls, bit for bit."""
    raw = np.random.default_rng(7).integers(0, 50, size=(2, 3, 3, 4)).astype(float)
    raw[:, :, 0] += 60.0  # full runs large enough for a positive total, not for every cell
    c, clamped = subtract_background(raw, UNIT_RUNS)
    assert c.shape == (2, 3, 4) and clamped.shape == (2, 3)
    assert clamped.sum() > 0.0
    for trials in (0, 1000):
        e, error = correlation_E(c, trials)
        for s in range(2):
            for r in range(3):
                c_one, clamped_one = subtract_background(raw[s, r], UNIT_RUNS)
                assert c_one.tolist() == c[s, r].tolist()
                assert float(clamped_one) == clamped[s, r]
                e_one, error_one = correlation_E(c_one, trials)
                assert (float(e_one), float(error_one)) == (e[s, r], error[s, r])


def test_exact_subtraction_isolates_anticorrelation():
    spec = SourceSpec(0.05, 0.05)
    corr, tables, clamped = exact_protocol(spec, AnalyzerSetting(0.0, 0.0))
    c, _ = subtract_background(tables, protocol(spec, IDEAL))
    assert c[0] == pytest.approx(0.0, abs=1e-9)
    assert c[3] == pytest.approx(0.0, abs=1e-9)
    assert corr.e_value == pytest.approx(-1.0, abs=1e-12)
    assert clamped < 1e-15
    assert len(tables) == 3


def test_blocked_rescaling_uses_detected_means():
    """A lossy run weights its blocked tables as the lossless run at its detected means.

    Exact tables and per-trial coherent tables enter with the same weights.
    """
    eff = 0.6
    lossy = DetectorModel(efficiency=eff)
    spec = SourceSpec(0.1, 0.07)
    detected = SourceSpec(eff * spec.mu_a, eff * spec.mu_b)
    setting = AnalyzerSetting(0.0, math.pi / 8)

    def normalized(spec, detector):
        runs = protocol(spec, detector)
        return (
            [w * coherent_outcome_table(s, setting, detector) for s, w in runs],
            [w * t for t, (_, w) in zip(exact_rates(spec, (setting,), detector)[0], runs)],
        )

    lossy_tables, lossless_tables = normalized(spec, lossy), normalized(detected, IDEAL)
    for lossy_run, lossless_run in zip(lossy_tables, lossless_tables):
        for ours, expected in zip(lossy_run, lossless_run):
            assert np.abs(ours - expected).max() <= 1e-14 * np.abs(expected).max()
    for coherent, expected in zip(*lossy_tables):
        assert np.abs(coherent - expected).max() <= 1e-14 * np.abs(expected).max()


def test_correlation_e_values():
    assert correlation_of(table(0.0, 0.5, 0.5, 0.0)).e_value == pytest.approx(-1.0)
    assert correlation_of(table(0.25, 0.25, 0.25, 0.25)).e_value == pytest.approx(0.0)
    with pytest.raises(ValueError):
        correlation_of(table(0.0, 0.0, 0.0, 0.0))


def test_correlation_e_exact_pipeline_at_pi_8():
    corr, _, _ = exact_protocol(SourceSpec(0.05, 0.05), AnalyzerSetting(math.pi / 8, 0.0))
    assert corr.e_value == pytest.approx(-math.cos(math.pi / 4), abs=1e-9)
    assert corr.std_error == 0.0


def test_correlation_e_multinomial_error():
    corr = correlation_of(table(100.0, 200.0, 250.0, 50.0), trials=10_000)
    e = (100 - 200 - 250 + 50) / 600
    assert corr.e_value == pytest.approx(e)
    assert corr.std_error == pytest.approx(math.sqrt((1 - e * e) / 600))


def _quad(es):
    return [SubtractedCorrelation(e, 0.0) for e in es]


def test_chsh_s_from_quads():
    result = chsh_S(_quad([-1 / SQRT2, 1 / SQRT2, -1 / SQRT2, -1 / SQRT2]))
    assert result.s_value == pytest.approx(2 * SQRT2)
    assert chsh_S(_quad([0, 0, 0, 0])).s_value == 0.0
    eta = 0.964
    scaled = chsh_S(_quad([eta * e for e in (-1 / SQRT2, 1 / SQRT2, -1 / SQRT2, -1 / SQRT2)]))
    assert scaled.s_value == pytest.approx(2 * SQRT2 * eta)
    # error combines in quadrature
    errs = [SubtractedCorrelation(0.0, 0.1) for _ in range(4)]
    assert chsh_S(errs).s_error == pytest.approx(0.2)
    with pytest.raises(ValueError):
        chsh_S(errs[:3])


def test_bell_angle_form():
    e_theta = SubtractedCorrelation(-1 / SQRT2, 0.01)
    e_3theta = SubtractedCorrelation(1 / SQRT2, 0.02)
    result = bell_angle_S(e_theta, e_3theta)
    assert result.s_value == pytest.approx(2 * SQRT2)
    assert result.s_error == pytest.approx(math.sqrt(9 * 0.01**2 + 0.02**2))
    zero = SubtractedCorrelation(0.0, 0.0)
    assert bell_angle_S(zero, zero).s_value == 0.0
    # recomputable from the stored e_values
    e = result.e_values
    assert abs(e[0] - e[1] + e[2] + e[3]) == pytest.approx(result.s_value, abs=1e-12)


def test_bell_angle_matches_quad_form_exactly():
    spec = SourceSpec(0.05, 0.05)
    run = run_chsh(spec, IDEAL)
    theta = math.pi / 8
    e_t, _, _ = exact_protocol(spec, AnalyzerSetting(theta, 0.0))
    e_3t, _, _ = exact_protocol(spec, AnalyzerSetting(3 * theta, 0.0))
    assert abs(bell_angle_S(e_t, e_3t).s_value - run.result.s_value) < 1e-12


def test_exact_threshold_matches_monte_carlo():
    spec = SourceSpec(0.1, 0.1, n_max=6)
    detector = DetectorModel(visibility_eta=0.9, semantics=CoincidenceSemantics.THRESHOLD)
    exact = run_chsh(spec, detector).result
    sampled = run_chsh(
        spec, detector, mode="mc_coherent", trials=20_000_000, repetitions=4, seed=11
    ).result
    assert abs(exact.s_value - sampled.s_value) <= 5.0 * sampled.s_error


def test_threshold_subtraction_leaves_blocked_runs_unscaled():
    """Threshold counting has no veto, so its blocked runs are subtracted as measured.

    Unscaled, the separable terms the subtraction leaves shift S by about
    0.35 mu; rescaling the blocked runs by exp(-m), as exact_one_one needs,
    would pull S below 2*sqrt2 by about 3.8 mu.
    """
    detector = DetectorModel(semantics=CoincidenceSemantics.THRESHOLD)
    s = run_chsh(SourceSpec(0.01, 0.01), detector).result.s_value
    assert abs(s - 2 * SQRT2) < 0.01


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
            corr, _, _ = exact_protocol(SourceSpec(mu, mu), AnalyzerSetting(alpha, beta))
            assert corr.e_value == pytest.approx(oracle_singlet_E(alpha, beta), abs=1e-9)
            values.append(corr.e_value)
        assert max(values) - min(values) < 1e-6


def test_unsubtracted_correlation_matches_oracle():
    spec = SourceSpec(0.05, 0.05)
    for alpha, beta in ((0.0, math.pi / 8), (math.pi / 4, math.pi / 8), (0.9, 0.3)):
        _, tables, _ = exact_protocol(spec, AnalyzerSetting(alpha, beta))
        raw = correlation_of(tables[0]).e_value
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
        _, tables, _ = exact_protocol(spec, setting)
        raws.append(correlation_of(tables[0]))
    s_raw = chsh_S(raws).s_value
    assert s_raw < subtracted
    assert s_raw == pytest.approx(SQRT2 / 2.0, abs=1e-9)


def test_protocol_engine_validation():
    spec = SourceSpec(0.05, 0.05)
    blocked = SourceSpec(0.05, 0.05, blocked=BlockedArm.BLOCK_A)

    def sweep(spec, detector, **kwargs):
        return sweep_correlation(spec, detector, (0.0, 1.0), **kwargs)

    for drive in (run_chsh, sweep):
        with pytest.raises(ValueError, match="nonsense"):
            drive(spec, IDEAL, mode="nonsense")
        with pytest.raises(ValueError, match="trials >= 1"):
            drive(spec, IDEAL, mode="mc_fock", trials=0, seed=1)
        with pytest.raises(ValueError, match="seed"):
            drive(spec, IDEAL, mode="mc_fock", trials=10)
        with pytest.raises(ValueError, match="unblocked"):
            drive(blocked, IDEAL)


def _call_log(monkeypatch, module, name):
    """Arguments of every call made through ``module.name``."""
    calls = []
    original = getattr(module, name)

    def logged(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)
    return calls


def test_exact_run_builds_one_mixture_and_one_setup_stack(monkeypatch):
    """Work-count guard: an exact run computes every setting's three configurations from
    one exact_rates call, which builds the setup matrices of all four settings as one stack."""
    logs = [
        _call_log(monkeypatch, chsh, "exact_rates"),
        _call_log(monkeypatch, measurement, "two_mode_input"),
        _call_log(monkeypatch, measurement, "setup_transform"),
    ]
    for semantics in CoincidenceSemantics:
        for log in logs:
            log.clear()
        run_chsh(SourceSpec(0.05, 0.07, n_max=6), DetectorModel(semantics=semantics))
        assert [len(log) for log in logs] == [1, 1, 1]
        ((settings,),) = logs[2]
        assert len(settings) == 4


def test_exact_drivers_build_one_mixture_per_run(monkeypatch):
    """Work-count guard: one mixture and one setup stack per run and, under
    exact_one_one, one propagation per two-photon sector per run."""
    logs = [
        _call_log(monkeypatch, measurement, name)
        for name in ("two_mode_input", "setup_transform", "apply")
    ]
    spec = SourceSpec(0.05, 0.05)
    sweep = np.linspace(0.0, math.pi, 17)
    for repetitions in (1, 3):
        for settings in (4, 17):
            for log in logs:
                log.clear()
            if settings == 4:
                run_chsh(spec, IDEAL, repetitions=repetitions)
            else:
                sweep_correlation(spec, IDEAL, sweep, repetitions=repetitions)
            assert [len(log) for log in logs] == [1, 1, 3]
            assert len(logs[1][0][0]) == settings


_ENGINE_CASES = [
    (mode, semantics, efficiency, 0.0)
    for mode in ("exact", "mc_fock", "mc_coherent")
    for semantics in CoincidenceSemantics
    for efficiency in (1.0, 0.6)
] + [("mc_coherent", semantics, 1.0, 1e-3) for semantics in CoincidenceSemantics]


def _cell(spec, setting, detector, mode, trials, seed, key):
    """One (setting, repetition) cell at stream key ``key``, rebuilt from the samplers.

    Returns the raw tables, the subtracted cells, the clamped magnitude, E
    and its single-table error.
    """
    runs = protocol(spec, detector)
    if mode == "exact":
        trials, (tables,) = 0, exact_rates(spec, (setting,), detector)
    else:
        fock = mode == "mc_fock"
        sampler = measurement.run_montecarlo_fock if fock else measurement.run_montecarlo_coherent
        tables = stack(
            *(
                sampler(config, setting, detector, trials, derive_rng(seed, *key, k)).values()
                for k, (config, _) in enumerate(runs)
            )
        )
    c, clamped = subtract_background(tables, runs)
    e, error = correlation_E(c, trials)
    return tables, c, float(clamped), float(e), float(error)


def _rebuilt(spec, detector, settings, mode, trials, repetitions, seed, stream):
    """(E means, errors, raw tables, clamp total) rebuilt cell by cell."""
    repetitions = 1 if mode == "exact" else repetitions
    means, errors, tables, clamped_total = [], [], [], 0.0
    for s_idx, setting in enumerate(settings):
        es = []
        for rep in range(repetitions):
            raw, _, clamped, e, error = _cell(
                spec, setting, detector, mode, trials, seed, (stream, s_idx, rep)
            )
            es.append(e)
            tables.append(raw)
            clamped_total += clamped
        means.append(float(np.mean(es)))
        errors.append(float(np.std(es, ddof=1)) if repetitions > 1 else error)
    return means, errors, tables, clamped_total


@pytest.mark.parametrize("mode, semantics, efficiency, dark", _ENGINE_CASES)
def test_engine_equals_its_rebuilt_cells(mode, semantics, efficiency, dark):
    """run_chsh and sweep_correlation equal their cells rebuilt from the samplers at the
    stream keys (stream, setting, repetition, configuration) and passed through
    subtract_background and correlation_E, bit for bit."""
    spec = SourceSpec(0.3, 0.2)
    detector = DetectorModel(0.9, efficiency, semantics, dark)
    mc = dict(mode=mode, trials=3000, seed=29)
    quad = setting_quad(*BELL_TEST_ANGLES)
    thetas = np.linspace(0.0, math.pi, 5)
    sweep_settings = [AnalyzerSetting(float(t), 0.0) for t in thetas]
    for repetitions in (1, 3):
        run = run_chsh(spec, detector, repetitions=repetitions, **mc)
        means, errors, tables, clamped = _rebuilt(
            spec, detector, quad, mode, 3000, repetitions, 29, _STREAM_CHSH
        )
        assert list(run.result.e_values) == means
        assert list(run.result.e_errors) == errors
        assert run.raw.tolist() == np.reshape(tables, run.raw.shape).tolist()
        trials = 0 if mode == "exact" else 3000
        assert (run.runs, run.settings, run.trials) == (protocol(spec, detector), quad, trials)
        assert run.clamped == clamped
        points = sweep_correlation(spec, detector, thetas, repetitions=repetitions, **mc)
        means, errors, _, _ = _rebuilt(
            spec, detector, sweep_settings, mode, 3000, repetitions, 29, _STREAM_SWEEP
        )
        assert [p.e_mean for p in points] == means
        assert [p.e_std for p in points] == errors


def test_exact_runs_at_an_efficiency_are_the_lossless_runs_at_the_detected_means():
    """Exact mode at (mu, e) is exact mode at (e * mu, 1), bit for bit, also where
    the emitted means are so bright that their own weights underflow."""
    thetas = np.linspace(0.0, math.pi, 9)
    for semantics in CoincidenceSemantics:
        for (mu_a, mu_b), eff in (((0.1, 0.07), 0.6), ((1000.0, 1000.0), 1e-4)):
            lossy = DetectorModel(visibility_eta=0.9, efficiency=eff, semantics=semantics)
            lossless = DetectorModel(visibility_eta=0.9, semantics=semantics)
            emitted, detected = SourceSpec(mu_a, mu_b), SourceSpec(eff * mu_a, eff * mu_b)
            ours, expected = run_chsh(emitted, lossy), run_chsh(detected, lossless)
            assert ours.result == expected.result
            assert ours.raw.tolist() == expected.raw.tolist()
            assert ours.clamped == expected.clamped
            assert sweep_correlation(emitted, lossy, thetas) == sweep_correlation(
                detected, lossless, thetas
            )


def _no_sector_weight(means: str, n: int) -> str:
    return (
        f"detected means {means}: the weight of every sector that can register, "
        f"up to {n} photons per beam, underflows to 0; use mc_coherent"
    )


def test_exact_runs_refuse_a_detected_mean_with_no_weight_below_n_max():
    # per semantics: exact_one_one, threshold
    cases = [
        (
            SourceSpec(1000.0, 1.0),
            2 * ["detected mean 1000: every Poisson weight up to source.n_max = 4 underflows "
                 "to 0; use mc_coherent"],
        ),
        # each beam keeps weights near 1e-304, but their products underflow
        (SourceSpec(700.0, 700.0), [_no_sector_weight("700 and 700", n) for n in (2, 4)]),
        # exact_one_one reads i, j <= 2 only, whose weights underflow though those up to 170 do not
        (
            SourceSpec(1000.0, 0.1, n_max=170),
            [
                _no_sector_weight("1000 and 0.1", 2),
                "source.n_max must be at most 19 for exact threshold runs, got 170; use mc_fock",
            ],
        ),
    ]
    for spec, refusals in cases:
        for semantics, refusal in zip(CoincidenceSemantics, refusals):
            detector = DetectorModel(semantics=semantics)
            for drive in (run_chsh, lambda spec, det: sweep_correlation(spec, det, (0.0, 1.0))):
                with pytest.raises(ValueError) as refused:
                    drive(spec, detector)
                assert str(refused.value) == refusal


@pytest.mark.parametrize(
    "mode, builder",
    [
        ("mc_coherent", measurement.coherent_outcome_table),
        ("mc_fock", measurement.fock_outcome_table),
    ],
)
def test_montecarlo_drivers_build_each_table_once_per_run(mode, builder):
    """Work-count guard: one table per (setting, configuration), whatever the repetitions."""
    spec = SourceSpec(0.3, 0.3)
    mc = dict(mode=mode, trials=20_000, seed=3)
    # the second 3-repetition run is identical to the first and still builds its own
    for repetitions in (1, 3, 3):
        before = builder.cache_info().misses
        run_chsh(spec, IDEAL, repetitions=repetitions, **mc)
        assert builder.cache_info().misses - before == 12
    before = builder.cache_info().misses
    sweep_correlation(spec, IDEAL, np.linspace(0.0, math.pi, 5), repetitions=3, **mc)
    assert builder.cache_info().misses - before == 3 * 5


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
    _, c, _, e, error = _cell(
        spec, AnalyzerSetting(theta, 0.0), IDEAL, "mc_coherent", trials, seed, (_STREAM_SWEEP, 0, 0)
    )
    assert point.e_mean == e
    expected = math.sqrt((1.0 - e**2) / c.sum())
    assert point.e_std == pytest.approx(expected, rel=1e-12)
    assert point.e_std > 0.0
    # run_chsh follows the same convention
    run = run_chsh(spec, IDEAL, mode="mc_coherent", trials=trials, repetitions=1, seed=seed)
    for s_idx, setting in enumerate(setting_quad(*BELL_TEST_ANGLES)):
        key = (_STREAM_CHSH, s_idx, 0)
        *_, error = _cell(spec, setting, IDEAL, "mc_coherent", trials, seed, key)
        assert run.result.e_errors[s_idx] == error > 0.0
