"""Measurement: analyzers, exact rates, detector model, Monte Carlo samplers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cohsh import measurement
from cohsh.elements import compose
from cohsh.fock import DensityMixture, StateVector, basis_state
from cohsh.measurement import (
    AnalyzerSetting,
    CoincidenceSemantics,
    CountTable,
    DetectorModel,
    analyzer_transform,
    coherent_outcome_table,
    coincidence_probabilities,
    derive_rng,
    exact_rates,
    fock_outcome_table,
    run_montecarlo_coherent,
    run_montecarlo_fock,
)
from cohsh.source import BlockedArm, SourceSpec, two_photon_component

from oracle import oracle_poisson_readout_counts, oracle_sector_tables
from test_fock import psi_minus

IDEAL = DetectorModel()


def pure_mixture(**occupations) -> DensityMixture:
    return DensityMixture(((1.0, StateVector.from_basis(basis_state(**occupations))),))


def test_analyzer_transform_zero_is_identity():
    transform = analyzer_transform(AnalyzerSetting(0.0, 0.0))
    assert np.allclose(transform.matrix, np.eye(8))


def test_analyzer_transform_quarter_turn_swaps_outcomes():
    transform = analyzer_transform(AnalyzerSetting(math.pi / 2, 0.0))
    table = coincidence_probabilities(
        DensityMixture(((1.0, psi_minus()),)), AnalyzerSetting(math.pi / 2, 0.0), IDEAL
    )
    # "+" at port c now means original V: the anti-correlation flips
    assert table.n_pp == pytest.approx(0.5)
    assert table.n_mm == pytest.approx(0.5)
    assert table.n_pm == pytest.approx(0.0, abs=1e-12)
    assert table.n_mp == pytest.approx(0.0, abs=1e-12)
    assert transform.unitarity_defect() < 1e-12


def test_singlet_on_output_ports_equal_settings():
    table = coincidence_probabilities(
        DensityMixture(((1.0, psi_minus()),)), AnalyzerSetting(0.4, 0.4), IDEAL
    )
    assert table.n_pp == pytest.approx(0.0, abs=1e-12)
    assert table.n_mm == pytest.approx(0.0, abs=1e-12)
    assert table.n_pm == pytest.approx(0.5)
    assert table.n_mp == pytest.approx(0.5)


def test_two_h_photons_from_one_arm():
    table = coincidence_probabilities(pure_mixture(aH=2), AnalyzerSetting(0.0, 0.0), IDEAL)
    assert table.n_pp == pytest.approx(0.5)
    assert table.n_pm + table.n_mp + table.n_mm == pytest.approx(0.0, abs=1e-12)


def test_vacuum_gives_zero_table():
    table = coincidence_probabilities(pure_mixture(), AnalyzerSetting(0.3, 0.1), IDEAL)
    assert table.total == 0.0


def test_input_on_wrong_ports_rejected():
    mixed = DensityMixture(
        ((1.0, StateVector.from_basis(basis_state(aH=1, cH=1))),)
    )
    with pytest.raises(ValueError):
        coincidence_probabilities(mixed, AnalyzerSetting(0.0, 0.0), IDEAL)


def test_sector_tables_match_closed_forms():
    for alpha, beta in ((0.0, 0.0), (0.3, 0.1), (math.pi / 8, 1.1), (2.0, -0.4)):
        setting = AnalyzerSetting(alpha, beta)
        reference = oracle_sector_tables(alpha, beta)
        ours = {
            "one_one": coincidence_probabilities(pure_mixture(aH=1, bV=1), setting, IDEAL),
            "two_zero": coincidence_probabilities(pure_mixture(aH=2), setting, IDEAL),
            "zero_two": coincidence_probabilities(pure_mixture(bV=2), setting, IDEAL),
        }
        for key, expected in reference.items():
            assert np.abs(ours[key].values() - expected).max() < 1e-12, key


def test_exact_rates_blocked_matches_sector_rate():
    spec = SourceSpec(0.05, 0.05, blocked=BlockedArm.BLOCK_B)
    setting = AnalyzerSetting(0.2, 0.9)
    table = exact_rates(spec, setting, IDEAL)
    sector = coincidence_probabilities(pure_mixture(aH=2), setting, IDEAL)
    expected = (0.05**2 / 2.0) * sector.values()
    assert np.abs(table.values() - expected).max() < 1e-15


def test_exact_rates_zero_source():
    table = exact_rates(SourceSpec(0.0, 0.0), AnalyzerSetting(0.0, 0.0), IDEAL)
    assert table.total == 0.0
    assert table.trials == 0


def test_exact_rates_two_photon_decomposition():
    """N decomposes over the three two-photon inputs, residual far below 1e-6."""
    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    table = exact_rates(spec, setting, IDEAL).values()
    terms = (
        spec.mu_a * spec.mu_b,
        spec.mu_a**2 / 2.0,
        spec.mu_b**2 / 2.0,
    )
    states = (pure_mixture(aH=1, bV=1), pure_mixture(aH=2), pure_mixture(bV=2))
    decomposed = sum(
        coeff * coincidence_probabilities(mix, setting, IDEAL).values()
        for coeff, mix in zip(terms, states)
    )
    assert np.abs(table - decomposed).max() < 1e-15
    # sector-conditioned form: same decomposition through the mixture weights
    sector = two_photon_component(spec)
    total_rate = sum(terms)
    recombined = sum(
        weight * total_rate * coincidence_probabilities(
            DensityMixture(((1.0, state),)), setting, IDEAL
        ).values()
        for weight, state in sector.components
    )
    assert np.abs(table - recombined).max() < 1e-12


def test_exact_rates_rejects_dark_counts():
    with pytest.raises(ValueError, match="dark counts"):
        exact_rates(SourceSpec(0.05, 0.05), AnalyzerSetting(0.0, 0.3), DetectorModel(dark_rate=1e-3))


def _full_sector_table(setting, n_max, semantics):
    """Outcome rows of every sector |i_aH, j_bV>, each propagated."""
    transform = compose(measurement.RECOMBINER, analyzer_transform(setting))
    return np.array(
        [
            [
                measurement._outcome_probs(
                    StateVector.from_basis(basis_state(aH=i, bV=j)), transform, semantics
                )
                for j in range(n_max + 1)
            ]
            for i in range(n_max + 1)
        ]
    )


def test_coincidence_probabilities_rejects_lossy_detector():
    with pytest.raises(ValueError, match="lossless"):
        coincidence_probabilities(
            pure_mixture(aH=1, bV=1), AnalyzerSetting(0.0, 0.0), DetectorModel(efficiency=0.6)
        )


def test_exact_one_one_registers_only_two_photon_sectors():
    """Photon number is conserved, so i + j != 2 never gives one photon per port."""
    semantics = CoincidenceSemantics.EXACT_ONE_ONE
    for alpha, beta in ((0.0, 0.0), (0.0, math.pi / 8), (0.3, 1.1), (2.0, -0.4)):
        setting = AnalyzerSetting(alpha, beta)
        full = _full_sector_table(setting, 6, semantics)
        for i in range(7):
            for j in range(7):
                assert measurement._can_register(i, j, semantics) == (i + j == 2)
                if i + j != 2:
                    assert not full[i, j].any(), (i, j)
        assert np.array_equal(measurement._sector_table(setting, 6, semantics), full)


@pytest.mark.parametrize("semantics", list(CoincidenceSemantics))
def test_exact_rates_equals_sum_over_every_sector(semantics):
    """Skipping the sectors that cannot register leaves every rate bit-identical."""
    detector = DetectorModel(visibility_eta=0.9, efficiency=0.7, semantics=semantics)
    setting = AnalyzerSetting(0.3, 1.1)
    full = _full_sector_table(setting, 6, semantics)
    for n_max in range(7):
        for arm in BlockedArm:
            spec = SourceSpec(0.3, 0.2, n_max=n_max, blocked=arm)
            # efficiency enters as the substitution mu -> efficiency * mu
            m_a = detector.efficiency * spec.effective_mu_a
            m_b = detector.efficiency * spec.effective_mu_b
            outcomes = measurement._empty_outcomes(semantics)
            for i in range(n_max + 1):
                for j in range(n_max + 1):
                    coeff = m_a**i / math.factorial(i) * m_b**j / math.factorial(j)
                    if coeff != 0.0:
                        outcomes += coeff * full[i, j]
            reference = measurement._finalize_cells(outcomes, detector)
            assert np.array_equal(exact_rates(spec, setting, detector).values(), reference)


def test_exact_rates_propagates_only_registering_sectors(monkeypatch):
    """Work-count guard: how many states exact_rates sends through the optics."""
    calls = []
    original = measurement.apply

    def counting_apply(transform, state):
        calls.append(state)
        return original(transform, state)

    monkeypatch.setattr(measurement, "apply", counting_apply)
    setting = AnalyzerSetting(0.0, math.pi / 8)

    def count(arm, semantics):
        calls.clear()
        spec = SourceSpec(0.05, 0.05, n_max=6, blocked=arm)
        exact_rates(spec, setting, DetectorModel(semantics=semantics))
        return len(calls)

    exact = CoincidenceSemantics.EXACT_ONE_ONE
    assert count(BlockedArm.NONE, exact) == 3
    assert count(BlockedArm.BLOCK_A, exact) == 1
    assert count(BlockedArm.BLOCK_B, exact) == 1
    assert count(BlockedArm.NONE, CoincidenceSemantics.THRESHOLD) == 7**2


def test_exact_one_one_asks_the_source_for_two_photons_at_most(monkeypatch):
    """Work-count guard: only i + j == 2 registers, so i, j <= 2 is all exact_one_one needs."""
    cutoffs = []
    original = measurement.two_mode_input

    def spying_two_mode_input(spec):
        cutoffs.append(spec.n_max)
        return original(spec)

    monkeypatch.setattr(measurement, "two_mode_input", spying_two_mode_input)
    setting = AnalyzerSetting(0.2, math.pi / 8)
    for semantics, expected in (
        (CoincidenceSemantics.EXACT_ONE_ONE, [0, 1, 2, 2, 2]),
        (CoincidenceSemantics.THRESHOLD, [0, 1, 2, 4, 6]),
    ):
        cutoffs.clear()
        for n_max in (0, 1, 2, 4, 6):
            spec = SourceSpec(0.05, 0.07, n_max=n_max)
            exact_rates(spec, setting, DetectorModel(semantics=semantics))
        assert cutoffs == expected


@pytest.mark.parametrize("semantics", list(CoincidenceSemantics))
def test_efficiency_is_the_detected_mean_substitution(semantics):
    """Every builder at efficiency e is the lossless builder at means e * mu."""
    settings = (AnalyzerSetting(0.0, math.pi / 8), AnalyzerSetting(0.3, 1.1))
    builders = (
        lambda *args: exact_rates(*args).values(),
        fock_outcome_table,
        coherent_outcome_table,
    )
    for eff in (0.6, 0.25):
        lossy = DetectorModel(visibility_eta=0.9, efficiency=eff, semantics=semantics)
        lossless = replace(lossy, efficiency=1.0)
        for arm in BlockedArm:
            spec = SourceSpec(0.1, 0.07, n_max=6, blocked=arm)
            detected = SourceSpec(eff * 0.1, eff * 0.07, n_max=6, blocked=arm)
            for setting in settings:
                for build in builders:
                    assert np.array_equal(
                        build(spec, setting, lossy), build(detected, setting, lossless)
                    ), (eff, arm, setting, build)


def test_exact_threshold_rates_match_lossy_coherent_table():
    """Exact threshold rates at efficiency < 1 are the Poisson readout of eff * mu."""
    eff = 0.6
    detector = DetectorModel(efficiency=eff, semantics=CoincidenceSemantics.THRESHOLD)
    for arm in BlockedArm:
        spec = SourceSpec(0.1, 0.07, n_max=8, blocked=arm)
        vacuum = math.exp(-eff * (spec.effective_mu_a + spec.effective_mu_b))
        for setting in (AnalyzerSetting(0.0, math.pi / 8), AnalyzerSetting(2.0, -0.4)):
            rates = exact_rates(spec, setting, detector).values()
            table = coherent_outcome_table(spec, setting, detector)
            reference = table @ measurement._PATTERN_CELLS / vacuum
            assert np.abs(rates - reference).max() <= 1e-10 * np.abs(reference).max()


def test_exact_rates_efficiency_scaling():
    spec = SourceSpec(0.08, 0.03)
    setting = AnalyzerSetting(0.5, 0.2)
    base = exact_rates(spec, setting, IDEAL).values()
    for eff in (0.9, 0.5, 0.25):
        scaled = exact_rates(spec, setting, DetectorModel(efficiency=eff)).values()
        assert np.abs(scaled - eff**2 * base).max() < 1e-15


def test_exact_rates_visibility_mixes_toward_uniform():
    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.0, 0.0)
    base = exact_rates(spec, setting, IDEAL).values()
    eta = 0.8
    mixed = exact_rates(spec, setting, DetectorModel(visibility_eta=eta)).values()
    expected = eta * base + (1 - eta) / 4.0 * base.sum()
    assert np.abs(mixed - expected).max() < 1e-15
    assert mixed.sum() == pytest.approx(base.sum())


def test_count_table_csv_row():
    table = CountTable(
        1.0, 2.0, 3.5, 0.0, trials=10, alpha=0.0, beta=0.25,
        mu_a=0.05, mu_b=0.05, blocked=BlockedArm.NONE,
    )
    assert table.csv_row() == "0,0.25,0.05,0.05,none,1,2,3.5,0,10"
    assert CountTable.CSV_HEADER.startswith("setting_alpha")
    with pytest.raises(ValueError):
        CountTable(1.0, 0.0, 0.0, 0.0).csv_row()


def test_derive_rng_independent_of_order():
    a = derive_rng(42, 1, 2, 3).random(4)
    b = derive_rng(42, 1, 2, 3).random(4)
    c = derive_rng(42, 1, 2, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_rng_rejects_seeds_outside_64_bits():
    assert np.array_equal(derive_rng(2**64 - 1).random(2), derive_rng(2**64 - 1).random(2))
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            derive_rng(seed)


@pytest.mark.parametrize("runner", [run_montecarlo_fock, run_montecarlo_coherent])
def test_montecarlo_determinism(runner):
    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    one = runner(spec, setting, IDEAL, 300_000, 42)
    two = runner(spec, setting, IDEAL, 300_000, 42)
    assert one == two
    assert one.trials == 300_000


@pytest.mark.parametrize("runner", [run_montecarlo_fock, run_montecarlo_coherent])
def test_montecarlo_dead_source_counts_nothing(runner):
    table = runner(SourceSpec(0.0, 0.0), AnalyzerSetting(0.0, 0.0), IDEAL, 50_000, 1)
    assert table.total == 0.0


def test_montecarlo_coherent_single_polarization():
    spec = SourceSpec(0.05, 0.0)
    table = run_montecarlo_coherent(spec, AnalyzerSetting(0.0, 0.0), IDEAL, 500_000, 7)
    assert table.n_pm == 0.0
    assert table.n_mp == 0.0
    assert table.n_mm == 0.0
    assert table.n_pp > 0.0


@pytest.mark.parametrize("runner", [run_montecarlo_fock, run_montecarlo_coherent])
def test_montecarlo_matches_exact_rates(runner):
    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    trials = 400_000
    table = runner(spec, setting, IDEAL, trials, 2024)
    # exact rates are relative to the vacuum window; the per-trial event
    # probability carries the vacuum factor exp(-(mu_a + mu_b))
    expected = exact_rates(spec, setting, IDEAL).values() * math.exp(-0.1) * trials
    sigma = np.sqrt(expected)
    assert (np.abs(table.values() - expected) <= 4.0 * sigma).all()


def test_threshold_semantics_counts_more_events():
    spec = SourceSpec(0.1, 0.1)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    threshold = DetectorModel(semantics=CoincidenceSemantics.THRESHOLD)
    strict = exact_rates(spec, setting, IDEAL).values()
    loose = exact_rates(spec, setting, threshold).values()
    # threshold admits higher photon-number sectors, so it can only add rate
    assert (loose >= strict - 1e-15).all()
    assert loose.sum() > strict.sum()
    # the two differ at O(mu^3), two orders below the rates themselves
    assert np.abs(loose - strict).max() < 0.1 * strict.sum()


@pytest.mark.parametrize("runner", [run_montecarlo_fock, run_montecarlo_coherent])
def test_threshold_montecarlo_matches_exact_threshold_rates(runner):
    spec = SourceSpec(0.1, 0.1)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    threshold = DetectorModel(semantics=CoincidenceSemantics.THRESHOLD)
    trials = 400_000
    table = runner(spec, setting, threshold, trials, 606)
    expected = exact_rates(spec, setting, threshold).values() * math.exp(-0.2) * trials
    sigma = np.sqrt(expected)
    assert (np.abs(table.values() - expected) <= 4.0 * sigma).all()


@pytest.mark.parametrize("runner", [run_montecarlo_fock, run_montecarlo_coherent])
def test_montecarlo_efficiency_thinning(runner):
    spec = SourceSpec(0.08, 0.08)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    eff = 0.6
    lossy = DetectorModel(efficiency=eff)
    trials = 1_000_000
    table = runner(spec, setting, lossy, trials, 4242)
    expected = (
        exact_rates(spec, setting, lossy).values() * math.exp(-eff * 0.16) * trials
    )
    sigma = np.sqrt(expected)
    assert (np.abs(table.values() - expected) <= 4.0 * sigma).all()


@pytest.mark.parametrize("runner", [run_montecarlo_fock, run_montecarlo_coherent])
def test_montecarlo_visibility_relabel_scales_e(runner):
    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.0, 0.0)
    trials = 1_000_000
    eta = 0.5

    def correlation(table):
        v = table.values()
        return (v[0] - v[1] - v[2] + v[3]) / v.sum()

    ideal = correlation(runner(spec, setting, IDEAL, trials, 321))
    faded = correlation(runner(spec, setting, DetectorModel(visibility_eta=eta), trials, 321))
    assert faded == pytest.approx(eta * ideal, abs=0.05)


def test_montecarlo_coherent_dark_counts_add_background():
    spec = SourceSpec(0.05, 0.0)
    setting = AnalyzerSetting(0.0, 0.0)
    dark = DetectorModel(dark_rate=1e-3)
    trials = 500_000
    clean = run_montecarlo_coherent(spec, setting, IDEAL, trials, 777)
    noisy = run_montecarlo_coherent(spec, setting, dark, trials, 777)
    # single-polarization source alone cannot fire the V detectors
    assert clean.n_pm + clean.n_mp + clean.n_mm == 0.0
    assert noisy.n_pm + noisy.n_mp > 0.0


def test_montecarlo_fock_rejects_dark_counts():
    with pytest.raises(ValueError):
        run_montecarlo_fock(
            SourceSpec(0.05, 0.05),
            AnalyzerSetting(0.0, 0.0),
            DetectorModel(dark_rate=1e-4),
            1000,
            5,
        )


@pytest.mark.parametrize("semantics", list(CoincidenceSemantics))
@pytest.mark.parametrize("efficiency", [1.0, 0.6])
def test_outcome_table_builders_agree(semantics, efficiency):
    """Fock propagation with thinning and the phase quadrature give one table."""
    # at n_max 8 and mu <= 0.1 the discarded Poisson tail is below 1e-13
    detector = DetectorModel(efficiency=efficiency, semantics=semantics)
    for arm in BlockedArm:
        spec = SourceSpec(0.1, 0.07, n_max=8, blocked=arm)
        for setting in (AnalyzerSetting(0.0, math.pi / 8), AnalyzerSetting(2.0, -0.4)):
            fock = fock_outcome_table(spec, setting, detector)
            coherent = coherent_outcome_table(spec, setting, detector)
            exact = semantics is CoincidenceSemantics.EXACT_ONE_ONE
            assert fock.shape == coherent.shape == ((4,) if exact else (16,))
            assert np.abs(fock - coherent).max() <= 1e-12


def test_coherent_table_matches_exact_rates():
    """exact_one_one probabilities are the vacuum-relative rates times exp(-mu_a - mu_b)."""
    for arm in BlockedArm:
        spec = SourceSpec(0.05, 0.08, blocked=arm)
        for setting in (AnalyzerSetting(0.0, math.pi / 8), AnalyzerSetting(0.3, 1.1)):
            table = coherent_outcome_table(spec, setting, IDEAL)
            vacuum = math.exp(-(spec.effective_mu_a + spec.effective_mu_b))
            expected = exact_rates(spec, setting, IDEAL).values()
            assert np.abs(table / vacuum - expected).max() <= 1e-15


def test_threshold_quadrature_is_converged(monkeypatch):
    detector = DetectorModel(
        efficiency=0.8, semantics=CoincidenceSemantics.THRESHOLD, dark_rate=0.01
    )
    setting = AnalyzerSetting(0.3, 1.1)
    specs = (SourceSpec(0.1, 0.1), SourceSpec(10.0, 3.0))
    tables = [coherent_outcome_table(spec, setting, detector) for spec in specs]
    monkeypatch.setattr(measurement, "PHASE_NODES", 2 * measurement.PHASE_NODES)
    for spec, table in zip(specs, tables):
        doubled = coherent_outcome_table(spec, setting, detector)
        assert np.abs(doubled - table).max() <= 1e-15
        assert table.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("semantics", list(CoincidenceSemantics))
def test_montecarlo_coherent_matches_per_trial_oracle(semantics):
    """One multinomial draw per cell has the law of the per-trial Poisson readout."""
    # a strongly correlated raw table and a large dark share give the
    # comparison power on visibility and dark counts
    spec = SourceSpec(0.8, 0.2)
    setting = AnalyzerSetting(0.2, 0.1)
    detector = DetectorModel(
        visibility_eta=0.5, efficiency=0.6, semantics=semantics, dark_rate=0.05
    )
    trials = 200_000
    ours = run_montecarlo_coherent(spec, setting, detector, trials, 31).values()
    reference = oracle_poisson_readout_counts(
        spec.mu_a,
        spec.mu_b,
        setting.alpha,
        setting.beta,
        eta=detector.visibility_eta,
        efficiency=detector.efficiency,
        dark_rate=detector.dark_rate,
        threshold=semantics is CoincidenceSemantics.THRESHOLD,
        trials=trials,
        rng=np.random.default_rng(32),
    )
    assert (reference > 500).all()
    sigma = np.sqrt(ours + reference)
    assert (np.abs(ours - reference) <= 5.0 * sigma).all()


def test_montecarlo_visibility_scales_correlation():
    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.0, 0.0)
    trials = 2_000_000
    eta = 0.6

    def correlation(table):
        v = table.values()
        return (v[0] - v[1] - v[2] + v[3]) / v.sum()

    ideal = run_montecarlo_coherent(spec, setting, IDEAL, trials, 101)
    faded = run_montecarlo_coherent(
        spec, setting, DetectorModel(visibility_eta=eta), trials, 101
    )
    assert correlation(faded) == pytest.approx(eta * correlation(ideal), abs=0.02)


def test_no_signaling_of_subtracted_marginals():
    spec = SourceSpec(0.05, 0.05)
    alpha = 0.3

    def subtracted(beta):
        tables = [
            exact_rates(replace(spec, blocked=arm), AnalyzerSetting(alpha, beta), IDEAL).values()
            for arm in (BlockedArm.NONE, BlockedArm.BLOCK_A, BlockedArm.BLOCK_B)
        ]
        return tables[0] - tables[1] - tables[2]

    marginals = []
    for beta in (0.0, 0.4, 1.2):
        c = subtracted(beta)
        marginals.append((c[0] + c[1], c[2] + c[3]))
    for plus, minus in marginals[1:]:
        assert plus == pytest.approx(marginals[0][0], abs=1e-9)
        assert minus == pytest.approx(marginals[0][1], abs=1e-9)


def test_setting_difference_invariance():
    spec = SourceSpec(0.06, 0.06)

    def subtracted_e(alpha, beta):
        tables = [
            exact_rates(replace(spec, blocked=arm), AnalyzerSetting(alpha, beta), IDEAL).values()
            for arm in (BlockedArm.NONE, BlockedArm.BLOCK_A, BlockedArm.BLOCK_B)
        ]
        c = tables[0] - tables[1] - tables[2]
        return (c[0] - c[1] - c[2] + c[3]) / c.sum()

    for delta in (0.0, 0.17, 1.0):
        assert subtracted_e(0.2 + delta, 0.9 + delta) == pytest.approx(
            subtracted_e(0.2, 0.9), abs=1e-9
        )
