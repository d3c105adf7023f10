"""Measurement: analyzers, exact rates, detector model, Monte Carlo samplers."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from cohsh import elements, measurement
from cohsh.chsh import setting_quad, subtract_background
from cohsh.elements import compose, polarization_rotator
from cohsh.fock import AH, BV, Port, StateVector, basis_state
from cohsh.measurement import (
    AnalyzerSetting,
    CoincidenceSemantics,
    DetectorModel,
    _outcome_probs,
    _sector_table,
    analyzer_transform,
    coherent_outcome_table,
    derive_rng,
    exact_rates,
    fock_outcome_table,
    protocol,
    run_montecarlo_coherent,
    run_montecarlo_fock,
    setup_transform,
)
from cohsh.source import BlockedArm, SourceSpec, poisson_pmf, two_mode_input

from oracle import (
    oracle_click_pattern,
    oracle_coherent_threshold_table,
    oracle_exact_one_one_table,
    oracle_fock_sector_table,
    oracle_one_photon_per_port,
    oracle_poisson_readout_counts,
    oracle_sector_tables,
)
from test_fock import psi_minus

IDEAL = DetectorModel()


def exact_tables(spec, setting, detector=IDEAL) -> np.ndarray:
    """The exact_rates rows of one setting: each configuration's cells in protocol order."""
    (tables,) = exact_rates(spec, (setting,), detector)
    return tables


def configuration_rates(spec, setting, detector) -> np.ndarray:
    """The exact_rates table of the configuration ``spec`` describes, blocked or not."""
    tables = exact_tables(replace(spec, blocked=BlockedArm.NONE), setting, detector)
    return tables[list(BlockedArm).index(spec.blocked)]


EXACT = CoincidenceSemantics.EXACT_ONE_ONE
THRESHOLD = CoincidenceSemantics.THRESHOLD


def one_one_probs(state: StateVector, transform) -> np.ndarray:
    """The four exact_one_one cell probabilities of one pure state."""
    return _outcome_probs(state, transform)[measurement._outcome_columns(EXACT)]


def sector(**occupations) -> StateVector:
    return StateVector.from_basis(basis_state(**occupations))


def subtracted(spec, setting, detector=IDEAL) -> np.ndarray:
    """The background-subtracted exact table, weighted by the protocol as in every mode."""
    return subtract_background(exact_tables(spec, setting, detector), protocol(spec, detector))[0]


def test_analyzer_transform_zero_is_identity():
    transform = analyzer_transform(AnalyzerSetting(0.0, 0.0))
    assert np.allclose(transform.matrix, np.eye(8))


def test_analyzer_transform_quarter_turn_swaps_outcomes():
    transform = analyzer_transform(AnalyzerSetting(math.pi / 2, 0.0))
    pp, pm, mp, mm = one_one_probs(psi_minus(), transform)
    # "+" at port c now means original V: the anti-correlation flips
    assert pp == pytest.approx(0.5)
    assert mm == pytest.approx(0.5)
    assert pm == pytest.approx(0.0, abs=1e-12)
    assert mp == pytest.approx(0.0, abs=1e-12)
    assert transform.unitarity_defect() < 1e-12


def test_singlet_on_output_ports_equal_settings():
    pp, pm, mp, mm = one_one_probs(psi_minus(), analyzer_transform(AnalyzerSetting(0.4, 0.4)))
    assert pp == pytest.approx(0.0, abs=1e-12)
    assert mm == pytest.approx(0.0, abs=1e-12)
    assert pm == pytest.approx(0.5)
    assert mp == pytest.approx(0.5)


def test_two_h_photons_from_one_arm():
    pp, pm, mp, mm = one_one_probs(sector(aH=2), setup_transform(AnalyzerSetting(0.0, 0.0)))
    assert pp == pytest.approx(0.5)
    assert pm + mp + mm == pytest.approx(0.0, abs=1e-12)


def test_vacuum_gives_zero_table():
    assert one_one_probs(sector(), setup_transform(AnalyzerSetting(0.3, 0.1))).sum() == 0.0


def test_sector_tables_match_closed_forms():
    for alpha, beta in ((0.0, 0.0), (0.3, 0.1), (math.pi / 8, 1.1), (2.0, -0.4)):
        rows = _sector_table(AnalyzerSetting(alpha, beta), 2, EXACT)
        reference = oracle_sector_tables(alpha, beta)
        ours = {"one_one": rows[1, 1], "two_zero": rows[2, 0], "zero_two": rows[0, 2]}
        for key, expected in reference.items():
            assert np.abs(ours[key] - expected).max() < 1e-12, key


def test_exact_rates_blocked_matches_sector_rate():
    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.2, 0.9)
    _, _, table = exact_tables(spec, setting)
    expected = poisson_pmf(0.05, 2) * _sector_table(setting, 2, EXACT)[2, 0]
    assert np.abs(table - expected).max() < 1e-15


def test_exact_rates_zero_source():
    table, _, _ = exact_tables(SourceSpec(0.0, 0.0), AnalyzerSetting(0.0, 0.0))
    assert table.shape == (4,)
    assert table.sum() == 0.0


def test_exact_rates_two_photon_decomposition():
    """N decomposes over the three two-photon inputs, residual far below 1e-6."""
    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    table = exact_tables(spec, setting)[0]
    vacuum = math.exp(-spec.mu_a - spec.mu_b)
    terms = (
        vacuum * spec.mu_a * spec.mu_b,
        vacuum * spec.mu_a**2 / 2.0,
        vacuum * spec.mu_b**2 / 2.0,
    )
    transform = setup_transform(setting)
    states = (sector(aH=1, bV=1), sector(aH=2), sector(bV=2))
    decomposed = sum(
        coeff * one_one_probs(state, transform) for coeff, state in zip(terms, states)
    )
    assert np.abs(table - decomposed).max() < 1e-15
    # the same decomposition through the source mixture's two-photon weights
    mixture, discarded = two_mode_input(spec)
    recombined = sum(
        weight * (1.0 - discarded) * one_one_probs(state, transform)
        for weight, state in mixture.components
        if sum(state.items()[0][0].occ) == 2
    )
    assert np.abs(table - recombined).max() < 1e-12


def test_exact_rates_rejects_dark_counts():
    with pytest.raises(ValueError, match="dark counts"):
        exact_tables(SourceSpec(0.05, 0.05), AnalyzerSetting(0.0, 0.3), DetectorModel(dark_rate=1e-3))


def test_exact_rates_rejects_a_blocked_spec():
    for arm in (BlockedArm.BLOCK_A, BlockedArm.BLOCK_B):
        with pytest.raises(ValueError, match="unblocked"):
            exact_tables(SourceSpec(0.05, 0.05, blocked=arm), AnalyzerSetting(0.0, 0.3))


def test_protocol_lists_the_open_run_then_each_blocked_arm():
    spec = SourceSpec(0.1, 0.07, n_max=3)
    for semantics in CoincidenceSemantics:
        configs = [config for config, _ in protocol(spec, DetectorModel(semantics=semantics))]
        assert [c.blocked for c in configs] == [
            BlockedArm.NONE,
            BlockedArm.BLOCK_A,
            BlockedArm.BLOCK_B,
        ]
        assert all(replace(c, blocked=BlockedArm.NONE) == spec for c in configs)


@pytest.mark.parametrize("efficiency", [1.0, 0.6])
def test_protocol_weights_the_blocked_runs_by_the_missing_arms_vacuum_factor(efficiency):
    spec = SourceSpec(0.1, 0.07)
    exact = protocol(spec, DetectorModel(efficiency=efficiency))
    assert [w for _, w in exact] == [
        1.0,
        -math.exp(-efficiency * spec.mu_a),
        -math.exp(-efficiency * spec.mu_b),
    ]
    threshold = protocol(spec, DetectorModel(efficiency=efficiency, semantics="threshold"))
    assert [w for _, w in threshold] == [1.0, -1.0, -1.0]


def test_protocol_refuses_a_blocked_spec():
    for arm in (BlockedArm.BLOCK_A, BlockedArm.BLOCK_B):
        with pytest.raises(ValueError, match="unblocked"):
            protocol(SourceSpec(0.05, 0.05, blocked=arm), IDEAL)


def test_outcome_table_memos_hold_one_table_per_configuration():
    size = len(protocol(SourceSpec(0.05, 0.05), IDEAL))
    for builder in (coherent_outcome_table, fock_outcome_table):
        assert builder.cache_info().maxsize == size


def test_exact_one_one_registers_only_two_photon_sectors():
    """Photon number is conserved, so i + j != 2 never gives one photon per port."""
    semantics = CoincidenceSemantics.EXACT_ONE_ONE
    for alpha, beta in ((0.0, 0.0), (0.0, math.pi / 8), (0.3, 1.1), (2.0, -0.4)):
        setting = AnalyzerSetting(alpha, beta)
        full = oracle_fock_sector_table(setting, 6, semantics)
        table = measurement._sector_table(setting, 6, semantics)
        for i in range(7):
            for j in range(7):
                assert measurement._can_register(i, j, semantics) == (i + j == 2)
                if i + j != 2:
                    assert not full[i, j].any(), (i, j)
                    assert not table[i, j].any(), (i, j)
        # a closed form and a propagation agree to rounding, not bit for bit
        assert np.abs(table - full).max() <= 1e-15


_BELL_SETTINGS = tuple(
    AnalyzerSetting(alpha, beta)
    for alpha in (0.0, math.pi / 4)
    for beta in (math.pi / 8, 3 * math.pi / 8)
)
_RANDOM_SETTINGS = tuple(
    AnalyzerSetting(*angles)
    for angles in np.random.default_rng(19).uniform(-4.0, 4.0, (2, 2)).tolist()
)


def test_click_patterns_hold_the_one_photon_per_port_cells():
    """Two photons fire a cell's (c, d) pair and no other detector iff one is at each port."""
    columns = measurement._outcome_columns(EXACT).tolist()
    for occ in itertools.product(range(3), repeat=8):
        pattern = measurement._click_pattern(occ)
        assert pattern == oracle_click_pattern(occ), occ
        if sum(occ) == 2:
            cell = oracle_one_photon_per_port(occ)
            assert (columns.index(pattern) if pattern in columns else None) == cell, occ
    assert measurement._outcome_columns(THRESHOLD).tolist() == list(range(16))


@pytest.mark.parametrize("semantics", list(CoincidenceSemantics))
def test_sector_table_matches_the_fock_propagation(semantics):
    """The closed-form sector rows are the propagated ones, to rounding."""
    for setting in _BELL_SETTINGS + _RANDOM_SETTINGS:
        table = measurement._sector_table(setting, 8, semantics)
        reference = oracle_fock_sector_table(setting, 8, semantics)
        assert np.abs(table - reference).max() <= 1e-14, setting


@pytest.mark.parametrize("semantics", list(CoincidenceSemantics))
def test_sector_table_rows_are_probabilities(semantics):
    threshold = semantics is CoincidenceSemantics.THRESHOLD
    for n_max in (0, 1, 2, 5, 8, 24):
        for setting in _BELL_SETTINGS + _RANDOM_SETTINGS:
            table = measurement._sector_table(setting, n_max, semantics)
            assert table.shape == (n_max + 1, n_max + 1, 16 if threshold else 4)
            assert (table >= 0.0).all()
            if threshold:
                # every sector fires some pattern, the vacuum the empty one
                assert np.abs(table.sum(axis=2) - 1.0).max() <= 1e-14, (n_max, setting)


def test_fock_outcome_table_sends_no_sector_through_the_optics(monkeypatch):
    """Work-count guard: the sector tables are built in closed form."""
    calls = []
    original = measurement.apply

    def counting_apply(transform, state):
        calls.append(state)
        return original(transform, state)

    monkeypatch.setattr(measurement, "apply", counting_apply)
    measurement._sector_table.cache_clear()
    detector = DetectorModel(efficiency=0.6, semantics=CoincidenceSemantics.THRESHOLD)
    table = fock_outcome_table(SourceSpec(0.1, 0.1, n_max=8), _BELL_SETTINGS[0], detector)
    assert table.sum() == pytest.approx(1.0)
    assert measurement._sector_table.cache_info().misses == 1
    assert calls == []


@pytest.mark.parametrize("semantics", list(CoincidenceSemantics))
def test_outcome_table_builders_agree_at_a_deep_cutoff(semantics):
    """Bright beams: at mu (1.0, 0.7) and n_max 24 the Poisson tail is below 1e-24."""
    detector = DetectorModel(semantics=semantics)
    for arm in BlockedArm:
        spec = SourceSpec(1.0, 0.7, n_max=24, blocked=arm)
        for setting in (_BELL_SETTINGS[1],) + _RANDOM_SETTINGS:
            fock = fock_outcome_table(spec, setting, detector)
            coherent = coherent_outcome_table(spec, setting, detector)
            assert np.abs(fock - coherent).max() <= 1e-12, (arm, setting)


@pytest.mark.parametrize("semantics", list(CoincidenceSemantics))
def test_exact_rates_equals_sum_over_every_sector(semantics):
    """Each configuration's rates are bit-identical to the sum over every propagated sector."""
    detector = DetectorModel(visibility_eta=0.9, efficiency=0.7, semantics=semantics)
    setting = AnalyzerSetting(0.3, 1.1)
    full = oracle_fock_sector_table(setting, 6, semantics)
    for n_max in range(7):
        for mu_a, mu_b in ((0.3, 0.2), (0.0, 0.2), (0.3, 0.0)):
            spec = SourceSpec(mu_a, mu_b, n_max=n_max)
            tables = exact_tables(spec, setting, detector)
            assert len(tables) == len(BlockedArm)
            for arm, table in zip(BlockedArm, tables):
                config = replace(spec, blocked=arm)
                # efficiency enters as the substitution mu -> efficiency * mu
                m_a = detector.efficiency * config.effective_mu_a
                m_b = detector.efficiency * config.effective_mu_b
                outcomes = np.zeros(full.shape[2])
                for i in range(n_max + 1):
                    for j in range(n_max + 1):
                        outcomes += poisson_pmf(m_a, i) * poisson_pmf(m_b, j) * full[i, j]
                reference = measurement._finalize_cells(outcomes, detector)
                assert np.array_equal(table, reference), (n_max, mu_a, mu_b, arm)


def test_exact_rates_propagates_only_registering_sectors(monkeypatch):
    """Work-count guard: the states one exact_rates call sends through the optics."""
    calls = []
    original = measurement.apply

    def counting_apply(transform, state):
        calls.append(state)
        return original(transform, state)

    monkeypatch.setattr(measurement, "apply", counting_apply)
    setting = AnalyzerSetting(0.0, math.pi / 8)

    def sectors(semantics):
        calls.clear()
        spec = SourceSpec(0.05, 0.05, n_max=6)
        exact_tables(spec, setting, DetectorModel(semantics=semantics))
        return sorted(
            (bstate.count(AH), bstate.count(BV)) for state in calls for bstate in state
        )

    assert sectors(CoincidenceSemantics.EXACT_ONE_ONE) == [(0, 2), (1, 1), (2, 0)]
    assert sectors(CoincidenceSemantics.THRESHOLD) == [(i, j) for i in range(7) for j in range(7)]


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
            exact_tables(spec, setting, DetectorModel(semantics=semantics))
        assert cutoffs == expected


@pytest.mark.parametrize("semantics", list(CoincidenceSemantics))
def test_efficiency_is_the_detected_mean_substitution(semantics):
    """Every builder at efficiency e is the lossless builder at means e * mu."""
    settings = (AnalyzerSetting(0.0, math.pi / 8), AnalyzerSetting(0.3, 1.1))
    builders = (
        configuration_rates,
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


def test_exact_rates_efficiency_scaling():
    spec = SourceSpec(0.08, 0.03)
    setting = AnalyzerSetting(0.5, 0.2)
    base = exact_tables(spec, setting)[0]
    for eff in (0.9, 0.5, 0.25):
        scaled = exact_tables(spec, setting, DetectorModel(efficiency=eff))[0]
        # two detected photons, each kept with probability eff, and a brighter vacuum
        expected = eff**2 * math.exp((1.0 - eff) * (spec.mu_a + spec.mu_b)) * base
        assert np.abs(scaled - expected).max() < 1e-15


def test_exact_rates_visibility_mixes_toward_uniform():
    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.0, 0.0)
    base = exact_tables(spec, setting)[0]
    eta = 0.8
    mixed = exact_tables(spec, setting, DetectorModel(visibility_eta=eta))[0]
    expected = eta * base + (1 - eta) / 4.0 * base.sum()
    assert np.abs(mixed - expected).max() < 1e-15
    assert mixed.sum() == pytest.approx(base.sum())


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
    one = runner(spec, setting, IDEAL, 300_000, np.random.default_rng(42))
    two = runner(spec, setting, IDEAL, 300_000, np.random.default_rng(42))
    assert one == two
    assert one.trials == 300_000


@pytest.mark.parametrize("runner", [run_montecarlo_fock, run_montecarlo_coherent])
def test_montecarlo_dead_source_counts_nothing(runner):
    table = runner(
        SourceSpec(0.0, 0.0), AnalyzerSetting(0.0, 0.0), IDEAL, 50_000, np.random.default_rng(1)
    )
    assert table.total == 0.0


def test_montecarlo_coherent_single_polarization():
    spec = SourceSpec(0.05, 0.0)
    table = run_montecarlo_coherent(
        spec, AnalyzerSetting(0.0, 0.0), IDEAL, 500_000, np.random.default_rng(7)
    )
    assert table.n_pm == 0.0
    assert table.n_mp == 0.0
    assert table.n_mm == 0.0
    assert table.n_pp > 0.0


@pytest.mark.parametrize("runner", [run_montecarlo_fock, run_montecarlo_coherent])
def test_montecarlo_matches_exact_rates(runner):
    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    trials = 400_000
    table = runner(spec, setting, IDEAL, trials, np.random.default_rng(2024))
    expected = exact_tables(spec, setting)[0] * trials
    sigma = np.sqrt(expected)
    assert (np.abs(table.values() - expected) <= 4.0 * sigma).all()


def test_threshold_semantics_counts_more_events():
    spec = SourceSpec(0.1, 0.1)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    threshold = DetectorModel(semantics=CoincidenceSemantics.THRESHOLD)
    strict = exact_tables(spec, setting)[0]
    loose = exact_tables(spec, setting, threshold)[0]
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
    table = runner(spec, setting, threshold, trials, np.random.default_rng(606))
    expected = exact_tables(spec, setting, threshold)[0] * trials
    sigma = np.sqrt(expected)
    assert (np.abs(table.values() - expected) <= 4.0 * sigma).all()


@pytest.mark.parametrize("runner", [run_montecarlo_fock, run_montecarlo_coherent])
def test_montecarlo_efficiency_thinning(runner):
    spec = SourceSpec(0.08, 0.08)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    eff = 0.6
    lossy = DetectorModel(efficiency=eff)
    trials = 1_000_000
    table = runner(spec, setting, lossy, trials, np.random.default_rng(4242))
    expected = exact_tables(spec, setting, lossy)[0] * trials
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

    ideal = correlation(runner(spec, setting, IDEAL, trials, np.random.default_rng(321)))
    faded = correlation(
        runner(
            spec, setting, DetectorModel(visibility_eta=eta), trials, np.random.default_rng(321)
        )
    )
    assert faded == pytest.approx(eta * ideal, abs=0.05)


def test_montecarlo_coherent_dark_counts_add_background():
    spec = SourceSpec(0.05, 0.0)
    setting = AnalyzerSetting(0.0, 0.0)
    dark = DetectorModel(dark_rate=1e-3)
    trials = 500_000
    clean = run_montecarlo_coherent(spec, setting, IDEAL, trials, np.random.default_rng(777))
    noisy = run_montecarlo_coherent(spec, setting, dark, trials, np.random.default_rng(777))
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
            np.random.default_rng(5),
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


@pytest.mark.parametrize("semantics", list(CoincidenceSemantics))
@pytest.mark.parametrize("efficiency", [1.0, 0.6])
def test_exact_rates_equal_the_coherent_table(semantics, efficiency):
    """Every exact configuration is the coherent per-trial table, with no vacuum factor.

    exact_one_one agrees to rounding; threshold drops the Poisson tail beyond
    n_max, below 1e-10 of the table at n_max 8 and mu <= 0.1.
    """
    detector = DetectorModel(visibility_eta=0.9, efficiency=efficiency, semantics=semantics)
    tol = 1e-15 if semantics is CoincidenceSemantics.EXACT_ONE_ONE else 1e-10
    for mu_a, mu_b in ((0.1, 0.07), (0.05, 0.08)):
        spec = SourceSpec(mu_a, mu_b, n_max=8)
        for setting in (
            AnalyzerSetting(0.0, math.pi / 8),
            AnalyzerSetting(0.3, 1.1),
            AnalyzerSetting(2.0, -0.4),
        ):
            tables = exact_tables(spec, setting, detector)
            for arm, table in zip(BlockedArm, tables):
                config = replace(spec, blocked=arm)
                reference = measurement._finalize_cells(
                    coherent_outcome_table(config, setting, detector), detector
                )
                error = np.abs(table - reference).max()
                assert error <= tol * np.abs(reference).max(), (arm, setting, error)


def test_threshold_quadrature_is_converged(monkeypatch):
    detector = DetectorModel(
        efficiency=0.8, semantics=CoincidenceSemantics.THRESHOLD, dark_rate=0.01
    )
    setting = AnalyzerSetting(0.3, 1.1)
    specs = (SourceSpec(0.1, 0.1), SourceSpec(10.0, 3.0))
    tables = [coherent_outcome_table(spec, setting, detector) for spec in specs]
    monkeypatch.setattr(measurement, "PHASE_NODES", 2 * measurement.PHASE_NODES)
    coherent_outcome_table.cache_clear()  # else the memo returns the 64-node tables
    for spec, table in zip(specs, tables):
        doubled = coherent_outcome_table(spec, setting, detector)
        assert np.abs(doubled - table).max() <= 1e-15
        assert table.sum() == pytest.approx(1.0, abs=1e-14)


def test_threshold_table_is_bit_identical_to_the_full_phase_rule():
    """Neither the one-node rule nor the per-detector product moves a bit of any table."""
    rng = np.random.default_rng(2024)
    cases = 0
    for arm in BlockedArm:
        for dark in (0.0, 1e-3, 0.05):
            for _ in range(40):
                # from 1e-4 to 10, so the interference term spans faint to dominant
                mu_a, mu_b = 10.0 ** rng.uniform(-4.0, 1.0, size=2)
                spec = SourceSpec(float(mu_a), float(mu_b), blocked=arm)
                setting = AnalyzerSetting(*rng.uniform(-math.pi, math.pi, size=2).tolist())
                detector = DetectorModel(
                    efficiency=float(rng.uniform(0.3, 1.0)), semantics=THRESHOLD, dark_rate=dark
                )
                table = coherent_outcome_table(spec, setting, detector)
                reference = oracle_coherent_threshold_table(spec, setting, detector)
                assert np.array_equal(table, reference), (spec, setting, detector)
                cases += 1
    assert cases >= 300


def test_setup_transform_is_the_composed_elements_bit_for_bit():
    rng = np.random.default_rng(7)
    angles = [(0.0, 0.0), (0.0, math.pi / 8), (math.pi / 4, 3 * math.pi / 8), (-2.0, 0.4)]
    angles += [tuple(rng.uniform(-4.0, 4.0, size=2).tolist()) for _ in range(100)]
    for alpha, beta in angles:
        setting = AnalyzerSetting(alpha, beta)
        rotations = compose(
            polarization_rotator(Port.C, -alpha), polarization_rotator(Port.D, -beta)
        )
        composed = compose(measurement.RECOMBINER, rotations).matrix
        # as uint64 the comparison sees signed zeros too, which dump-transform prints
        for ours, reference in (
            (setup_transform(setting), composed),
            (analyzer_transform(setting), rotations.matrix),
        ):
            assert np.array_equal(ours.matrix.view(np.uint64), reference.view(np.uint64))


def test_setup_stack_members_are_each_setup_transform_bit_for_bit():
    rng = np.random.default_rng(8)
    sweep = [AnalyzerSetting(float(t), 0.0) for t in np.linspace(0.0, math.pi, 17)]
    quad = setting_quad(*rng.uniform(-4.0, 4.0, size=4).tolist())
    for settings in (sweep, quad, sweep[:1]):
        stack = setup_transform(settings).matrix
        assert stack.shape == (len(settings), 8, 8)
        for member, setting in zip(stack, settings):
            reference = setup_transform(setting).matrix
            assert np.array_equal(member.view(np.uint64), reference.view(np.uint64))


def test_threshold_table_without_interference_is_the_product_of_click_probabilities():
    """With one beam dark the phase plays no part: each detector clicks independently."""
    for spec in (
        SourceSpec(1.3, 0.4, blocked=BlockedArm.BLOCK_A),
        SourceSpec(1.3, 0.4, blocked=BlockedArm.BLOCK_B),
        SourceSpec(0.0, 2.5),
        SourceSpec(7.0, 0.0),
    ):
        for setting in (AnalyzerSetting(0.0, math.pi / 8), AnalyzerSetting(2.0, -0.4)):
            for efficiency, dark in ((1.0, 0.0), (0.6, 1e-3), (0.35, 0.05)):
                detector = DetectorModel(
                    efficiency=efficiency, semantics=THRESHOLD, dark_rate=dark
                )
                m_a, m_b = measurement.detected_means(spec, detector)
                u, v = measurement._detector_images(setting)
                mean, image = (m_a, u) if m_a > 0.0 else (m_b, v)
                means = mean * np.abs(image) ** 2 + dark
                fires, silent = (-np.expm1(-means)).tolist(), np.exp(-means).tolist()
                expected = [
                    math.prod(fires[k] if (p >> k) & 1 else silent[k] for k in range(4))
                    for p in range(16)
                ]
                table = coherent_outcome_table(spec, setting, detector)
                assert table.tolist() == expected, (spec, setting, detector)


@pytest.mark.parametrize("runner", [run_montecarlo_fock, run_montecarlo_coherent])
def test_samplers_take_trial_numbers_up_to_a_c_long(runner):
    """A threshold cell can reach 5 * trials, and the draws read counts as a C long."""
    spec, setting = SourceSpec(0.1, 0.1), AnalyzerSetting(0.0, math.pi / 8)
    most = measurement.TRIALS_LIMIT - 1
    assert most == 2**60 - 1
    assert 5 * most < 2**63
    table = runner(spec, setting, IDEAL, most, np.random.default_rng(3))
    assert table.trials == most
    # bright beams, half the events relabeled: every cell fires in almost every trial
    relabeled = DetectorModel(visibility_eta=0.5, semantics=THRESHOLD)
    table = runner(SourceSpec(10.0, 10.0), setting, relabeled, most, np.random.default_rng(3))
    assert (table.values() >= 0.0).all()
    assert table.total <= 4 * most
    for trials in (2**60, 2**63, 10**19):
        with pytest.raises(ValueError, match=r"trials must be at most 2\*\*60 - 1"):
            runner(spec, setting, IDEAL, trials, np.random.default_rng(3))


def test_exact_threshold_refuses_n_max_beyond_the_factorial_table(monkeypatch):
    """A threshold sector can put 2 n_max photons into one mode; apply tabulates n! below 40."""
    assert measurement.EXACT_THRESHOLD_N_MAX == 19
    assert 2 * measurement.EXACT_THRESHOLD_N_MAX < len(elements._FACT)
    monkeypatch.setattr(measurement, "apply", None)  # refused before any propagation
    detector = DetectorModel(semantics=THRESHOLD)
    for n_max in (20, 40, 170):
        with pytest.raises(ValueError) as refused:
            exact_tables(SourceSpec(0.1, 0.1, n_max=n_max), AnalyzerSetting(0.0, 0.3), detector)
        assert str(refused.value) == (
            f"source.n_max must be at most 19 for exact threshold runs, got {n_max}; use mc_fock"
        )
    monkeypatch.undo()
    # exact_one_one propagates two photons whatever n_max is
    deep, shallow = (
        exact_tables(SourceSpec(0.1, 0.1, n_max=n_max), AnalyzerSetting(0.0, 0.3))
        for n_max in (170, 2)
    )
    assert deep.tolist() == shallow.tolist()


def test_fock_outcome_table_refuses_a_mean_with_no_weight_below_n_max():
    """exp(-m) underflows above m of about 745, and with it every weight n <= 8."""
    setting = AnalyzerSetting(0.0, math.pi / 8)
    half = DetectorModel(efficiency=0.5)
    for spec, detector in (
        (SourceSpec(1000.0, 1.0, n_max=8), IDEAL),
        (SourceSpec(1.0, 2000.0, n_max=8), half),
    ):
        with pytest.raises(ValueError) as refused:
            fock_outcome_table(spec, setting, detector)
        assert str(refused.value) == (
            "detected mean 1000: every Poisson weight up to source.n_max = 8 underflows to 0; "
            "use mc_coherent"
        )
    # the detected mean decides: at efficiency 0.5 a mean of 1000 keeps its weights
    table = fock_outcome_table(SourceSpec(1000.0, 1.0, n_max=8), setting, half)
    assert np.isfinite(table).all() and (table >= 0.0).all()


def test_exact_one_one_closed_form_matches_the_phase_node_rule():
    """The closed-form coherent table is the per-node phase average, to rounding."""
    for efficiency, dark in ((1.0, 0.0), (0.6, 0.02), (0.35, 0.05)):
        detector = DetectorModel(efficiency=efficiency, dark_rate=dark)
        for arm in BlockedArm:
            spec = SourceSpec(1.2, 0.3, blocked=arm)
            for setting in (AnalyzerSetting(0.0, math.pi / 8), AnalyzerSetting(2.0, -0.4)):
                table = coherent_outcome_table(spec, setting, detector)
                reference = oracle_exact_one_one_table(
                    spec.effective_mu_a,
                    spec.effective_mu_b,
                    setting.alpha,
                    setting.beta,
                    efficiency=efficiency,
                    dark_rate=dark,
                )
                error = np.abs(table - reference).max()
                assert error <= 1e-15 * reference.max(), (efficiency, arm, setting, error)


@pytest.mark.parametrize("semantics", list(CoincidenceSemantics))
def test_outcome_tables_are_read_only_and_built_once(semantics):
    detector = DetectorModel(semantics=semantics)
    setting = AnalyzerSetting(0.3, 1.1)
    for builder in (fock_outcome_table, coherent_outcome_table):
        table = builder(SourceSpec(0.1, 0.07), setting, detector)
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
        assert builder(SourceSpec(0.1, 0.07), setting, detector) is table


def test_string_enum_values_build_the_same_tables():
    """A str value equals its enum member, so it must mean the same to every builder."""
    setting = AnalyzerSetting(0.3, 1.1)
    by_name = DetectorModel(semantics="exact_one_one")
    assert by_name.semantics is CoincidenceSemantics.EXACT_ONE_ONE
    blocked = SourceSpec(0.1, 0.07, blocked="block_a")
    assert blocked.blocked is BlockedArm.BLOCK_A
    for spec in (SourceSpec(0.1, 0.07), blocked):
        for builder in (fock_outcome_table, coherent_outcome_table):
            named = builder(replace(spec, blocked=spec.blocked.value), setting, by_name)
            builder.cache_clear()
            assert np.array_equal(named, builder(spec, setting, IDEAL))


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
    ours = run_montecarlo_coherent(
        spec, setting, detector, trials, np.random.default_rng(31)
    ).values()
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

    ideal = run_montecarlo_coherent(spec, setting, IDEAL, trials, np.random.default_rng(101))
    faded = run_montecarlo_coherent(
        spec, setting, DetectorModel(visibility_eta=eta), trials, np.random.default_rng(101)
    )
    assert correlation(faded) == pytest.approx(eta * correlation(ideal), abs=0.02)


def test_no_signaling_of_subtracted_marginals():
    spec = SourceSpec(0.05, 0.05)
    alpha = 0.3
    marginals = []
    for beta in (0.0, 0.4, 1.2):
        c = subtracted(spec, AnalyzerSetting(alpha, beta))
        marginals.append((c[0] + c[1], c[2] + c[3]))
    for plus, minus in marginals[1:]:
        assert plus == pytest.approx(marginals[0][0], abs=1e-9)
        assert minus == pytest.approx(marginals[0][1], abs=1e-9)


def test_setting_difference_invariance():
    spec = SourceSpec(0.06, 0.06)

    def subtracted_e(alpha, beta):
        c = subtracted(spec, AnalyzerSetting(alpha, beta))
        return (c[0] - c[1] - c[2] + c[3]) / c.sum()

    for delta in (0.0, 0.17, 1.0):
        assert subtracted_e(0.2 + delta, 0.9 + delta) == pytest.approx(
            subtracted_e(0.2, 0.9), abs=1e-9
        )
