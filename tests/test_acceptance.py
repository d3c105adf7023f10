"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failure).  Criterion 3 is the statistical headline run
and takes a couple of minutes; everything else is fast.
"""

import itertools
import math
import time

import numpy as np

from cohsh.chsh import (
    BELL_TEST_ANGLES,
    SubtractedCorrelation,
    chsh_S,
    correlation_E,
    fit_visibility,
    run_chsh,
    setting_quad,
    subtract_background,
    sweep_correlation,
)
from cohsh.elements import apply, beam_splitter, compose, phase_shift, polarization_rotator
from cohsh.fock import FockBasisState, Port, StateVector, basis_state, density_matrix
from cohsh.measurement import (
    AnalyzerSetting,
    DetectorModel,
    exact_rates,
    protocol,
    run_montecarlo_coherent,
    run_montecarlo_fock,
)
from cohsh.source import (
    SourceSpec,
    phase_averaged_coherent,
    poisson_diagonal_mixture,
    poisson_pmf,
    trace_distance,
)

from helpers import assert_states_close
from oracle import (
    oracle_bs_expand,
    oracle_sector_tables,
    oracle_singlet_E,
    oracle_unsubtracted_E,
)

IDEAL = DetectorModel()
SQRT2 = math.sqrt(2.0)
S_IDEAL = 2.0 * SQRT2
ETA_REFERENCE = 0.964
S_REFERENCE = S_IDEAL * ETA_REFERENCE  # 2.7266...


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {detail}")


def test_criterion_1_singlet_correlation_law():
    """Subtracted exact-mode E equals -cos 2(alpha - beta) on a 16-point grid."""
    start = time.perf_counter()
    alphas = (0.0, math.pi / 8, math.pi / 3, 0.9)
    betas = (0.1, math.pi / 4, 1.2, 2.0)
    worst = 0.0
    for mu, (alpha, beta) in zip(
        itertools.cycle((0.05, 0.08, 0.1)), itertools.product(alphas, betas)
    ):
        spec = SourceSpec(mu, mu)
        (tables,) = exact_rates(spec, (AnalyzerSetting(alpha, beta),), IDEAL)
        e, _ = correlation_E(subtract_background(tables, protocol(spec, IDEAL))[0], 0)
        worst = max(worst, abs(float(e) - oracle_singlet_E(alpha, beta)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"singlet law residual {worst:.3e}"
    assert elapsed < 5.0, f"grid took {elapsed:.2f}s (budget 5s)"
    _report(1, f"max |E + cos 2(a-b)| = {worst:.3e} over 16 settings in {elapsed:.2f}s")


def test_criterion_2_tsirelson_and_visibility_scaled_S():
    start = time.perf_counter()
    ideal = run_chsh(SourceSpec(0.05, 0.05), IDEAL).result.s_value
    faded = run_chsh(
        SourceSpec(0.05, 0.05), DetectorModel(visibility_eta=ETA_REFERENCE)
    ).result.s_value
    elapsed = time.perf_counter() - start
    assert abs(ideal - S_IDEAL) < 1e-9
    assert abs(faded - S_REFERENCE) < 1e-9
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"
    _report(
        2,
        f"S = {ideal:.12f} (2*sqrt2), eta={ETA_REFERENCE} -> S = {faded:.6f} "
        f"(= 2*sqrt2*eta) in {elapsed:.2f}s",
    )


def test_criterion_3_statistical_headline():
    """Coherent-mode Monte Carlo reproduces S = 2*sqrt2*eta within its error bar.

    A laboratory run of this protocol yields S with an error bar set by its
    own counting statistics, so the gate here is statistical consistency of
    the full sampled pipeline with 2*sqrt2*eta at eta = 0.964, using the
    repetition-based error the protocol reports.
    """
    start = time.perf_counter()
    run = run_chsh(
        SourceSpec(0.05, 0.05),
        DetectorModel(visibility_eta=ETA_REFERENCE),
        mode="mc_coherent",
        trials=10_000_000,
        repetitions=10,
        seed=20260810,
    )
    elapsed = time.perf_counter() - start
    result = run.result
    assert result.s_error > 0.0
    deviation = abs(result.s_value - S_REFERENCE)
    assert deviation <= 3.0 * result.s_error, (
        f"S = {result.s_value:.4f} +- {result.s_error:.4f}, "
        f"target {S_REFERENCE:.4f}, off by {deviation / result.s_error:.2f} errors"
    )
    _report(
        3,
        f"S = {result.s_value:.4f} +- {result.s_error:.4f} vs {S_REFERENCE:.4f} "
        f"({deviation / result.s_error:.2f} errors) in {elapsed:.0f}s "
        f"[target 300s, soft]",
    )


#: Exact-pipeline value of the unsubtracted S at the Bell angles, sqrt(2)/2,
#: first computed with the brute-force sector oracle and frozen here.
S_RAW_PINNED = 0.7071067811865476


def test_criterion_4_subtraction_necessity():
    spec = SourceSpec(0.05, 0.05)
    subtracted = run_chsh(spec, IDEAL).result.s_value
    settings = setting_quad(*BELL_TEST_ANGLES)
    # the open configuration's table at each setting, unsubtracted
    e, error = correlation_E(exact_rates(spec, settings, IDEAL)[:, 0], 0)
    raw_corrs = [SubtractedCorrelation(*pair) for pair in zip(e.tolist(), error.tolist())]
    oracle_es = [oracle_unsubtracted_E(setting.alpha, setting.beta) for setting in settings]
    s_raw = chsh_S(raw_corrs).s_value
    s_raw_oracle = abs(oracle_es[0] - oracle_es[1] + oracle_es[2] + oracle_es[3])
    assert s_raw < subtracted
    assert abs(s_raw - s_raw_oracle) < 1e-12
    assert abs(s_raw - S_RAW_PINNED) < 1e-9
    _report(
        4,
        f"S_raw = {s_raw:.12f} (pinned sqrt2/2) < S_subtracted = {subtracted:.6f}",
    )


def test_criterion_5_two_photon_decomposition():
    """The exact table is the Poisson-weighted sum of the closed-form two-photon tables."""
    spec = SourceSpec(0.05, 0.05)
    worst = 0.0
    for setting in setting_quad(*BELL_TEST_ANGLES):
        table = exact_rates(spec, (setting,), IDEAL)[0, 0]
        sectors = oracle_sector_tables(setting.alpha, setting.beta)
        pieces = sum(
            poisson_pmf(spec.mu_a, i) * poisson_pmf(spec.mu_b, j) * sectors[key]
            for key, i, j in (("one_one", 1, 1), ("two_zero", 2, 0), ("zero_two", 0, 2))
        )
        worst = max(worst, float(np.abs(table - pieces).max()))
    assert worst < 1e-6, f"decomposition residual {worst:.3e}"
    _report(5, f"max |N - two-photon decomposition| = {worst:.3e} (tol 1e-6)")


def test_criterion_6_phase_average_identity():
    mu, n_max = 0.2, 8
    rho = density_matrix(phase_averaged_coherent(mu, n_max, 256), n_max)
    sigma = density_matrix(poisson_diagonal_mixture(mu, n_max), n_max)
    distance = trace_distance(rho, sigma)
    assert distance < 1e-6
    _report(6, f"trace distance to Poisson mixture = {distance:.3e} at K=256 (tol 1e-6)")


def test_criterion_7_cross_sampler_equivalence():
    spec = SourceSpec(0.05, 0.05)
    trials = 1_000_000
    worst = 0.0
    for idx, setting in enumerate(setting_quad(*BELL_TEST_ANGLES)):
        fock = run_montecarlo_fock(
            spec, setting, IDEAL, trials, np.random.default_rng(1000 + idx)
        ).values()
        coherent = run_montecarlo_coherent(
            spec, setting, IDEAL, trials, np.random.default_rng(2000 + idx)
        ).values()
        pooled = (fock + coherent) / (2.0 * trials)
        sigma = np.sqrt(pooled * (1.0 - pooled) * 2.0 * trials) + 1e-9
        pulls = np.abs(fock - coherent) / sigma
        worst = max(worst, float(pulls.max()))
    assert worst <= 5.0, f"worst sampler disagreement {worst:.2f} sigma"
    _report(
        7,
        f"fock vs coherent sampler: worst cell pull {worst:.2f} sigma "
        f"over 4 settings x 1e6 trials (tol 5)",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(808)
    splitter = beam_splitter(Port.A, Port.B)

    # generated transforms stay unitary, including long compositions
    worst_defect = 0.0
    for _ in range(25):
        transform = splitter
        for _ in range(int(rng.integers(1, 6))):
            pick = int(rng.integers(0, 3))
            if pick == 0:
                step = beam_splitter(Port.A, Port.B, rng.uniform(0, math.pi))
            elif pick == 1:
                step = polarization_rotator(
                    Port(str(rng.choice(list("abcd")))), rng.uniform(-3, 3)
                )
            else:
                step = phase_shift(Port(str(rng.choice(list("abcd")))), rng.uniform(0, 7))
            transform = compose(transform, step)
        worst_defect = max(worst_defect, transform.unitarity_defect())
    assert worst_defect < 1e-12

    # photon-number conservation and norm preservation
    for _ in range(10):
        occ = [0] * 8
        for _ in range(int(rng.integers(1, 5))):
            occ[int(rng.integers(0, 8))] += 1
        state = StateVector.from_basis(FockBasisState(tuple(occ)))
        out = apply(splitter, state)
        assert abs(out.norm() - 1.0) < 1e-12
        assert {sum(s.occ) for s, _ in out.items()} == {sum(occ)}

    # Hong-Ou-Mandel cancellation
    hom = apply(splitter, StateVector.from_basis(basis_state(aH=1, bH=1)))
    residual = max(
        (
            abs(a)
            for s, a in hom.items()
            if sum(s.occ[4:6]) == 1 and sum(s.occ[6:8]) == 1
        ),
        default=0.0,
    )
    assert residual < 1e-12

    # oracle equivalence on every two-port basis state with <= 4 photons
    worst_oracle = 0.0
    count = 0
    for occ4 in itertools.product(range(5), repeat=4):
        if not 0 < sum(occ4) <= 4:
            continue
        state = FockBasisState(tuple(occ4) + (0, 0, 0, 0))
        ours = apply(splitter, StateVector.from_basis(state))
        reference = oracle_bs_expand(state)
        keys = {s for s, _ in ours.items()} | {s for s, _ in reference.items()}
        worst_oracle = max(
            worst_oracle,
            max(abs(ours.amplitude(k) - reference.amplitude(k)) for k in keys),
        )
        count += 1
    assert count == 69
    assert worst_oracle < 1e-10

    # composition homomorphism on randomized transforms and states
    for _ in range(10):
        u = compose(splitter, polarization_rotator(Port.C, rng.uniform(-3, 3)))
        v = compose(phase_shift(Port.D, rng.uniform(0, 7)), beam_splitter(Port.C, Port.D))
        occ = [0] * 8
        occ[int(rng.integers(0, 4))] += 1
        occ[int(rng.integers(0, 4))] += 1
        state = StateVector.from_basis(FockBasisState(tuple(occ)))
        assert_states_close(apply(compose(u, v), state), apply(v, apply(u, state)))

    _report(
        8,
        f"unitarity defect {worst_defect:.2e}, HOM residual {residual:.2e}, "
        f"oracle mismatch {worst_oracle:.2e} over {count} states",
    )


def test_criterion_9_visibility_fits():
    thetas = np.linspace(0.0, math.pi, 17)
    recovered = {}
    for eta in (1.0, 0.964, 0.8):
        points = sweep_correlation(
            SourceSpec(0.05, 0.05), DetectorModel(visibility_eta=eta), thetas
        )
        fit = fit_visibility((p.theta, p.e_mean, p.e_std) for p in points)
        assert abs(fit.eta - eta) < 1e-9, f"eta {eta} recovered as {fit.eta}"
        recovered[eta] = fit.eta

    rng = np.random.default_rng(909)
    eta, sigma = 0.964, 0.02
    hits = 0
    for _ in range(100):
        noisy = [
            (t, -eta * math.cos(2.0 * t) + sigma * rng.normal(), sigma) for t in thetas
        ]
        fit = fit_visibility(noisy)
        hits += abs(fit.eta - eta) <= 3.0 * fit.eta_error
    assert hits >= 95, f"coverage {hits}/100"
    _report(
        9,
        f"noiseless fits exact for eta in {{1.0, 0.964, 0.8}}; "
        f"noisy coverage {hits}/100 (needs >= 95)",
    )
