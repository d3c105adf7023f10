"""Self-test of the benchmark's correctness checks.

Feeds each check a correct result and a deliberately wrong one, and asserts
that only the wrong one is counted as failed. Runs in well under a second
and needs no cohsh import:

    python3 -m pytest -q perfbench/test_checks.py
"""

import math

import checks
import workloads

N = workloads.SWEEP_POINTS
ETA = 0.9


def _jobs(name: str) -> list:
    return workloads.generate(name, seed=7)


def _chsh(s: float, s_err: float) -> dict:
    return {"e_values": [0.0] * 4, "s": s, "s_err": s_err, "eta": None}


def _sweep(eta: float, sign: float = 1.0) -> list:
    thetas = [k * math.pi / (N - 1) for k in range(N)]
    return [(t, -sign * eta * math.cos(2.0 * t)) for t in thetas]


def _failed(jobs, results) -> list[bool]:
    return [r is not None for r in checks.evaluate(jobs, results, N)]


def test_exact_grid_passes_a_correct_result_and_fails_a_shifted_S():
    jobs = _jobs("exact_grid")
    good = [_chsh(checks.S_IDEAL * j.eta, 0.0) if j.command == "chsh" else _sweep(j.eta) for j in jobs]
    assert _failed(jobs, good) == [False] * len(jobs)
    bad = list(good)
    bad[0] = _chsh(checks.S_IDEAL * jobs[0].eta + 1e-8, 0.0)
    assert _failed(jobs, bad) == [True] + [False] * (len(jobs) - 1)


def test_exact_sweep_fails_when_sign_flipped_or_short():
    assert checks.exact_sweep(_sweep(ETA), ETA, N) is None
    assert checks.exact_sweep(_sweep(ETA, sign=-1.0), ETA, N) is not None
    assert checks.exact_sweep(_sweep(ETA)[:-1], ETA, N) is not None


def test_headline_fails_when_S_is_shifted_by_ten_errors():
    (job,) = _jobs("mc_headline")
    target, s_err = checks.S_IDEAL * job.eta, 0.04
    assert _failed([job], [_chsh(target + 2.0 * s_err, s_err)]) == [False]
    assert _failed([job], [_chsh(target + 10.0 * s_err, s_err)]) == [True]
    assert _failed([job], [_chsh(target - 10.0 * s_err, s_err)]) == [True]


def test_headline_fails_without_a_positive_error_bar():
    (job,) = _jobs("mc_headline")
    target = checks.S_IDEAL * job.eta
    assert _failed([job], [_chsh(target, 0.0)]) == [True]
    assert _failed([job], [_chsh(float("nan"), 0.04)]) == [True]


def test_detector_fails_when_samplers_disagree():
    jobs = _jobs("mc_detector")
    s_err = 0.2
    agree = [_chsh(2.5, s_err), _chsh(2.6, s_err)]
    assert _failed(jobs, agree) == [False, False]
    shift = 10.0 * math.hypot(s_err, s_err)
    assert _failed(jobs, [_chsh(2.5, s_err), _chsh(2.5 - shift, s_err)]) == [True, True]


def test_detector_fails_above_tsirelson():
    jobs = _jobs("mc_detector")
    s_err = 0.01
    above = checks.S_IDEAL + 10.0 * s_err
    assert _failed(jobs, [_chsh(above, s_err), _chsh(above, s_err)]) == [True, True]


def test_a_raised_or_missing_result_fails_and_fails_its_partner():
    jobs = _jobs("mc_detector")
    results = [RuntimeError("cohsh chsh exited with status 2"), _chsh(2.5, 0.2)]
    assert _failed(jobs, results) == [True, True]
    (job,) = _jobs("mc_headline")
    assert _failed([job], [{"s": 2.7}]) == [True]


def test_generator_is_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 3) == workloads.generate(name, 3)
        assert workloads.generate(name, 3) != workloads.generate(name, 4)
