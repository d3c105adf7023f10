"""Correctness checks for the results the benchmark asks cohsh for.

Every check takes the parsed result(s) and the job(s) that produced them and
returns a reason string for each failed result (None when it passed). A
result that is missing, unparsable, or raised counts as failed too; the
caller records that before checking.
"""

from __future__ import annotations

import csv
import io
import json
import math

S_IDEAL = 2.0 * math.sqrt(2.0)
EXACT_TOL = 1e-9
SIGMAS = 5.0


def parse(text: str, out_format: str):
    """A chsh result document, or the sweep CSV as (theta, E) pairs."""
    if out_format == "json":
        return json.loads(text)
    rows = list(csv.DictReader(io.StringIO(text)))
    return [(float(r["theta_radians"]), float(r["e_mean"])) for r in rows]


def _s_with_error(doc) -> tuple[float, float]:
    s, s_err = float(doc["s"]), float(doc["s_err"])
    if not (math.isfinite(s) and math.isfinite(s_err) and s_err > 0.0):
        raise ValueError(f"S = {s} +- {s_err} is not a finite value with a positive error")
    return s, s_err


def exact_chsh(doc, eta: float) -> str | None:
    s = float(doc["s"])
    target = S_IDEAL * eta
    if not abs(s - target) <= EXACT_TOL:
        return f"exact S = {s!r}, expected 2*sqrt2*eta = {target!r}"
    return None


def exact_sweep(points, eta: float, n_points: int) -> str | None:
    if len(points) != n_points:
        return f"sweep has {len(points)} points, expected {n_points}"
    worst = max(abs(e + eta * math.cos(2.0 * theta)) for theta, e in points)
    if not worst <= EXACT_TOL:
        return f"sweep max |E + eta cos 2theta| = {worst:.3e}"
    return None


def headline(doc, eta: float) -> str | None:
    s, s_err = _s_with_error(doc)
    target = S_IDEAL * eta
    if not abs(s - target) <= SIGMAS * s_err:
        return f"S = {s:.5f} +- {s_err:.5f} is {abs(s - target) / s_err:.1f} errors from {target:.5f}"
    return None


def detector_pair(doc_fock, doc_coherent) -> tuple[str | None, str | None]:
    """The two samplers must agree, and neither may exceed Tsirelson."""
    values = [_s_with_error(doc_fock), _s_with_error(doc_coherent)]
    reasons: list[str | None] = []
    for s, s_err in values:
        if not s <= S_IDEAL + SIGMAS * s_err:
            reasons.append(f"S = {s:.5f} +- {s_err:.5f} exceeds 2*sqrt2 by more than {SIGMAS:g} errors")
        else:
            reasons.append(None)
    (s_f, e_f), (s_c, e_c) = values
    combined = math.hypot(e_f, e_c)
    if not abs(s_f - s_c) <= SIGMAS * combined:
        disagree = f"samplers disagree: fock S = {s_f:.5f}, coherent S = {s_c:.5f} (combined error {combined:.5f})"
        reasons = [r or disagree for r in reasons]
    return reasons[0], reasons[1]


def evaluate(jobs, results, n_sweep_points: int) -> list[str | None]:
    """One reason (or None) per job. ``results[i]`` is the parsed output of
    ``jobs[i]``, or an exception describing why there is none."""
    reasons: list[str | None] = [None] * len(jobs)
    pair: list[int] = []  # the fock and coherent "detector" results
    for i, (job, result) in enumerate(zip(jobs, results)):
        if isinstance(result, BaseException):
            reasons[i] = f"{type(result).__name__}: {result}"
            continue
        try:
            if job.check == "exact_chsh":
                reasons[i] = exact_chsh(result, job.eta)
            elif job.check == "exact_sweep":
                reasons[i] = exact_sweep(result, job.eta, n_sweep_points)
            elif job.check == "headline":
                reasons[i] = headline(result, job.eta)
            elif job.check == "detector":
                pair.append(i)
            else:
                raise KeyError(f"unknown check {job.check!r}")
        except (KeyError, TypeError, ValueError) as exc:
            reasons[i] = f"malformed result: {type(exc).__name__}: {exc}"
    if len(pair) == 2:
        i, j = pair
        try:
            reasons[i], reasons[j] = detector_pair(results[i], results[j])
        except (KeyError, TypeError, ValueError) as exc:
            reasons[i] = reasons[j] = f"malformed result: {type(exc).__name__}: {exc}"
    else:
        # a partner raised or is missing, so there is nothing to compare with
        for i in pair:
            reasons[i] = f"{len(pair)} detector result(s), expected a fock/coherent pair"
    return reasons
