"""Projection-based SDR evaluation with permutation matching.

SDR here projects the estimate onto the reference (scale-invariant,
single-source target) rather than running full BSS-eval with distortion
filters; numbers are internally consistent across algorithms.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .dsp import Waveform
from .errors import CountMismatch, SilentReference

SDR_CAP_DB = 100.0


@dataclass(frozen=True)
class EvalResult:
    per_source_sdr_db: list
    sdr_improvement_db: list
    permutation: tuple  # estimate index -> reference index


def _aligned(reference: Waveform, estimate: Waveform):
    n = min(len(reference), len(estimate))
    return reference.samples[:n], estimate.samples[:n]


def sdr(reference: Waveform, estimate: Waveform) -> float:
    """Scale-invariant SDR in dB, capped at +100 for exact reconstructions."""
    ref, est = _aligned(reference, estimate)
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise SilentReference("reference signal is silent")
    s_target = (np.dot(est, ref) / ref_energy) * ref
    e = est - s_target
    p_target = float(np.dot(s_target, s_target))
    p_error = float(np.dot(e, e))
    if p_error < 1e-20 * p_target:
        return SDR_CAP_DB
    if p_target == 0.0:
        return -SDR_CAP_DB
    return float(np.clip(10.0 * np.log10(p_target / p_error), -SDR_CAP_DB, SDR_CAP_DB))


def best_permutation(references, estimates, mixture: Waveform = None) -> EvalResult:
    """Exhaustive matching maximizing mean SDR (ties to the
    lexicographically smallest permutation)."""
    if len(references) != len(estimates):
        raise CountMismatch(f"{len(references)} references vs {len(estimates)} estimates")
    m = len(references)
    table = np.array([[sdr(ref, est) for ref in references] for est in estimates])
    best_perm, best_mean = None, -np.inf
    for perm in permutations(range(m)):
        mean = float(np.mean([table[i, perm[i]] for i in range(m)]))
        if mean > best_mean + 1e-12:
            best_perm, best_mean = perm, mean
    per_source = [float(table[i, best_perm[i]]) for i in range(m)]
    if mixture is not None:
        base = [sdr(references[best_perm[i]], mixture) for i in range(m)]
        improvement = [s - b for s, b in zip(per_source, base)]
    else:
        improvement = [float("nan")] * m
    return EvalResult(per_source, improvement, best_perm)


CSV_HEADER = "clip_id,algorithm,mode,snr_db,noise_kind,source_idx,sdr_db,sdr_improvement_db"

