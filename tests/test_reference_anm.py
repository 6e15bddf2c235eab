"""The whole ANM run against its plainest transcription (``reference_anm``).

The fast run draws its trials' blocks in lockstep, groups their estimates
into shared rounds and cuts the rounds into kernel calls; the reference runs
one trial at a time with one metered call per estimate. Both must give the
same set, ledger and trials, bit for bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_anm import reference_anm
from submax import NonmonotoneParams, adaptive_nonmonotone_max
from test_kernels import KINDS, make_objective


@settings(derandomize=True, max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(4, 40), k=st.integers(1, 6),
       eps=st.sampled_from([0.3, 0.45, 0.6]), samples=st.integers(4, 40),
       seed=st.integers(0, 2**16))
@example(kind="revenue", n=40, k=5, eps=0.3, samples=30, seed=11)
@example(kind="synthetic-cut", n=40, k=2, eps=0.6, samples=12, seed=3)
@example(kind="image", n=24, k=4, eps=0.45, samples=20, seed=0)
def test_anm_equals_the_reference_run(kind, n, k, eps, samples, seed):
    f = make_objective(kind, n, seed)
    best, ledger, trials = adaptive_nonmonotone_max(
        f, NonmonotoneParams(k=k, eps=eps, delta=0.1, sample_override=samples), seed)
    want_best, want_ledger, want_trials = reference_anm(f, k, eps, 0.1, samples, seed)
    assert best.tolist() == want_best.tolist()
    assert ledger.per_round == want_ledger.per_round
    assert ledger.values == want_ledger.values
    assert ledger.logical_samples == want_ledger.logical_samples
    assert len(trials) == len(want_trials)
    for trial, (s, f_s, reason, led, scans, prefix) in zip(trials, want_trials):
        got = trial.outcome
        assert got.break_reason.value == reason
        assert (got.s.tolist(), got.f_s) == (s.tolist(), f_s)
        assert (got.ledger.per_round, got.ledger.values) == (led.per_round, led.values)
        assert [snap["estimates"] for snap in got.snapshots if snap["t"] is not None] == scans
        if prefix is None:
            assert trial.prefix_set is None
        else:
            assert (trial.prefix_set.tolist(), trial.prefix_value) == (
                prefix[0].tolist(), prefix[1])


def test_the_examples_reach_every_break_reason():
    reasons = set()
    for kind, n, k, eps, samples, seed in [("revenue", 40, 5, 0.3, 30, 11),
                                           ("synthetic-cut", 40, 2, 0.6, 12, 3),
                                           ("image", 24, 4, 0.45, 20, 0)]:
        f = make_objective(kind, n, seed)
        reasons |= {trial[2] for trial in reference_anm(f, k, eps, 0.1, samples, seed)[2]}
    assert reasons >= {"small_A", "full_S", "empty_A"}, reasons
