"""The chaos trial: exact pins on one host and on several.

One :func:`run_chaos_trial` covers a single host and N hosts with a
victim.  The pins below are the outputs of the separate single-host and
multi-initiator trials it replaced: the sha256 prefix of the
``completion_log`` repr (exact floats), the driver recovery counts and
the per-node lists.
"""

import hashlib

import pytest

from repro.harness.chaos import run_chaos_trial
from repro.sim.faults import FaultPlan


def _log_digest(result):
    return hashlib.sha256(repr(result.completion_log).encode()).hexdigest()[:16]


#: (seed, victim) -> (log digest, retries, reconnects, node_reconnects,
#: node_retries, elapsed).  ``victim=None`` is the fault-free baseline.
MULTI_INITIATOR_PINS = {
    (4242, None): ("c796c77300a91f32", 0, 0, [0, 0], [0, 0],
                   0.00021155602912846652),
    (4242, 0): ("9f16048533046d5c", 0, 2, [2, 0], [0, 0],
                0.00021155602912846652),
    (4242, 1): ("32a0d1975be49221", 0, 2, [0, 2], [0, 0],
                0.00021149669634792665),
    (2001, None): ("641b4b7d66a33e2b", 0, 0, [0, 0], [0, 0],
                   0.0002124617304680297),
    (2001, 0): ("641b4b7d66a33e2b", 0, 2, [2, 0], [0, 0],
                0.0002124617304680297),
    (2001, 1): ("641b4b7d66a33e2b", 0, 2, [0, 2], [0, 0],
                0.0002124617304680297),
}


@pytest.mark.parametrize("seed,victim", list(MULTI_INITIATOR_PINS))
def test_two_initiator_trial_is_pinned(seed, victim):
    result = run_chaos_trial(system="rio", seed=seed, initiators=2,
                             victim=victim)
    assert result.ok, result.summary()
    assert result.completed_groups == result.total_groups == 48
    assert (_log_digest(result), result.retries, result.reconnects,
            result.node_reconnects, result.node_retries,
            result.elapsed) == MULTI_INITIATOR_PINS[seed, victim]
    if victim is None:
        assert result.fault_counts == {}
    else:
        assert result.fault_counts["qp_breakdown"] >= 1


#: system -> (log digest, retries, reconnects) of the seed-1001 trial.
SINGLE_HOST_PINS = {
    "rio": ("275b22ed72120b8f", 34, 1),
    "linux": ("eebf2ad8aba37c0f", 6, 1),
    "horae": ("de20e816c8aa69fe", 4, 1),
}


@pytest.mark.parametrize("system", sorted(SINGLE_HOST_PINS))
def test_single_host_trial_is_pinned_with_one_node_entry(system):
    result = run_chaos_trial(system=system, seed=1001)
    digest, retries, reconnects = SINGLE_HOST_PINS[system]
    assert (_log_digest(result), result.retries,
            result.reconnects) == (digest, retries, reconnects)
    # The one host's counts, as on N hosts.
    assert result.node_reconnects == [reconnects]
    assert result.node_retries == [retries]


@pytest.mark.parametrize("kwargs", [
    {"plan": FaultPlan(seed=1)},
    {"plan_spec": FaultPlan(seed=1).to_dict()},
    {"prefill": 0.5},
], ids=["plan", "plan_spec", "prefill"])
@pytest.mark.parametrize("initiators,victim", [(2, 0), (2, None), (1, 0)])
def test_victim_and_multi_initiator_trials_reject_single_host_options(
        kwargs, initiators, victim):
    with pytest.raises(ValueError, match="one-initiator trials without"):
        run_chaos_trial(system="rio", seed=1, initiators=initiators,
                        victim=victim, **kwargs)
