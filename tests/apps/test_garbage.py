"""No I/O leaves cyclic garbage behind.

Everything a finished write allocates (its bio, flags, ordering attribute,
completion event and the events' callback lists) must be freed by
reference counting alone.  Cyclic garbage is only reclaimed by Python's
cycle collector, whose passes walk the simulator's whole heap; one cycle
per I/O made it a visible share of every run's host time.
"""

import gc

import pytest

from repro.apps.fio import run_block_workload
from repro.apps.varmail import run_varmail
from repro.fs.filesystem import make_filesystem
from repro.harness.experiment import build_cluster
from repro.systems import make_stack


def _fio(system):
    cluster = build_cluster("optane", seed=1)
    stack = make_stack(system, cluster, num_streams=4)

    def cell():
        return run_block_workload(cluster, stack, threads=4, queue_depth=8,
                                  duration=1e-3, seed=1)

    return (cluster, stack), cell


def _varmail(kind):
    cluster = build_cluster("optane", seed=1)
    fs = make_filesystem(kind, cluster,
                         num_journals=(1 if kind == "ext4" else 24))

    def cell():
        return run_varmail(cluster, fs, threads=4, duration=1e-3,
                           warmup=0.2e-3)

    return (cluster, fs), cell


TESTBEDS = {
    "fio-rio": lambda: _fio("rio"),
    "fio-linux": lambda: _fio("linux"),
    "fio-horae": lambda: _fio("horae"),
    "varmail-riofs": lambda: _varmail("riofs"),
    "varmail-ext4": lambda: _varmail("ext4"),
}


@pytest.mark.parametrize("name", sorted(TESTBEDS))
def test_a_short_cell_leaves_no_cyclic_garbage(name):
    testbed, cell = TESTBEDS[name]()  # kept alive across the collection
    gc.collect()
    gc.disable()
    try:
        run = cell()
    finally:
        gc.enable()
    assert run.ops > 0
    assert gc.collect() == 0
    assert testbed
