"""Exact outputs of the workload drivers other than fio.

Every driver counts its ops, latency samples and busy cores over one
measurement window, so a change to the window's inclusion rule, its
instants or its CPU process moves these numbers.  The pins cover the
Filebench personalities, the OLTP and fillsync databases, the Fig. 13
fsync probe, the open loop with and without a tenant plane, the open
loop as the overload cells drive it (``status_loop``: its goodput,
failures by cause and status-0 latencies) with and without protection,
each on a small window, and the full result of one overload cell per
protection (with timeouts, retries and sheds) and of the gray cell.
:mod:`tests.apps.test_fio_exact` pins the closed-loop fio driver the same
way.

``run_fillsync`` pins its ``puts`` only: its busy cores are checked
against the initiator's own busy time in ``tests/apps/test_kvstore.py``.
"""

from itertools import chain

import pytest

from repro.apps.kvstore import run_fillsync
from repro.apps.oltp import run_oltp
from repro.apps.varmail import run_fileserver, run_varmail
from repro.fs import make_filesystem
from repro.harness.experiment import LAYOUTS, build_cluster
from repro.harness.figures import probe_fs_fsync
from repro.harness.overload import (
    PROTECTED_ADMISSION,
    _hardening,
    probe_gray,
    probe_overload,
)
from repro.scale import (
    OpenLoopConfig,
    ScaleOutCluster,
    run_open_loop,
)
from repro.scale.loadgen import _make_lba_chooser
from repro.sim import Environment
from repro.sim.stats import LatencyRecorder
from repro.systems.base import make_stack
from repro.tenants import DiurnalProfile, TenantDirectory, TenantTrafficPlane

KINDS = ("ext4", "riofs")


def _fs(kind):
    cluster = build_cluster("optane")
    fs = make_filesystem(kind, cluster,
                         num_journals=(1 if kind == "ext4" else 24))
    return cluster, fs


def _varmail(kind, threads):
    cluster, fs = _fs(kind)
    run = run_varmail(cluster, fs, threads=threads, duration=2e-3,
                      warmup=0.2e-3)
    return run.ops, run.fsyncs


def _fileserver(kind, threads):
    cluster, fs = _fs(kind)
    run = run_fileserver(cluster, fs, threads=threads, duration=2e-3,
                         warmup=0.2e-3)
    return run.ops, run.fsyncs


def _oltp(kind, threads):
    cluster, fs = _fs(kind)
    run = run_oltp(cluster, fs, threads=threads, duration=1e-3,
                   warmup=0.2e-3)
    return run.commits, run.cleaner_runs


def _fillsync(kind, threads):
    cluster, fs = _fs(kind)
    run = run_fillsync(cluster, fs, threads=threads, duration=1e-3,
                       warmup=0.1e-3)
    return (run.puts,)


def _fs_fsync(kind, threads):
    row = probe_fs_fsync(kind, threads, duration=1e-3, warmup=0.1e-3)
    return (repr(row["kops"]), repr(row["avg_latency_us"]),
            repr(row["p99_latency_us"]))


def _open_loop(system, plane):
    env = Environment()
    cluster = ScaleOutCluster(env, LAYOUTS["optane"], num_initiators=1,
                              seed=7)
    stack = make_stack(system, cluster, num_streams=4)
    tenant_plane = None
    if plane:
        tenant_plane = TenantTrafficPlane(
            TenantDirectory(num_tenants=32, num_streams=4, seed=7,
                            zipf_alpha=1.1),
            diurnal=DiurnalProfile(amplitude=0.5, period=1e-3),
        )
    run = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=150e3, tenants=4, duration=1e-3, warmup=0.2e-3,
        seed=7,
    ), plane=tenant_plane)
    classes = ()
    if plane:
        classes = tuple(
            (name, stats["count"], repr(stats["p999_us"]))
            for name, stats in sorted(tenant_plane.class_summary().items())
        )
    return (
        run.ops, run.latency.count, repr(run.latency.mean),
        repr(run.latency.p99), repr(run.initiator_busy_cores),
        repr(run.target_busy_cores), classes,
    )


def _status_loop(protection, offered_iops):
    env = Environment()
    cluster = ScaleOutCluster(env, LAYOUTS["optane"], num_initiators=1,
                              seed=7, hardening=_hardening(protection))
    if protection == "full":
        cluster.install_admission(PROTECTED_ADMISSION)
    stack = make_stack("rio", cluster, num_streams=4)
    run = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=offered_iops, tenants=4, duration=1e-3, warmup=0.2e-3,
        seed=7,
    ), rng_label="overload",
        next_lba_for=lambda tenant, rng: _make_lba_chooser(tenant, rng, 4))
    good = LatencyRecorder(chain.from_iterable(run.good_latencies))
    return (
        run.good_ops, run.failed_ops, tuple(sorted(
            run.failures_by_cause.items())),
        repr(good.p50 * 1e6), repr(good.p99 * 1e6), repr(good.p999 * 1e6),
        tuple(len(samples) for samples in run.good_latencies),
    )


def _reprs(row):
    return {key: repr(value) for key, value in row.items()}


def _overload(protection):
    return _reprs(probe_overload("rio", "optane", 1600, protection,
                                 duration=1e-3))


def _gray(seed):
    return _reprs(probe_gray(seed=seed))


DRIVERS = {
    "varmail": _varmail,
    "fileserver": _fileserver,
    "oltp": _oltp,
    "fillsync": _fillsync,
    "fs_fsync": _fs_fsync,
    "open_loop": _open_loop,
    "status_loop": _status_loop,
    "overload": _overload,
    "gray": _gray,
}

CASES = (
    [(name, (kind, threads))
     for name in ("varmail", "fileserver", "oltp", "fillsync", "fs_fsync")
     for kind in KINDS for threads in (1, 4)]
    + [("open_loop", (system, plane))
       for system in ("linux", "rio") for plane in (False, True)]
    + [("status_loop", (protection, load))
       for protection in ("off", "full") for load in (150e3, 3000e3)]
    + [("overload", (protection,)) for protection in ("off", "full")]
    + [("gray", (42,))]
)

#: (driver, args) -> the driver's outputs: counts, and the ``repr`` of
#: latencies and busy cores; for the overload and gray cells, the
#: ``repr`` of every key of the result.
PINS = {
    ('varmail', ('ext4', 1)): (61, 15),
    ('varmail', ('ext4', 4)): (120, 30),
    ('varmail', ('riofs', 1)): (102, 25),
    ('varmail', ('riofs', 4)): (350, 82),
    ('fileserver', ('ext4', 1)): (2598, 1),
    ('fileserver', ('ext4', 4)): (9973, 4),
    ('fileserver', ('riofs', 1)): (2598, 1),
    ('fileserver', ('riofs', 4)): (10376, 4),
    ('oltp', ('ext4', 1)): (8, 0),
    ('oltp', ('ext4', 4)): (16, 0),
    ('oltp', ('riofs', 1)): (19, 0),
    ('oltp', ('riofs', 4)): (24, 1),
    ('fillsync', ('ext4', 1)): (9,),
    ('fillsync', ('ext4', 4)): (16,),
    ('fillsync', ('riofs', 1)): (19,),
    ('fillsync', ('riofs', 4)): (36,),
    ('fs_fsync', ('ext4', 1)): (
        '9.0', '106.61914089901855', '107.59379423583799',
    ),
    ('fs_fsync', ('ext4', 4)): (
        '24.0', '150.89344091694093', '151.70773941066312',
    ),
    ('fs_fsync', ('riofs', 1)): (
        '20.0', '46.11153120559748', '47.07863932378498',
    ),
    ('fs_fsync', ('riofs', 4)): (
        '82.0', '46.86733320261713', '72.79322130114797',
    ),
    ('open_loop', ('linux', False)): (
        123, 104, '0.00021325926264047348', '0.0005236838081775976',
        '1.105682867105821', '0.3605494468067874', (),
    ),
    ('open_loop', ('linux', True)): (
        123, 97, '0.00025893604315505123', '0.0006004238751917924',
        '1.1165201397423854', '0.36090074244012726',
        (('bronze', 67.0, '999.999999999999'),
         ('gold', 1.0, '562.3413251903485'),
         ('silver', 29.0, '999.999999999999')),
    ),
    ('open_loop', ('rio', False)): (
        139, 133, '2.6651360591220694e-05', '2.946082349272142e-05',
        '0.41029999999999417', '0.5037539544506591', (),
    ),
    ('open_loop', ('rio', True)): (
        139, 129, '2.6731948578930633e-05', '3.054108499204208e-05',
        '0.3963039414581051', '0.49291477288722374',
        (('bronze', 90.0, '31.622776601683768'),
         ('gold', 1.0, '31.622776601683768'),
         ('silver', 38.0, '31.622776601683768')),
    ),
    ('status_loop', ('off', 150000.0)): (
        148, 0, (), '26.78448146789503', '29.90886328189642',
        '30.762378405039442', (37, 41, 37, 30),
    ),
    ('status_loop', ('off', 3000000.0)): (
        1073, 5, (('timeout', 5),), '538.3969333874453', '860.2688653450301',
        '877.5368918094229', (215, 80, 112, 176),
    ),
    ('status_loop', ('full', 150000.0)): (
        148, 0, (), '26.78448146789503', '29.90886328189642',
        '30.762378405039442', (37, 41, 37, 30),
    ),
    ('status_loop', ('full', 3000000.0)): (
        513, 0, (), '977.5037579709776', '989.8133742645994',
        '989.8133742645994', (5, 0, 4, 6),
    ),
    ('overload', ('off',)): {
        'offered_kiops': '1600',
        'goodput_kiops': '1019.0',
        'persisted_kiops': '280.0',
        'completion_debt_kiops': '739.0',
        'good_ops': '1019.0',
        'failed_ops': '13.0',
        'timeout_rate': '0.012596899224806201',
        'p50_us': '281.6597642724054',
        'p99_us': '801.6540458054437',
        'p999_us': '816.8171436261443',
        'commands_received': '3620.0',
        'commands_shed': '0.0',
        'shed_rate': '0.0',
        'timeouts': '13.0',
        'retries': '3648.0',
        'retries_suppressed': '0.0',
        'requeues': '0.0',
        'fast_fails': '0.0',
        'dead_streams': '0.0',
    },
    ('overload', ('full',)): {
        'offered_kiops': '1600',
        'goodput_kiops': '512.0',
        'persisted_kiops': '511.0',
        'completion_debt_kiops': '1.0',
        'good_ops': '512.0',
        'failed_ops': '0.0',
        'timeout_rate': '0.0',
        'p50_us': '910.0605606278322',
        'p99_us': '957.488726388265',
        'p999_us': '957.488726388265',
        'commands_received': '1139.0',
        'commands_shed': '255.0',
        'shed_rate': '0.22388059701492538',
        'timeouts': '0.0',
        'retries': '0.0',
        'retries_suppressed': '0.0',
        'requeues': '932.0',
        'fast_fails': '0.0',
        'dead_streams': '0.0',
    },
    ('gray', (42,)): {
        'offered_kiops': '120',
        'goodput_kiops': '93.25',
        'failed_ops': '108.0',
        'brownouts': '108.0',
        'bystander_p999_us': '31.281601266157715',
        'bystander_samples': '106.0',
        'sick_tenants_active': '2.0',
        'breaker_trips': '1.0',
        'sick_breaker_open': '1.0',
        'healthy_breakers_closed': '1.0',
        'failovers': '3.0',
        'unordered_good': '129.0',
        'unordered_failed': '0.0',
        'unordered_on_sick': '47.0',
        'unordered_on_healthy': '82.0',
        'commands_received': '662.0',
        'commands_shed': '0.0',
        'shed_rate': '0.0',
        'timeouts': '0.0',
        'retries': '0.0',
        'retries_suppressed': '0.0',
        'requeues': '0.0',
        'fast_fails': '108.0',
        'dead_streams': '2.0',
    },
}


@pytest.mark.parametrize("driver,args", CASES,
                         ids=[f"{d}-{'-'.join(map(str, a))}"
                              for d, a in CASES])
def test_driver_outputs_are_pinned(driver, args):
    assert DRIVERS[driver](*args) == PINS[driver, args]
