"""Exact outputs of :func:`repro.apps.fio.run_block_workload`.

The closed-loop driver's issue window decides when each thread issues its
next op, so any change to it that is not exact moves these numbers: op and
byte counts, latency samples, the ``repr`` of the mean and p99 latency,
the busy cores of both sides and the commands sent.  The matrix covers
the four ordered stacks at queue depths 1 to 256, batches, the §3.1
journal pattern and durable writes; ``bench/expected`` pins only the QD-1
linux and horae cells and rio at QD 32.
"""

import pytest

from repro.apps.fio import run_block_workload
from repro.cluster import Cluster
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment
from repro.systems import make_stack

CONFIGS = {
    "qd1": dict(threads=1, queue_depth=1),
    "qd4-t2": dict(threads=2, queue_depth=4),
    "qd32-t4": dict(threads=4, queue_depth=32),
    "qd256-t2": dict(threads=2, queue_depth=256),
    "batch4-qd32": dict(threads=2, queue_depth=32, batch=4),
    "journal-qd8": dict(threads=2, queue_depth=8, journal_pattern=True),
    "durable-qd16": dict(threads=2, queue_depth=16, durable=True),
    "journal-durable-seq": dict(threads=1, queue_depth=4, journal_pattern=True,
                                durable=True, pattern="seq"),
}

#: (system, config) -> (ops, bytes, latency samples, repr(mean),
#: repr(p99), repr(initiator busy cores), repr(target busy cores),
#: commands sent).
PINS = {
    ('linux', 'qd1'): (
        35, 143360, 34, '2.8944765059739247e-05', '2.984082920151084e-05',
        '0.21117662078487856', '0.10079999999999795', 35,
    ),
    ('linux', 'qd4-t2'): (
        62, 253952, 54, '0.00012751834619957974', '0.00012890336521883443',
        '0.5610999999999955', '0.18009999999999624', 62,
    ),
    ('linux', 'qd32-t4'): (
        125, 512000, 0, '0.0', '0.0',
        '1.131249999999991', '0.3658597377498302', 125,
    ),
    ('linux', 'qd256-t2'): (
        62, 253952, 0, '0.0', '0.0',
        '0.5610999999999955', '0.18009999999999624', 62,
    ),
    ('linux', 'batch4-qd32'): (
        64, 262144, 0, '0.0', '0.0',
        '0.5611999999999954', '0.18079999999999619', 62,
    ),
    ('linux', 'journal-qd8'): (
        60, 368640, 14, '0.0005404317097805636', '0.0005421065046034889',
        '0.5380221827437651', '0.17259999999999648', 60,
    ),
    ('linux', 'durable-qd16'): (
        61, 249856, 29, '0.0005323020957984437', '0.0005343874422258672',
        '0.5452317967967321', '0.19818250869461332', 61,
    ),
    ('linux', 'journal-durable-seq'): (
        30, 184320, 11, '0.00027634567631443766', '0.00027844473715765163',
        '0.26249999999999796', '0.0889999999999984', 29,
    ),
    ('horae', 'qd1'): (
        29, 118784, 28, '3.439282272302514e-05', '3.5056531817039514e-05',
        '0.16674999999999943', '0.15949999999999748', 29,
    ),
    ('horae', 'qd4-t2'): (
        152, 622592, 144, '5.300551348274761e-05', '5.495925495081273e-05',
        '1.1358044427686487', '0.6515999999999844', 150,
    ),
    ('horae', 'qd32-t4'): (
        296, 1212416, 168, '0.0004339608544454795', '0.0004429217203720024',
        '2.209432961504019', '1.259409675223395', 295,
    ),
    ('horae', 'qd256-t2'): (
        151, 618496, 0, '0.0', '0.0',
        '1.1432933606724247', '0.6475702813892706', 152,
    ),
    ('horae', 'batch4-qd32'): (
        152, 622592, 22, '0.00042356015081370296', '0.0004243499583574525',
        '1.135804442768648', '0.6515999999999844', 150,
    ),
    ('horae', 'journal-qd8'): (
        162, 995328, 65, '0.0001948164559616217', '0.000201049627201521',
        '1.2388338623208202', '0.7031183429437361', 164,
    ),
    ('horae', 'durable-qd16'): (
        152, 622592, 120, '0.00021187461407042664', '0.00021373865096984584',
        '1.1358044427686487', '0.6515999999999844', 150,
    ),
    ('horae', 'journal-durable-seq'): (
        84, 516096, 38, '9.449536970552444e-05', '9.511407804041453e-05',
        '0.6396009215151299', '0.3651999999999911', 85,
    ),
    ('rio', 'qd1'): (
        37, 151552, 36, '2.6735334380510135e-05', '2.8572581027612183e-05',
        '0.11654999999999842', '0.1582499999999967', 37,
    ),
    ('rio', 'qd4-t2'): (
        294, 1204224, 286, '2.7248419211903632e-05', '2.8773948162553846e-05',
        '0.740236287030255', '0.891986129718342', 295,
    ),
    ('rio', 'qd32-t4'): (
        512, 2097152, 384, '0.0002499384011356656', '0.00025232702466510264',
        '1.5205946847101859', '1.7675429804846947', 512,
    ),
    ('rio', 'qd256-t2'): (
        512, 2097152, 328, '0.0005601807999042356', '0.0007563594386769579',
        '1.422674863785514', '1.8706780392498297', 841,
    ),
    ('rio', 'batch4-qd32'): (
        536, 2195456, 118, '0.00011915619766319307', '0.00011990727900489399',
        '0.667769963731272', '0.5087046926734384', 134,
    ),
    ('rio', 'journal-qd8'): (
        358, 2199552, 163, '8.93814954725897e-05', '9.071164934549707e-05',
        '0.6825599999999844', '0.6501499999999831', 179,
    ),
    ('rio', 'durable-qd16'): (
        513, 2101248, 481, '6.245592371181007e-05', '6.482092245217123e-05',
        '1.1545980260068682', '1.6148986884189673', 512,
    ),
    ('rio', 'journal-durable-seq'): (
        214, 1314816, 103, '3.693439452969357e-05', '3.88049454534688e-05',
        '0.4101188309764333', '0.4394999999999907', 108,
    ),
    ('rio-nomerge', 'qd1'): (
        37, 151552, 36, '2.6735334380510135e-05', '2.8572581027612183e-05',
        '0.11654999999999842', '0.1582499999999967', 37,
    ),
    ('rio-nomerge', 'qd4-t2'): (
        294, 1204224, 286, '2.7248419211903632e-05', '2.8773948162553846e-05',
        '0.740236287030255', '0.891986129718342', 295,
    ),
    ('rio-nomerge', 'qd32-t4'): (
        512, 2097152, 384, '0.0002499384011356656', '0.00025232702466510264',
        '1.5205946847101859', '1.7675429804846947', 512,
    ),
    ('rio-nomerge', 'qd256-t2'): (
        512, 2097152, 328, '0.0005601807999042356', '0.0007563594386769579',
        '1.422674863785514', '1.8706780392498297', 841,
    ),
    ('rio-nomerge', 'batch4-qd32'): (
        512, 2097152, 112, '0.0001248033417567577', '0.00012616827774237474',
        '1.1181091000674266', '1.3901884866120962', 510,
    ),
    ('rio-nomerge', 'journal-qd8'): (
        360, 2211840, 164, '8.926799391427213e-05', '9.041294107508906e-05',
        '0.8817474475137921', '1.0660727200454985', 358,
    ),
    ('rio-nomerge', 'durable-qd16'): (
        513, 2101248, 481, '6.245592371181007e-05', '6.482092245217123e-05',
        '1.1545980260068682', '1.6148986884189673', 512,
    ),
    ('rio-nomerge', 'journal-durable-seq'): (
        240, 1474560, 116, '3.319306829668409e-05', '3.5750786472308694e-05',
        '0.540283873381727', '0.7479913096106505', 241,
    ),
}


@pytest.mark.parametrize("system,config", sorted(PINS))
def test_fio_outputs_are_pinned(system, config):
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    params = CONFIGS[config]
    stack = make_stack(system, cluster, num_streams=params["threads"])
    run = run_block_workload(cluster, stack, duration=1e-3, warmup=0.2e-3,
                             **params)
    assert (
        run.ops, run.bytes_written, run.latency.count,
        repr(run.latency.mean), repr(run.latency.p99),
        repr(run.initiator_busy_cores), repr(run.target_busy_cores),
        run.commands_sent,
    ) == PINS[system, config]
