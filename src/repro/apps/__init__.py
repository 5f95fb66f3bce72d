"""Application workloads used in the paper's evaluation (§6).

* :mod:`repro.apps.fio` — the FIO-style block/file microbenchmark driver
  behind Figures 2, 3, 10, 11, 12 and 13;
* :mod:`repro.apps.varmail` — the Filebench Varmail personality
  (metadata- and fsync-intensive mail server, Figure 15(a));
* :mod:`repro.apps.kvstore` — an LSM-tree key-value store standing in for
  RocksDB, driven by a db_bench-style ``fillsync`` workload (Figure 15(b)).
"""

from repro.apps.fio import BlockWorkloadResult, run_block_workload
from repro.apps.kvstore import KVStore, run_fillsync
from repro.apps.oltp import OltpDatabase, run_oltp
from repro.apps.varmail import run_fileserver, run_varmail

__all__ = [
    "BlockWorkloadResult",
    "run_block_workload",
    "KVStore",
    "run_fillsync",
    "OltpDatabase",
    "run_oltp",
    "run_varmail",
    "run_fileserver",
]
