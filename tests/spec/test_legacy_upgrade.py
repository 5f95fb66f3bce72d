"""A check cell as a single-cell check spec replays bit-identically.

``repro check`` reports each shrunk failing cell (a ``WorkloadSpec``) as
the ScenarioSpec that :func:`repro.spec.compile._check_cell_spec` makes
of it; ``repro run`` on that spec must re-run exactly that cell.
"""

from repro.check import WorkloadSpec, check_workload
from repro.check.runner import build_matrix_specs, run_check_matrix
from repro.sim.faults import FaultPlan
from repro.spec import ScenarioOutcome, load_spec_file, run_scenario
from repro.spec.compile import _check_cell_spec, _check_cells

_CELL = WorkloadSpec(system="linux", layout="optane", seed=0, streams=1,
                     groups_per_stream=2, writes_per_group=1, depth=1,
                     flush_every=2, max_points=4)


def test_upgraded_workload_spec_replays_bit_identically():
    outcome = run_scenario(_check_cell_spec(_CELL))
    legacy = run_check_matrix(build_matrix_specs(
        systems=["linux"], layouts=["optane"], seeds=[0], streams=1,
        groups_per_stream=2, writes_per_group=1, depth=1, flush_every=2,
        max_points=4,
    ))
    assert outcome.render() == legacy.render()
    assert outcome.ok == legacy.ok


def test_upgrade_preserves_every_workload_field():
    cell = _CELL.with_(system="rio", layout="2optane-2targets",
                       initiators=2, prefill=0.5, seed=9)
    spec = _check_cell_spec(cell)
    assert spec.topology["initiators"] == 2
    assert spec.devices["prefill"] == 0.5
    assert spec.workload["layouts"] == ["2optane-2targets"]
    assert spec.workload["seeds"] == [9]
    # Compiling the spec gives back exactly the one cell.
    assert _check_cells(spec) == [cell]


def test_reproducer_is_named_after_its_fail_row_and_keeps_its_digest():
    spec = _check_cell_spec(_CELL)
    assert spec.name == "failing check cell check:linux/optane seed 0"
    # The name is outside the digest, so renaming moved no cache key.
    assert spec.digest() == (
        "cac1f1c071453b4181ff7415dad9a54ecc5b6094c70c6f22a7c2be6782448231")


def test_dumped_reproducer_runs_via_the_spec_path(tmp_path):
    spec = _check_cell_spec(_CELL)
    outcome = ScenarioOutcome(spec=spec, result=None, reproducers=[spec])
    (path,) = outcome.dump_reproducers(tmp_path)
    assert load_spec_file(path) == spec
    replayed = run_scenario(load_spec_file(path))
    ((cell, report),) = replayed.result.cells
    assert cell == _CELL
    assert report == check_workload(_CELL).as_dict()


def test_faultplan_serialization_round_trips():
    plan = FaultPlan(seed=3, message_loss=0.02, corruption=0.01,
                     delay_probability=0.05, delay_range=(1e-6, 9e-6))
    plan.qp_breakdown(at=2e-4, qp_index=1)
    plan.target_crash(at=3e-4, target_index=0, restart_after=1e-4)
    plan.degrade(at=4e-4, target_index=0, factor=4.0, duration=2e-4)
    rebuilt = FaultPlan.from_dict(plan.to_dict())
    assert rebuilt.to_dict() == plan.to_dict()
