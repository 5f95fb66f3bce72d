"""The one declarative configuration surface: a versioned ScenarioSpec.

Every harness in this repository — figures, claims, chaos, check,
saturate, overload, qualify, tenants — used to be configured through its own
ad-hoc surface (kwargs here, ``WorkloadSpec`` JSON there, a hand-built
:class:`~repro.sim.faults.FaultPlan` elsewhere).  A :class:`ScenarioSpec`
replaces all of them: one versioned, JSON-serializable document of six
sections —

* ``topology``  — layout, initiator hosts, steering policy;
* ``devices``   — device-realism state (prefill fraction);
* ``workload``  — the scenario-specific shape (systems, loads, shapes);
* ``faults``    — an embedded fault plan (:class:`FaultPlan` sub-section);
* ``policies``  — robustness/qualification policies (protection profiles,
  floor overrides);
* ``oracle``    — crash-oracle configuration (crash-point budget, shrink).

— plus ``version`` (this module understands v1) and ``scenario`` (which
harness compiles it).  Validation is strict: unknown fields, unknown
scenarios, and sections a scenario cannot honor are all errors, never
silently ignored.

**Canonical form and digest.**  :meth:`ScenarioSpec.from_dict`
materializes every default (including per-scenario defaults such as
qualify's profile-derived matrix axes), so two documents that mean the
same scenario normalize to the same canonical JSON and therefore the same
:meth:`ScenarioSpec.digest` — the one content-address used by the result
cache.  The display-only ``name`` field is excluded from the digest.

**Legacy upgrade.**  :func:`load_spec` also accepts the pre-spec JSON
shapes — a bare :class:`~repro.check.workload.WorkloadSpec` dict, a
``repro check`` reproducer payload, or a bare fault-plan dict — and
upgrades each to an equivalent v1 spec, so every reproducer ever dumped
stays replayable via ``repro run``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SPEC_VERSION",
    "SCENARIOS",
    "SpecError",
    "ScenarioSpec",
    "load_spec",
    "load_spec_file",
    "diff_specs",
    "upgrade_workload_spec",
    "upgrade_fault_plan",
]

#: The spec version this module reads and writes.
SPEC_VERSION = 1

#: Every harness verb a spec can target.
SCENARIOS = (
    "figure", "claims", "chaos", "check", "saturate", "overload", "qualify",
    "tenants",
)

#: Domain tag mixed into the digest so a ScenarioSpec digest can never
#: collide with a :meth:`~repro.harness.sweep.RunSpec.digest` (both live
#: in the same :class:`~repro.harness.cache.ResultCache` namespace).
_DIGEST_DOMAIN = "repro-scenario-spec-v1"


class SpecError(ValueError):
    """A scenario spec failed validation."""


# ----------------------------------------------------------------------
# Field tables
# ----------------------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class _Field:
    """One validated spec field: type, default, constraints."""

    kind: str                     # int | float | number | bool | str | dict
    #                               | list:<scalar>  ("number" accepts int or
    #                               float and preserves which — used where
    #                               legacy kwargs defaults are ints, so
    #                               compiled cells stay bit-identical)
    default: Any = None
    required: bool = False
    nullable: bool = False
    choices: Tuple = ()
    minimum: Optional[float] = None
    maximum: Optional[float] = None


def _type_name(value: Any) -> str:
    return type(value).__name__


def _normalize_value(value: Any, spec: _Field, path: str) -> Any:
    """Coerce ``value`` to the field's canonical form (or raise)."""
    if value is None:
        if spec.nullable:
            return None
        raise SpecError(f"{path}: may not be null")
    scalar = {
        "int": int, "float": float, "number": float, "bool": bool, "str": str,
    }
    if spec.kind in scalar:
        expected = scalar[spec.kind]
        if spec.kind == "number":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(
                    f"{path}: expected number, got {_type_name(value)}"
                )
            # No coercion: int stays int, float stays float.
        elif expected is bool:
            if not isinstance(value, bool):
                raise SpecError(f"{path}: expected bool, got {_type_name(value)}")
        elif expected is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError(f"{path}: expected int, got {_type_name(value)}")
        elif expected is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(
                    f"{path}: expected number, got {_type_name(value)}"
                )
            value = float(value)
        elif not isinstance(value, str):
            raise SpecError(f"{path}: expected str, got {_type_name(value)}")
        if spec.choices and value not in spec.choices:
            raise SpecError(
                f"{path}: {value!r} not one of {sorted(spec.choices)}"
            )
        if spec.minimum is not None and value < spec.minimum:
            raise SpecError(f"{path}: {value!r} below minimum {spec.minimum}")
        if spec.maximum is not None and value > spec.maximum:
            raise SpecError(f"{path}: {value!r} above maximum {spec.maximum}")
        return value
    if spec.kind.startswith("list:"):
        if not isinstance(value, (list, tuple)):
            raise SpecError(f"{path}: expected list, got {_type_name(value)}")
        item_field = _Field(kind=spec.kind[len("list:"):],
                            minimum=spec.minimum, maximum=spec.maximum,
                            choices=spec.choices)
        return [
            _normalize_value(item, item_field, f"{path}[{i}]")
            for i, item in enumerate(value)
        ]
    if spec.kind == "dict":
        if not isinstance(value, dict):
            raise SpecError(f"{path}: expected object, got {_type_name(value)}")
        return _normalize_json(value, path)
    raise AssertionError(f"unknown field kind {spec.kind!r}")


def _normalize_json(value: Any, path: str) -> Any:
    """Strict JSON normalization for free-form dict fields."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_normalize_json(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        return {
            str(k): _normalize_json(v, f"{path}.{k}")
            for k, v in value.items()
        }
    raise SpecError(f"{path}: {_type_name(value)} is not JSON-encodable")


def _normalize_section(name: str, data: Any,
                       table: Dict[str, _Field]) -> Dict[str, Any]:
    """Validate one section dict against its field table, fill defaults."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise SpecError(f"{name}: expected an object, got {_type_name(data)}")
    unknown = set(data) - set(table)
    if unknown:
        raise SpecError(
            f"{name}: unknown field(s) {sorted(unknown)} "
            f"(known: {sorted(table)})"
        )
    out: Dict[str, Any] = {}
    for key, spec in table.items():
        if key in data:
            out[key] = _normalize_value(data[key], spec, f"{name}.{key}")
        elif spec.required:
            raise SpecError(f"{name}.{key}: required field is missing")
        else:
            default = spec.default
            out[key] = list(default) if isinstance(default, tuple) else default
    return out


# -- shared sections ---------------------------------------------------

_TOPOLOGY = {
    "layout": _Field("str", default=None, nullable=True),
    "initiators": _Field("int", default=None, nullable=True, minimum=1),
    "steering": _Field("str", default="pin",
                       choices=("pin", "round-robin", "least-loaded",
                                "flow-hash")),
}

_DEVICES = {
    "prefill": _Field("float", default=0.0, minimum=0.0, maximum=1.0),
}

_POLICIES = {
    "protections": _Field("list:str", default=None, nullable=True),
    "floors": _Field("dict", default=None, nullable=True),
}

_ORACLE = {
    "enabled": _Field("bool", default=True),
    "max_points": _Field("int", default=0, minimum=0),
    "shrink": _Field("bool", default=True),
}

_FAULT_FIELDS = {
    "seed": _Field("int", default=0),
    "message_loss": _Field("float", default=0.0, minimum=0.0, maximum=1.0),
    "corruption": _Field("float", default=0.0, minimum=0.0, maximum=1.0),
    "delay_probability": _Field("float", default=0.0, minimum=0.0,
                                maximum=1.0),
    "delay_range": _Field("list:float", default=(5e-6, 50e-6), minimum=0.0),
    "timed": _Field("dict", default=None, nullable=True),  # list, see below
}

#: kind -> required detail fields for one timed fault entry.
_TIMED_KINDS: Dict[str, Dict[str, _Field]] = {
    "qp_breakdown": {
        "at": _Field("float", required=True, minimum=0.0),
        "qp_index": _Field("int", required=True, minimum=0),
    },
    "target_stall": {
        "at": _Field("float", required=True, minimum=0.0),
        "target_index": _Field("int", required=True, minimum=0),
        "duration": _Field("float", required=True, minimum=0.0),
    },
    "target_crash": {
        "at": _Field("float", required=True, minimum=0.0),
        "target_index": _Field("int", required=True, minimum=0),
        "restart_after": _Field("float", default=None, nullable=True,
                                minimum=0.0),
    },
    "degrade": {
        "at": _Field("float", required=True, minimum=0.0),
        "target_index": _Field("int", required=True, minimum=0),
        "factor": _Field("float", required=True, minimum=1.0),
        "duration": _Field("float", default=None, nullable=True,
                           minimum=0.0),
    },
}


def _normalize_faults(data: Any) -> Optional[Dict[str, Any]]:
    """Validate the ``faults`` section (an embedded fault plan)."""
    if data is None:
        return None
    if not isinstance(data, dict):
        raise SpecError(f"faults: expected an object, got {_type_name(data)}")
    timed_raw = data.get("timed")
    without_timed = {k: v for k, v in data.items() if k != "timed"}
    out = _normalize_section("faults", without_timed,
                             {k: v for k, v in _FAULT_FIELDS.items()
                              if k != "timed"})
    if len(out["delay_range"]) != 2 or out["delay_range"][1] < out["delay_range"][0]:
        raise SpecError(f"faults.delay_range: bad range {out['delay_range']}")
    if out["message_loss"] + out["corruption"] + out["delay_probability"] > 1.0:
        raise SpecError("faults: probabilities must sum to at most 1")
    timed: List[Dict[str, Any]] = []
    if timed_raw is not None:
        if not isinstance(timed_raw, (list, tuple)):
            raise SpecError("faults.timed: expected a list")
        for i, entry in enumerate(timed_raw):
            if not isinstance(entry, dict):
                raise SpecError(f"faults.timed[{i}]: expected an object")
            kind = entry.get("kind")
            if kind not in _TIMED_KINDS:
                raise SpecError(
                    f"faults.timed[{i}].kind: {kind!r} not one of "
                    f"{sorted(_TIMED_KINDS)}"
                )
            detail = {k: v for k, v in entry.items() if k != "kind"}
            normalized = _normalize_section(
                f"faults.timed[{i}]", detail, _TIMED_KINDS[kind]
            )
            timed.append({"kind": kind, **normalized})
    out["timed"] = timed
    return out


# -- per-scenario workload tables --------------------------------------

_WORKLOADS: Dict[str, Dict[str, _Field]] = {
    "figure": {
        "figure": _Field("str", required=True),
        "options": _Field("dict", default=None, nullable=True),
    },
    "claims": {
        "duration": _Field("float", default=2.5e-3, minimum=0.0),
    },
    "chaos": {
        "systems": _Field("list:str", default=("rio", "horae", "linux")),
        "trials": _Field("int", default=30, minimum=1),
        "base_seed": _Field("int", default=1000),
        "threads": _Field("int", default=4, minimum=1),
        "groups_per_thread": _Field("int", default=12, minimum=1),
        "writes_per_group": _Field("int", default=2, minimum=1),
        "depth": _Field("int", default=4, minimum=1),
        "limit": _Field("float", default=50e-3, minimum=0.0),
        "victim": _Field("int", default=0, minimum=0),
    },
    "check": {
        "systems": _Field("list:str", default=None, nullable=True),
        "layouts": _Field("list:str", default=None, nullable=True),
        "seeds": _Field("list:int", default=(0, 1, 2)),
        "streams": _Field("int", default=2, minimum=1),
        "groups_per_stream": _Field("int", default=4, minimum=1),
        "writes_per_group": _Field("int", default=2, minimum=1),
        "depth": _Field("int", default=2, minimum=1),
        "flush_every": _Field("int", default=2, minimum=0),
    },
    "saturate": {
        "systems": _Field("list:str",
                          default=("linux", "horae", "rio", "barrier")),
        "loads_kiops": _Field("list:number",
                              default=(25, 50, 100, 200, 400, 800),
                              minimum=0.0),
        "tenants": _Field("int", default=4, minimum=1),
        "duration": _Field("float", default=2e-3, minimum=0.0),
        "seed": _Field("int", default=42),
    },
    "overload": {
        "mode": _Field("str", default="metastable",
                       choices=("metastable", "gray")),
        "systems": _Field("list:str", default=("rio",)),
        "loads_kiops": _Field("list:number", default=(400, 1100, 2200),
                              minimum=0.0),
        "tenants": _Field("int", default=4, minimum=1),
        "duration": _Field("float", default=None, nullable=True,
                           minimum=0.0),
        "seed": _Field("int", default=42),
        "offered_kiops": _Field("number", default=120, minimum=0.0),
        "degrade_factor": _Field("float", default=8.0, minimum=1.0),
    },
    "qualify": {
        "profile": _Field("str", default="smoke", choices=("smoke", "full")),
        "systems": _Field("list:str", default=None, nullable=True),
        "blocks_kib": _Field("list:int", default=None, nullable=True),
        "queue_depths": _Field("list:int", default=None, nullable=True),
        "patterns": _Field("list:str", default=None, nullable=True),
        "duration": _Field("float", default=None, nullable=True,
                           minimum=0.0),
        "seed": _Field("int", default=7),
        "sustained": _Field("bool", default=True),
    },
    "tenants": {
        "mode": _Field("str", default="curves", choices=("curves", "storm")),
        "systems": _Field("list:str", default=("linux", "horae", "rio")),
        "loads_kiops": _Field("list:number",
                              default=(25, 50, 100, 200, 400, 800),
                              minimum=0.0),
        "streams": _Field("int", default=4, minimum=1),
        "num_tenants": _Field("int", default=64, minimum=1),
        "zipf_alpha": _Field("float", default=1.1, nullable=True,
                             minimum=0.0),
        "diurnal_amplitude": _Field("float", default=0.0, minimum=0.0),
        "diurnal_period": _Field("float", default=1e-3, minimum=0.0),
        "qos": _Field("bool", default=False),
        "quantum": _Field("float", default=8.0, minimum=0.0),
        "duration": _Field("float", default=None, nullable=True,
                           minimum=0.0),
        "seed": _Field("int", default=42),
    },
}

#: Per-scenario default for ``topology.layout`` (``None`` = the scenario
#: spans layouts itself: check's matrix lives in ``workload.layouts``).
_DEFAULT_LAYOUT: Dict[str, Optional[str]] = {
    "figure": None,
    "claims": None,
    "chaos": "optane",
    "check": None,
    "saturate": "optane",
    "overload": "optane",
    "qualify": "flash-qual",
    "tenants": "optane",
}

#: Per-scenario default for ``topology.initiators`` — saturate and
#: overload drive a 2-initiator shard by default, matching the legacy
#: kwargs entry points.
_DEFAULT_INITIATORS: Dict[str, int] = {
    "figure": 1,
    "claims": 1,
    "chaos": 1,
    "check": 1,
    "saturate": 2,
    "overload": 2,
    "qualify": 1,
    "tenants": 2,
}

#: Sections a scenario's compiler honors beyond ``workload``; any other
#: section left non-default is a validation error, never a silent no-op.
_ALLOWED_SECTIONS: Dict[str, Tuple[str, ...]] = {
    "figure": (),
    "claims": (),
    "chaos": ("topology", "devices", "faults"),
    "check": ("topology", "devices", "faults", "oracle"),
    "saturate": ("topology",),
    "overload": ("topology", "policies"),
    "qualify": ("topology", "policies", "oracle"),
    "tenants": ("topology",),
}

_SECTION_TABLES = {
    "topology": _TOPOLOGY,
    "devices": _DEVICES,
    "policies": _POLICIES,
    "oracle": _ORACLE,
}

_TOP_LEVEL_KEYS = {
    "version", "scenario", "name", "topology", "devices", "workload",
    "faults", "policies", "oracle",
}


def _section_defaults(name: str) -> Dict[str, Any]:
    return _normalize_section(name, {}, _SECTION_TABLES[name])


def _default_topology(scenario: str) -> Dict[str, Any]:
    return {**_section_defaults("topology"),
            "layout": _DEFAULT_LAYOUT[scenario],
            "initiators": _DEFAULT_INITIATORS[scenario]}


def _workload_default(scenario: str, key: str) -> Any:
    default = _WORKLOADS[scenario][key].default
    return list(default) if isinstance(default, tuple) else default


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """One fully-normalized v1 scenario (always build via
    :meth:`from_dict` / :func:`load_spec`, never the constructor)."""

    scenario: str
    name: str = ""
    version: int = SPEC_VERSION
    topology: Dict[str, Any] = field(default_factory=dict)
    devices: Dict[str, Any] = field(default_factory=dict)
    workload: Dict[str, Any] = field(default_factory=dict)
    faults: Optional[Dict[str, Any]] = None
    policies: Dict[str, Any] = field(default_factory=dict)
    oracle: Dict[str, Any] = field(default_factory=dict)

    # -- construction --------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Validate + normalize a raw document into a canonical spec."""
        if not isinstance(data, dict):
            raise SpecError(f"spec: expected an object, got {_type_name(data)}")
        unknown = set(data) - _TOP_LEVEL_KEYS
        if unknown:
            raise SpecError(
                f"spec: unknown top-level key(s) {sorted(unknown)}"
            )
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SpecError(
                f"spec.version: {version!r} is not supported "
                f"(this build reads v{SPEC_VERSION})"
            )
        scenario = data.get("scenario")
        if scenario not in SCENARIOS:
            raise SpecError(
                f"spec.scenario: {scenario!r} not one of {sorted(SCENARIOS)}"
            )
        name = data.get("name", "")
        if not isinstance(name, str):
            raise SpecError("spec.name: expected str")

        topology = _normalize_section("topology", data.get("topology"),
                                      _TOPOLOGY)
        devices = _normalize_section("devices", data.get("devices"), _DEVICES)
        policies = _normalize_section("policies", data.get("policies"),
                                      _POLICIES)
        oracle = _normalize_section("oracle", data.get("oracle"), _ORACLE)
        faults = _normalize_faults(data.get("faults"))
        workload = _normalize_section(
            "workload", data.get("workload"), _WORKLOADS[scenario]
        )

        # Materialize per-scenario defaults so equivalent documents share
        # one canonical form (and therefore one digest).
        if topology["layout"] is None:
            topology["layout"] = _DEFAULT_LAYOUT[scenario]
        if topology["initiators"] is None:
            topology["initiators"] = _DEFAULT_INITIATORS[scenario]

        # Reject sections the scenario's compiler would ignore.  Topology
        # compares against its materialized defaults so canonical output
        # (which spells those defaults out) always re-loads.
        allowed = _ALLOWED_SECTIONS[scenario]
        section_defaults = {
            "topology": _default_topology(scenario),
            "devices": _section_defaults("devices"),
            "policies": _section_defaults("policies"),
            "oracle": _section_defaults("oracle"),
        }
        for section_name, value in (
            ("topology", topology), ("devices", devices),
            ("policies", policies), ("oracle", oracle),
        ):
            if section_name in allowed:
                continue
            if value != section_defaults[section_name]:
                raise SpecError(
                    f"{section_name}: the {scenario!r} scenario does not "
                    f"use this section; remove it (or leave every field "
                    "at its default)"
                )
        if faults is not None and "faults" not in allowed:
            raise SpecError(
                f"faults: the {scenario!r} scenario does not support an "
                "embedded fault plan"
            )
        spec = cls(
            scenario=scenario, name=name, version=SPEC_VERSION,
            topology=topology, devices=devices, workload=workload,
            faults=faults, policies=policies, oracle=oracle,
        )
        _validate_scenario(spec)
        return _resolve_scenario_defaults(spec)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "scenario": self.scenario,
            "name": self.name,
            "topology": dict(self.topology),
            "devices": dict(self.devices),
            "workload": json.loads(json.dumps(self.workload)),
            "faults": (json.loads(json.dumps(self.faults))
                       if self.faults is not None else None),
            "policies": json.loads(json.dumps(self.policies)),
            "oracle": dict(self.oracle),
        }

    def canonical_json(self) -> str:
        """Canonical serialization: sorted keys, compact separators,
        every default materialized.  Parsing it back yields an equal
        spec (idempotence is property-tested)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Stable content address (``name`` excluded: it is display-only).

        This digest is the spec's key in the result cache; together with
        the cache namespace (source-tree digest + ``REPRO_*`` env
        fingerprint, see :func:`repro.harness.cache.code_version`) it is
        the *entire* cache-invalidation rule.
        """
        payload = self.to_dict()
        del payload["name"]
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(
            f"{_DIGEST_DOMAIN}\0{encoded}".encode()
        ).hexdigest()

    def with_(self, **changes) -> "ScenarioSpec":
        """A normalized copy with top-level sections replaced."""
        data = self.to_dict()
        data.update(changes)
        return ScenarioSpec.from_dict(data)

    # -- equality (by canonical content, not object identity) ----------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(self.canonical_json())

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (f"<ScenarioSpec v{self.version} {self.scenario}{label} "
                f"digest={self.digest()[:12]}>")


# ----------------------------------------------------------------------
# Cross-field validation + per-scenario default resolution
# ----------------------------------------------------------------------

#: Timed-fault kinds the (unhardened) check testbed tolerates: faults
#: that only slow things down.  Message loss / corruption / QP breakdown
#: need the chaos plane's retrying driver and would deadlock the checker
#: workload, so they are rejected at validation time.
_CHECK_SAFE_TIMED = ("target_stall", "degrade")


def _validate_scenario(spec: ScenarioSpec) -> None:
    scenario, workload = spec.scenario, spec.workload
    if scenario == "figure":
        from repro.harness.figures import FIGURES

        figure = workload["figure"]
        if figure not in FIGURES:
            raise SpecError(
                f"workload.figure: unknown figure {figure!r} "
                f"(see `python -m repro list`)"
            )
    elif scenario == "check":
        if spec.faults is not None:
            plan = spec.faults
            if plan["message_loss"] or plan["corruption"]:
                raise SpecError(
                    "faults: the check scenario runs an unhardened driver; "
                    "message_loss/corruption would deadlock the workload — "
                    "use delay_probability and timed stall/degrade faults, "
                    "or a chaos scenario"
                )
            for i, entry in enumerate(plan["timed"]):
                if entry["kind"] not in _CHECK_SAFE_TIMED:
                    raise SpecError(
                        f"faults.timed[{i}]: {entry['kind']!r} is not "
                        f"supported under the crash oracle (allowed: "
                        f"{list(_CHECK_SAFE_TIMED)})"
                    )
        needs_layouts = (
            spec.topology["initiators"] > 1
            or spec.devices["prefill"] > 0
            or spec.faults is not None
        )
        if needs_layouts and workload["layouts"] is None:
            raise SpecError(
                "workload.layouts: explicit layouts are required when "
                "initiators > 1, prefill > 0 or a fault plan is embedded "
                "(the default per-system matrix already includes its own "
                "multi-initiator cells)"
            )
        if spec.topology["layout"] is not None:
            raise SpecError(
                "topology.layout: the check scenario spans layouts via "
                "workload.layouts; leave topology.layout null"
            )
        if spec.topology["steering"] != "pin":
            raise SpecError(
                "topology.steering: the check testbed does not steer "
                "completions; leave it at 'pin'"
            )
    elif scenario == "chaos":
        if spec.topology["initiators"] > 1:
            if spec.faults is not None:
                raise SpecError(
                    "faults: multi-initiator chaos trials build their own "
                    "victim-confined plan; remove the faults section or "
                    "set topology.initiators to 1"
                )
            if spec.devices["prefill"] > 0:
                raise SpecError(
                    "devices.prefill: not supported for multi-initiator "
                    "chaos trials"
                )
        if spec.topology["steering"] != "pin":
            raise SpecError(
                "topology.steering: chaos trials pin completions; leave "
                "it at 'pin'"
            )
    elif scenario == "overload":
        if workload["mode"] == "gray":
            for key in ("systems", "loads_kiops", "tenants"):
                if workload[key] != _workload_default("overload", key):
                    raise SpecError(
                        f"workload.{key}: the gray scenario is a fixed "
                        "single-cell experiment; only duration, seed, "
                        "offered_kiops and degrade_factor apply"
                    )
            if spec.policies["protections"] is not None:
                raise SpecError(
                    "policies.protections: the gray scenario runs the "
                    "protected stack only; leave protections out"
                )
            if spec.topology != _default_topology("overload"):
                raise SpecError(
                    "topology: the gray scenario runs on its own fixed "
                    "2-target layout; leave the topology section out"
                )
        if spec.policies["floors"] is not None:
            raise SpecError("policies.floors: only the qualify scenario "
                            "takes floor overrides")
        protections = spec.policies["protections"]
        if protections is not None:
            bad = [p for p in protections if p not in ("off", "full")]
            if bad:
                raise SpecError(
                    f"policies.protections: unknown profile(s) {bad}"
                )
    elif scenario == "tenants":
        if workload["diurnal_amplitude"] >= 1.0:
            raise SpecError(
                "workload.diurnal_amplitude: must be below 1 (the trough "
                "rate 1 - amplitude has to stay positive)"
            )
        if workload["zipf_alpha"] is not None and workload["zipf_alpha"] == 0:
            raise SpecError(
                "workload.zipf_alpha: use null for an unskewed population, "
                "not 0"
            )
        if workload["mode"] == "storm":
            for key in ("loads_kiops", "streams", "num_tenants",
                        "zipf_alpha", "diurnal_amplitude", "diurnal_period",
                        "qos"):
                if workload[key] != _workload_default("tenants", key):
                    raise SpecError(
                        f"workload.{key}: the storm mode is the fixed "
                        "noisy-neighbor acceptance experiment (it sweeps "
                        "QoS on/off itself); only systems, quantum, "
                        "duration and seed apply"
                    )
            if spec.topology != _default_topology("tenants"):
                raise SpecError(
                    "topology: the storm mode runs on its own fixed "
                    "single-initiator testbed; leave the topology "
                    "section out"
                )
    elif scenario == "qualify":
        if spec.policies["protections"] is not None:
            raise SpecError("policies.protections: only the overload "
                            "scenario takes protection profiles")
        floors = spec.policies["floors"]
        if floors is not None:
            for cell_key, cell_floors in floors.items():
                if not isinstance(cell_floors, dict):
                    raise SpecError(
                        f"policies.floors[{cell_key!r}]: expected an "
                        "object of floor-name -> value"
                    )
                for floor_name, value in cell_floors.items():
                    if isinstance(value, bool) or not isinstance(
                        value, (int, float)
                    ):
                        raise SpecError(
                            f"policies.floors[{cell_key!r}][{floor_name!r}]"
                            ": expected a number"
                        )
    if scenario in ("saturate", "overload") or (
        scenario == "tenants" and workload["mode"] == "curves"
    ):
        loads = workload["loads_kiops"]
        if not loads:
            raise SpecError("workload.loads_kiops: need at least one load")
    _validate_names(spec)


def _validate_names(spec: ScenarioSpec) -> None:
    """Layouts and systems must be ones the harnesses can build."""
    from repro.check.runner import DEFAULT_MATRIX
    from repro.harness.experiment import LAYOUTS
    from repro.systems.base import stacks

    layout = spec.topology["layout"]
    for path, what, names, table in (
        ("topology.layout", "layout", [layout] if layout else [], LAYOUTS),
        ("workload.layouts", "layout", spec.workload.get("layouts") or [],
         LAYOUTS),
        ("workload.systems", "system", spec.workload.get("systems") or [],
         DEFAULT_MATRIX if spec.scenario == "check" else stacks()),
    ):
        unknown = [name for name in names if name not in table]
        if unknown:
            raise SpecError(f"{path}: unknown {what}(s) {unknown} "
                            f"(one of {sorted(table)})")


def _resolve_scenario_defaults(spec: ScenarioSpec) -> ScenarioSpec:
    """Materialize scenario-dependent nullable defaults in place."""
    workload = dict(spec.workload)
    changed = False
    if spec.scenario == "overload" and workload["duration"] is None:
        workload["duration"] = 2e-3 if workload["mode"] == "metastable" else 4e-3
        changed = True
    if spec.scenario == "tenants" and workload["duration"] is None:
        workload["duration"] = 2e-3 if workload["mode"] == "curves" else 3e-3
        changed = True
    if spec.scenario == "qualify":
        from repro.harness.qualify import PROFILES

        shape = PROFILES[workload["profile"]]
        resolved = {
            "systems": list(shape.systems),
            "blocks_kib": list(shape.blocks_kib),
            "queue_depths": list(shape.queue_depths),
            "patterns": list(shape.patterns),
            "duration": shape.duration,
        }
        for key, value in resolved.items():
            if workload[key] is None:
                workload[key] = value
                changed = True
    if spec.scenario == "check" and workload["systems"] is None:
        from repro.check.runner import DEFAULT_MATRIX

        workload["systems"] = list(DEFAULT_MATRIX)
        changed = True
    if not changed:
        return spec
    return ScenarioSpec(
        scenario=spec.scenario, name=spec.name, version=spec.version,
        topology=spec.topology, devices=spec.devices, workload=workload,
        faults=spec.faults, policies=spec.policies, oracle=spec.oracle,
    )


# ----------------------------------------------------------------------
# Loaders (v1 + legacy upgrade)
# ----------------------------------------------------------------------

_WORKLOAD_SPEC_KEYS = {
    "system", "layout", "seed", "streams", "groups_per_stream",
    "writes_per_group", "depth", "flush_every", "max_points", "initiators",
    "prefill", "faults",
}

_FAULT_PLAN_KEYS = set(_FAULT_FIELDS)


def upgrade_workload_spec(data: Dict[str, Any]) -> ScenarioSpec:
    """A legacy :class:`~repro.check.workload.WorkloadSpec` dict as an
    equivalent single-cell v1 check spec (replays bit-identically)."""
    from repro.check.workload import WorkloadSpec

    legacy = WorkloadSpec.from_dict(data)
    return ScenarioSpec.from_dict({
        "version": SPEC_VERSION,
        "scenario": "check",
        "name": f"upgraded legacy WorkloadSpec ({legacy.system}/"
                f"{legacy.layout}/seed{legacy.seed})",
        "topology": {"initiators": legacy.initiators},
        "devices": {"prefill": legacy.prefill},
        "workload": {
            "systems": [legacy.system],
            "layouts": [legacy.layout],
            "seeds": [legacy.seed],
            "streams": legacy.streams,
            "groups_per_stream": legacy.groups_per_stream,
            "writes_per_group": legacy.writes_per_group,
            "depth": legacy.depth,
            "flush_every": legacy.flush_every,
        },
        "faults": legacy.faults,
        "oracle": {"max_points": legacy.max_points},
    })


def upgrade_fault_plan(data: Dict[str, Any]) -> ScenarioSpec:
    """A bare fault-plan dict as a v1 chaos spec carrying that plan."""
    return ScenarioSpec.from_dict({
        "version": SPEC_VERSION,
        "scenario": "chaos",
        "name": "upgraded legacy FaultPlan",
        "workload": {"trials": 1},
        "faults": data,
    })


def load_spec(data: Dict[str, Any]) -> ScenarioSpec:
    """Load any supported document shape as a v1 spec.

    Accepts, in order of detection:

    1. a v1 :class:`ScenarioSpec` document (has ``scenario``);
    2. a ``repro check`` reproducer payload
       (``kind == "repro-check-reproducer"``), via its embedded spec;
    3. a bare legacy :class:`~repro.check.workload.WorkloadSpec` dict;
    4. a bare legacy fault-plan dict.
    """
    if not isinstance(data, dict):
        raise SpecError(f"spec: expected an object, got {_type_name(data)}")
    if "scenario" in data or "version" in data:
        return ScenarioSpec.from_dict(data)
    if data.get("kind") == "repro-check-reproducer":
        return upgrade_workload_spec(data["spec"])
    if "system" in data and set(data) <= _WORKLOAD_SPEC_KEYS:
        return upgrade_workload_spec(data)
    if data and set(data) <= _FAULT_PLAN_KEYS:
        return upgrade_fault_plan(data)
    raise SpecError(
        "unrecognized document: not a v1 ScenarioSpec, a check "
        "reproducer, a legacy WorkloadSpec, or a fault plan"
    )


def load_spec_file(path) -> ScenarioSpec:
    """:func:`load_spec` on a JSON file."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return load_spec(data)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------


def diff_specs(a: ScenarioSpec, b: ScenarioSpec) -> List[Tuple[str, Any, Any]]:
    """Field-level differences between two canonical specs.

    Returns ``(dotted_path, a_value, b_value)`` triples, sorted by path;
    empty means the specs are canonically identical (``name`` included —
    diff is a human tool, unlike the digest).
    """
    out: List[Tuple[str, Any, Any]] = []

    def walk(path: str, left: Any, right: Any) -> None:
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                sub = f"{path}.{key}" if path else key
                walk(sub, left.get(key, "<absent>"), right.get(key, "<absent>"))
            return
        if isinstance(left, list) and isinstance(right, list):
            if left != right:
                out.append((path, left, right))
            return
        if left != right:
            out.append((path, left, right))

    walk("", a.to_dict(), b.to_dict())
    return sorted(out)
