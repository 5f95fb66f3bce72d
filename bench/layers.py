"""Host-time attribution: map ``src/repro`` files onto the request path's
layers and bucket a ``cProfile`` run by layer.

The layers follow the paper's request path (fs journal -> block-mq ->
NVMe-oF initiator -> fabric -> target -> SSD, as in Fig. 14) plus the
simulator's own engine and the planes around it.  A file belongs to the
layer whose patterns name it; a literal path outranks a ``*`` pattern, so
``harness/tenants.py`` is ``tenants`` although ``harness/*`` also matches.
:func:`check_mapping` fails when a file matches no layer, or two layers
at the same rank.  Code outside ``src/repro`` (the standard library, the
benchmark itself) is the ``python`` layer.

Frames without a source file -- C builtins such as ``heappush`` or a
generator's ``send``, and generated code such as dataclass ``__init__`` --
are charged to the layers of their callers, split by the self time each
caller's calls took (pstats caller records).
"""

from __future__ import annotations

import os
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Tuple

__all__ = [
    "LAYERS",
    "LAYER_NAMES",
    "attribute",
    "check_mapping",
    "classify",
]

#: Layer -> file patterns relative to ``src/repro``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("sim/__init__.py", "sim/engine.py", "sim/calendar.py",
                   "sim/parallel.py"),
    "sim.resources": ("sim/resources.py",),
    "sim.stats": ("sim/stats.py", "sim/obs/*"),
    "sim.support": ("sim/rng.py", "sim/faults.py", "sim/trace.py"),
    "fs": ("fs/*",),
    "block": ("block/*",),
    "core": ("core/*",),
    "systems": ("systems/*",),
    "nvmeof.initiator": ("nvmeof/__init__.py", "nvmeof/initiator.py",
                         "nvmeof/command.py", "nvmeof/costs.py"),
    "nvmeof.target": ("nvmeof/target.py",),
    "net": ("net/*", "hw/nic.py"),
    "hw.ssd": ("hw/ssd.py",),
    "hw.pmr": ("hw/pmr.py",),
    "hw.cpu": ("hw/__init__.py", "hw/cpu.py"),
    "robust": ("robust/*",),
    "scale": ("scale/*",),
    "tenants": ("tenants/*", "harness/tenants.py"),
    "apps": ("apps/*",),
    "harness": ("harness/*", "cluster.py", "multi.py", "spec/*", "check/*",
                "cli.py", "__init__.py", "__main__.py"),
}

PYTHON = "python"
LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS) + (PYTHON,)

#: The engine's heap pops are the simulator's event count.
HEAPPOP = "<built-in method _heapq.heappop>"
#: Called once per NVMe-oF command the initiator builds.
COMMAND_BUILDER = "command_from_request"


def classify(rel: str) -> str:
    """The one layer of a file, given its path relative to ``src/repro``."""
    layers = [layer for layer, patterns in LAYERS.items() if rel in patterns]
    if not layers:
        layers = [
            layer for layer, patterns in LAYERS.items()
            if any("*" in p and fnmatch(rel, p) for p in patterns)
        ]
    if len(layers) != 1:
        raise ValueError(f"{rel} maps to {len(layers)} layers: {layers}")
    return layers[0]


def check_mapping(package_dir: Path) -> List[str]:
    """One message per ``*.py`` file under ``package_dir`` that maps to no
    layer or to more than one."""
    problems = []
    for path in sorted(package_dir.rglob("*.py")):
        try:
            classify(path.relative_to(package_dir).as_posix())
        except ValueError as exc:
            problems.append(str(exc))
    return problems


def attribute(stats: Dict, package_dir: Path) -> Dict[str, object]:
    """Bucket a ``pstats.Stats(...).stats`` table by layer.

    Returns ``self_s`` and ``calls`` per layer (calls count only functions
    defined in that layer's files), the total profiled self time, the
    engine's heap pops and the NVMe-oF commands built.
    """
    package = str(package_dir)
    file_layers: Dict[str, str] = {}

    def file_layer(filename: str):
        # None marks a frame with no source file, charged to its callers.
        if filename == "~" or filename.startswith("<"):
            return None
        if filename not in file_layers:
            rel = os.path.relpath(filename, package)
            file_layers[filename] = (
                PYTHON if rel.startswith("..")
                else classify(rel.replace(os.sep, "/"))
            )
        return file_layers[filename]

    shares_memo: Dict[Tuple, Dict[str, float]] = {}

    def shares(func: Tuple, active: frozenset) -> Dict[str, float]:
        layer = file_layer(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        if func in active or func not in stats:
            return {PYTHON: 1.0}
        callers = stats[func][4]
        weights = {caller: record[2] for caller, record in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: record[1] for caller, record in callers.items()}
        total = sum(weights.values())
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            for name, frac in shares(caller, active | {func}).items():
                out[name] = out.get(name, 0.0) + frac * weight / total
        shares_memo[func] = out or {PYTHON: 1.0}
        return shares_memo[func]

    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    events = commands = 0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        for name, frac in shares(func, frozenset()).items():
            self_s[name] += tt * frac
        layer = file_layer(func[0])
        if layer is not None:
            calls[layer] += nc
            if layer == "nvmeof.initiator" and func[2] == COMMAND_BUILDER:
                commands += nc
        elif func[2] == HEAPPOP:
            events += sum(
                record[1] for caller, record in callers.items()
                if file_layer(caller[0]) == "sim.engine"
            )
    return {
        "self_s": self_s,
        "calls": calls,
        "total_s": sum(self_s.values()),
        "events": events,
        "commands": commands,
    }
