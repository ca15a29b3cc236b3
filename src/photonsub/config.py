"""Run configuration: built-in parameter table, flat-key config files, overrides.

The config file format is a flat list of dotted keys, one per line::

    # probe pulse
    pulse.mean_photons = 15.76
    absorber.p_ryd = 0.35
    run.shots = 100000

Defaults reproduce the reference experiment's parameter set exactly.  The
table ``KEYS`` lists every key; it drives both reading (``apply_keys``) and
writing (``to_flat``).  Numbers must be finite, except that
``physics.tau_ryd_us`` may be inf (no Rydberg decay).  The file's keys and the
overrides form one mapping, the overrides winning; only its final values are checked.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import reduce
from pathlib import Path
from typing import Any, Callable

from ._checks import check_finite
from .absorber import AbsorberParams
from .bloch import PhysicsParams
from .detector import DetectorConfig
from .pulses import MAX_PHOTONS, PulseSpec

MAX_SEED = 2**64 - 1
# Each stage costs every shot a kernel pass; long cascades drop the joint outcome table.
MAX_STAGES = 100


@dataclass(frozen=True)
class RunConfig:
    pulse: PulseSpec = field(default_factory=lambda: PulseSpec(mean_photons=15.76))
    absorber: AbsorberParams = field(default_factory=AbsorberParams)
    cascade: tuple[AbsorberParams, ...] | None = None
    physics: PhysicsParams = field(default_factory=PhysicsParams)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    shots: int = 100000
    seed: int = 12345
    out_dir: str = "results"
    workers: int = 1
    g2_cell_ns: float = 100.0

    def __post_init__(self) -> None:
        # each message starts with the name of its key, which apply_keys reports
        if self.shots < 1:
            raise ValueError(f"run.shots must be >= 1, got {self.shots}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"run.seed must be an unsigned 64-bit value, got {self.seed}")
        if not 1 <= self.workers <= (cores := os.cpu_count() or 1):
            raise ValueError(f"run.workers must lie in [1, {cores}] (cores), got {self.workers}")
        # config.txt must read the directory back from one 'key = value' line
        if "#" in self.out_dir or len(self.out_dir.splitlines()) > 1 or self.out_dir != self.out_dir.strip():
            raise ValueError(f"run.out_dir must hold no '#', line break or edge whitespace, got {self.out_dir!r}")
        # each (shot, counter) draws its dark count from a Poisson table of this mean
        if not (darks := self.detector.dark_cps * self.pulse.duration_us * 1e-6) <= MAX_PHOTONS:
            raise ValueError(f"detector.dark_cps gives {darks:g} dark counts a pulse, more than {MAX_PHOTONS}")
        check_finite(**{"g2.cell_ns": self.g2_cell_ns})
        if self.g2_cell_ns <= 0:
            raise ValueError(f"g2.cell_ns must be > 0, got {self.g2_cell_ns}")


def parse_stages(text: str) -> tuple[AbsorberParams, ...]:
    stages = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ValueError(f"cascade stage needs 'p_ryd,p_ryd2,t', got {chunk!r}")
        stages.append(AbsorberParams(float(parts[0]), float(parts[1]), float(parts[2])))
    if not stages:
        raise ValueError("cascade.stages is empty")
    if len(stages) > MAX_STAGES:
        raise ValueError(f"{len(stages)} stages, more than {MAX_STAGES}")
    return tuple(stages)


def format_stages(stages: tuple[AbsorberParams, ...]) -> str:
    return "; ".join(f"{s.p_ryd:.10g},{s.p_ryd2:.10g},{s.t:.10g}" for s in stages)


def parse_flat(text: str) -> dict[str, str]:
    """Parse flat 'key = value' lines; '#' starts a comment, last key wins."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _finite(text: str) -> float:
    value = float(text)
    check_finite(value=value)
    return value


def _g(value: float) -> str:
    return f"{value:.10g}"


@dataclass(frozen=True)
class ConfigKey:
    """One flat config key: the ``RunConfig`` attribute path it sets and its text form.

    ``path`` is a dotted attribute path into ``RunConfig`` and defaults to the
    key itself; ``parse`` turns the text into the stored value and ``format``
    turns the stored value back into text.
    """

    name: str
    path: str = ""
    parse: Callable[[str], Any] = float
    format: Callable[[Any], str] = _g

    @property
    def _attrs(self) -> list[str]:
        return (self.path or self.name).split(".")

    def read(self, cfg: RunConfig) -> Any:
        return reduce(getattr, self._attrs, cfg)


# Every config key, in the order of the snapshot that to_flat writes.
KEYS = (
    ConfigKey("pulse.mean_photons"),
    ConfigKey("pulse.duration_us"),
    ConfigKey("pulse.bin_ns", "pulse.bin_width_us", lambda t: float(t) / 1000.0, lambda v: _g(v * 1000.0)),
    ConfigKey("pulse.taper"),
    ConfigKey("absorber.p_ryd"),
    ConfigKey("absorber.p_ryd2"),
    ConfigKey("absorber.t"),
    ConfigKey("cascade.stages", "cascade", parse_stages, format_stages),
    # PhysicsParams takes an infinite detuning as the far-detuned limit; a run
    # needs a finite one.
    ConfigKey("physics.delta_e", parse=_finite),
    ConfigKey("physics.omega_c"),
    ConfigKey("physics.gamma_e"),
    ConfigKey("physics.gamma_deph"),
    ConfigKey("physics.tau_ryd_us"),
    ConfigKey("physics.od_b"),
    ConfigKey("detector.eta_probe"),
    ConfigKey("detector.eta_ion"),
    ConfigKey(
        "detector.split",
        parse=lambda t: tuple(map(float, t.split(","))),
        format=lambda v: ",".join(map(_g, v)),
    ),
    ConfigKey("detector.dead_time_ns"),
    ConfigKey("detector.dark_cps"),
    ConfigKey("run.shots", "shots", int, str),
    ConfigKey("run.seed", "seed", int, str),
    ConfigKey("run.out_dir", "out_dir", str, str),
    ConfigKey("run.workers", "workers", int, str),
    ConfigKey("g2.cell_ns", "g2_cell_ns"),
)
_BY_NAME = {key.name: key for key in KEYS}


def apply_keys(cfg: RunConfig, mapping: dict[str, str]) -> RunConfig:
    """Return a new config with the given flat keys applied, each section built once from its final values."""
    sections: dict[str, dict[str, Any]] = {}
    for name, text in mapping.items():
        try:
            if name not in _BY_NAME:
                raise ValueError(f"unknown config key {name!r}")
            value = _BY_NAME[name].parse(text)
        except ValueError as err:
            raise ValueError(f"config key {name!r}: {err}") from None
        *head, attr = _BY_NAME[name]._attrs
        sections.setdefault(".".join(head), {})[attr] = value
    top = sections.pop("", {})
    for head, values in sections.items():
        try:
            top[head] = replace(getattr(cfg, head), **values)
        except ValueError as err:
            names = ", ".join(repr(name) for name in mapping if _BY_NAME[name]._attrs[0] == head)
            raise ValueError(f"config key {names}: {err}") from None
    try:
        return replace(cfg, **top)
    except ValueError as err:
        raise ValueError(f"config key {str(err).split()[0]!r}: {err}") from None


def load_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """The built-in config with the file's keys and ``overrides`` applied as one mapping, overrides winning."""
    mapping = parse_flat(Path(path).read_text()) if path is not None else {}
    return apply_keys(RunConfig(), {**mapping, **(overrides or {})})


def to_flat(cfg: RunConfig) -> str:
    """Full flat-key snapshot of a config, parseable by load_config."""
    lines = []
    for key in KEYS:
        value = key.read(cfg)
        if value is not None:
            lines.append(f"{key.name} = {key.format(value)}")
    return "\n".join(lines) + "\n"
