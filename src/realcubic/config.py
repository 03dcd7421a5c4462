"""Tunable knobs, grouped by the stage that consumes them.

The seeds and thresholds that tests and the CLI set, one stage at a time;
settings no caller changes are constants of the module that uses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LineSolveConfig:
    residual_tol: float = 1e-10          # relative backward error per line
    dedupe_tol: float = 1e-6             # Plucker distance for merging paths
    imag_tol: float = 1e-7               # reality threshold after phase fix
    seed: int = 0


@dataclass
class SweepConfig:
    chart_attempts: int = 200             # shear/rotation retries for the curve


@dataclass
class ClassifyConfig:
    probe_lines: int = 24                # random lines for the sphere probe
    probe_extra: int = 16                # escalation when the first round ties
    seed: int = 0


@dataclass
class Config:
    lines: LineSolveConfig = field(default_factory=LineSolveConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    classify: ClassifyConfig = field(default_factory=ClassifyConfig)


DEFAULT = Config()
