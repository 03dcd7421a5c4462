"""Tunable knobs, grouped by the stage that consumes them.

Everything numeric that is not a mathematical constant lives here so tests
and the CLI can tighten or relax one stage without touching the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LineSolveConfig:
    residual_tol: float = 1e-10          # relative backward error per line
    dedupe_tol: float = 1e-6             # Plucker distance for merging paths
    imag_tol: float = 1e-7               # reality threshold after phase fix
    newton_steps: int = 40
    max_charts: int = 6
    dt_min: float = 1e-7
    dt_max: float = 0.1
    divergence_cutoff: float = 1e7
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
