"""Run configuration: INI-style sectioned key-value files plus validation."""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

# Mode cap, enforced here on configs and by the library on direct calls:
# Fock spaces and order-2 moment matrices are dense in the mode count.  The
# Fock sector size is checked where the space is built (fock_quantum).
MAX_DENSE_MODES = 12
# Bytes of one dense working set: the pair Gram build, the solve of one
# block of a Fock sector and the coefficients of a sampled ensemble are each
# refused over it.
MAX_DENSE_BYTES = 2**30
# The momentum integral for the free-gas density is taken without a
# (2 pi)^-d factor by default; '2pi' switches that factor on.
MOMENTUM_MEASURES = ("unit", "2pi")


class ConfigurationError(ValueError):
    """Refused input: a bad field or argument, or a working set over a cap."""


@dataclass
class ModelConfig:
    dimension: int = 1
    potential: str = "power"  # power | box
    s: float = 4.0
    half_width: float = 6.0
    points: int = 512
    modes: int = 4
    nu: float = 0.0
    num_eigs: int = 0  # 0 means max(modes, 32), at most the grid point count


@dataclass
class InteractionConfig:
    kind: str = "gaussian-bump"  # gaussian-bump | grid-delta | tabulated
    amplitude: float = 0.2
    sigma: float = 0.5
    table_path: str = ""
    renormalized: bool = False


@dataclass
class ClassicalConfig:
    samples: int = 200_000
    seed: int = 7


@dataclass
class QuantumConfig:
    n_max: int = 14
    t_schedule: tuple = (2.0, 4.0, 8.0, 16.0)
    coupling_c: float = 1.0


@dataclass
class HartreeConfig:
    kappa: float = 4.0
    damping: float = 0.3
    tol: float = 1e-8
    max_iter: int = 200
    t_schedule: tuple = (4.0, 8.0, 16.0, 32.0)
    coupling_c: float = 1.0
    shared_modes: int = 32
    points: int = 40  # grid resolution for the self-consistent solves
    momentum_measure: str = "unit"  # unit | 2pi


@dataclass
class OutputConfig:
    directory: str = "out"
    format: str = "json"  # json | csv


@dataclass
class StudyConfig:
    k_schedule: tuple = (8, 16, 32, 64)
    cauchy_samples: int = 20_000


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    interaction: InteractionConfig = field(default_factory=InteractionConfig)
    classical: ClassicalConfig = field(default_factory=ClassicalConfig)
    quantum: QuantumConfig = field(default_factory=QuantumConfig)
    hartree: HartreeConfig = field(default_factory=HartreeConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    study: StudyConfig = field(default_factory=StudyConfig)

    def echo(self) -> dict:
        return asdict(self)


def _coerce(name: str, raw: str, default):
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            parts = [p for p in raw.replace(",", " ").split() if p]
            elem = int if default and isinstance(default[0], int) else float
            return tuple(elem(p) for p in parts)
        return raw
    except ValueError as exc:
        raise ConfigurationError(f"field {name}: cannot parse {raw!r}") from exc


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    text = Path(path).read_text(encoding="utf-8")
    parser.read_string(text)
    cfg = RunConfig()
    for section in parser.sections():
        if section not in {f.name for f in fields(cfg)}:
            raise ConfigurationError(f"unknown section [{section}]")
        target = getattr(cfg, section)
        for key, raw in parser.items(section):
            if key not in {f.name for f in fields(target)}:
                raise ConfigurationError(f"unknown field {section}.{key}")
            default = getattr(target, key)
            setattr(target, key, _coerce(f"{section}.{key}", raw, default))
    validate(cfg)
    return cfg


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigurationError(message)


def validate(cfg: RunConfig) -> None:
    m, i, q, h = cfg.model, cfg.interaction, cfg.quantum, cfg.hartree
    _require(m.dimension in (1, 2), "model.dimension must be 1 or 2")
    _require(m.potential in ("power", "box"),
             "model.potential must be power or box")
    if m.potential == "power":
        _require(m.s > 1, "model.s must exceed 1 for a power trap")
    _require(m.half_width > 0, "model.half_width must be positive")
    _require(m.points >= 8, "model.points must be at least 8")
    _require(m.modes >= 1, "model.modes must be at least 1")
    _require(m.num_eigs == 0 or m.num_eigs >= m.modes,
             "model.num_eigs must be 0 (the default) or at least model.modes")
    _require(i.kind in ("gaussian-bump", "grid-delta", "tabulated"),
             "interaction.kind unknown")
    if i.kind == "grid-delta":
        _require(m.dimension == 1,
                 "interaction.kind=grid-delta requires model.dimension=1")
    if i.kind == "tabulated":
        _require(bool(i.table_path), "interaction.table_path required for tabulated kind")
    _require(cfg.classical.samples >= 2,
             "classical.samples must be at least 2 for standard errors")
    _require(0 <= cfg.classical.seed < 2**64 - 1,  # study-2d also uses seed + 1
             "classical.seed must be in [0, 2**64 - 2]")
    _require(cfg.study.cauchy_samples >= 2,
             "study.cauchy_samples must be at least 2 for standard errors")
    _require(q.n_max >= 0, "quantum.n_max must be nonnegative")
    _require(m.modes <= MAX_DENSE_MODES or q.n_max == 0,
             f"quantum runs require model.modes <= {MAX_DENSE_MODES}")
    for name, sched in (("quantum.t_schedule", q.t_schedule),
                        ("hartree.t_schedule", h.t_schedule),
                        ("study.k_schedule", cfg.study.k_schedule)):
        _require(len(sched) > 0, f"{name} must not be empty")
        _require(all(b > a for a, b in zip(sched[:-1], sched[1:])),
                 f"{name} must be strictly increasing")
    _require(all(t > 0 for t in q.t_schedule), "quantum.t_schedule must be positive")
    _require(all(t > 0 for t in h.t_schedule), "hartree.t_schedule must be positive")
    _require(cfg.study.k_schedule[0] >= 1, "study.k_schedule entries must be at least 1")
    _require(h.kappa > 0, "hartree.kappa must be positive")
    _require(0 < h.damping <= 1, "hartree.damping must be in (0, 1]")
    _require(h.tol > 0, "hartree.tol must be positive")
    _require(h.max_iter >= 1, "hartree.max_iter must be at least 1")
    _require(h.points >= 8, "hartree.points must be at least 8")
    _require(1 <= h.shared_modes <= h.points ** m.dimension,
             "hartree.shared_modes must lie in [1, hartree.points ** model.dimension]")
    _require(h.momentum_measure in MOMENTUM_MEASURES,
             "hartree.momentum_measure must be unit or 2pi")
    _require(cfg.output.format in ("json", "csv"),
             "output.format must be json or csv")
