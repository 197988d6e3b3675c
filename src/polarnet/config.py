"""Flat key=value run configuration.

One key per line, ``#`` starts a comment, unset keys fall back to the
study defaults. Exactly one graph source must be configured before a
simulation can run: either ``edges``+``attrs`` files or a ``generator``
with its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .epidemic import SEED_POOLS, EpidemicParams, Seeding
from .errors import ConfigError
from .experiment import AllocationStrategy
from .generators import GENERATOR_KINDS, GENERATOR_PARAMS, GeneratorSpec
from .graph import AnnotatedGraph, load_edge_list

# config key -> (RunConfig attribute or EpidemicParams attribute, type)
_GRAPH_KEYS = {
    "edges": ("edges", str),
    "attrs": ("attrs", str),
    "generator": ("generator", str),
    **{key: (key, kind) for key, kind in GENERATOR_PARAMS.items()},
    "graph_seed": ("graph_seed", int),
}
_EPIDEMIC_KEYS = {
    "R": ("infection_rate", float),
    "S_as": ("age_scale", float),
    "A_si": ("asymptomatic_scale", float),
    "B_n": ("network_scale", float),
    "I_bar": ("daily_interactions", float),
    "mu": ("curve_mean", float),
    "sigma": ("curve_sd", float),
    "VET": ("vet", float),
    "VEI": ("vei", float),
    "t_max_infectious": ("max_infectious_days", int),
    "horizon": ("horizon", int),
    "vet_mode": ("vet_mode", str),
}
_RUN_KEYS = {
    "seed_count": ("seed_count", int),
    "seed_pool": ("seed_pool", str),
    "n_runs": ("n_runs", int),
    "master_seed": ("master_seed", int),
    "strategy": ("strategy", str),
    "homogeneous_redraw": ("homogeneous_redraw", bool),
    "out_dir": ("out_dir", str),
    "threads": ("threads", int),
}
CONFIG_KEYS = {**_GRAPH_KEYS, **_EPIDEMIC_KEYS, **_RUN_KEYS}


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation or comparison invocation needs."""

    edges: str | None = None
    attrs: str | None = None
    generator: str | None = None
    n: int | None = None
    p: float | None = None
    k_ring: int | None = None
    p_rewire: float | None = None
    m: int | None = None
    n_pro: int | None = None
    n_anti: int | None = None
    p_in: float | None = None
    p_out: float | None = None
    graph_seed: int = 0
    params: EpidemicParams = field(default_factory=EpidemicParams)
    seed_count: int = 10
    seed_pool: str = "all"
    n_runs: int = 100
    master_seed: int = 0
    strategy: str = "polarized"
    homogeneous_redraw: bool = True
    out_dir: str = "."
    threads: int = 0

    def seeding(self) -> Seeding:
        return Seeding(count=self.seed_count, pool=self.seed_pool)

    def strategy_enum(self) -> AllocationStrategy:
        return AllocationStrategy(self.strategy)

    def resolve_graph(self) -> AnnotatedGraph:
        """Build or load the configured graph (exactly one source allowed)."""
        file_keys = [k for k in ("edges", "attrs") if getattr(self, k) is not None]
        if len(file_keys) == 1:
            raise ConfigError("edges and attrs must be configured together")
        has_files = len(file_keys) == 2
        if has_files and self.generator is not None:
            raise ConfigError("configure either edge/attr files or a generator, not both")
        if has_files:
            return load_edge_list(self.edges, self.attrs)
        if self.generator is None:
            raise ConfigError("no graph source configured (edges/attrs or generator)")
        params = {key: getattr(self, key) for key in GENERATOR_PARAMS}
        return GeneratorSpec(kind=self.generator, seed=self.graph_seed, **params).build()

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


def _convert(key: str, raw: str, target_type, lineno: int):
    if target_type is bool:
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise ConfigError(f"line {lineno}: key {key!r} expects true/false, got {raw!r}")
    try:
        return target_type(raw)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: key {key!r} expects {target_type.__name__}, got {raw!r}"
        ) from None


def _check_constraints(cfg: RunConfig) -> None:
    if cfg.generator is not None and cfg.generator not in GENERATOR_KINDS:
        raise ConfigError(
            f"key 'generator' must be one of {GENERATOR_KINDS}, got {cfg.generator!r}"
        )
    for key in ("p", "p_rewire", "p_in", "p_out"):
        value = getattr(cfg, key)
        if value is not None and not 0.0 <= value <= 1.0:
            raise ConfigError(f"key {key!r} must lie in [0, 1], got {value}")
    if cfg.seed_pool not in SEED_POOLS:
        raise ConfigError(f"key 'seed_pool' must be one of {SEED_POOLS}")
    if cfg.strategy not in ("polarized", "homogeneous"):
        raise ConfigError("key 'strategy' must be 'polarized' or 'homogeneous'")
    if cfg.seed_count < 1:
        raise ConfigError("key 'seed_count' must be >= 1")
    if cfg.n_runs < 1:
        raise ConfigError("key 'n_runs' must be >= 1")
    if cfg.threads < 0:
        raise ConfigError("key 'threads' must be >= 0 (0 = auto)")


def parse_config(path) -> RunConfig:
    """Parse and validate a config file, applying defaults for unset keys."""
    run_values: dict = {}
    epi_values: dict = {}
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            seen.add(key)
            attr, target_type = CONFIG_KEYS[key]
            converted = _convert(key, value, target_type, lineno)
            if key in _EPIDEMIC_KEYS:
                epi_values[attr] = converted
            else:
                run_values[attr] = converted
    try:
        params = EpidemicParams(**epi_values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg = RunConfig(params=params, **run_values)
    _check_constraints(cfg)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Render a config that parses back to an equal RunConfig."""
    lines = []
    run_fields = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "params"}
    for key, (attr, target_type) in CONFIG_KEYS.items():
        if key in _EPIDEMIC_KEYS:
            value = getattr(cfg.params, attr)
        else:
            value = run_fields[attr]
        if value is None:
            continue
        if target_type is bool:
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
