"""Flat key=value run configuration.

One key per line, ``#`` starts a comment, unset keys fall back to the
study defaults. Each key sets the field of its name (or the one ``ALIASES``
names) of :class:`RunConfig`, its ``GeneratorSpec``, its ``EpidemicParams`` or
its ``Seeding``; each of these validates itself when built, and the ensemble
functions take the whole ``RunConfig``. Exactly one graph source must be
configured before a simulation can run: either ``edges``+``attrs`` files or
a ``generator`` with its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import get_args, get_type_hints

from .epidemic import EpidemicParams, Seeding
from .errors import ConfigError, require_integers
from .generators import GeneratorSpec
from .graph import AnnotatedGraph, load_edge_list, text_lines


# most runs of one ensemble: spawning their seeds alone takes about a second
MAX_RUNS = 100_000

STRATEGIES = ("polarized", "homogeneous")  # the allocations in compare's order (experiment.Allocation.of)


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation or comparison invocation needs."""

    edges: str | None = None
    attrs: str | None = None
    graph: GeneratorSpec | None = None
    params: EpidemicParams = field(default_factory=EpidemicParams)
    seeding: Seeding = field(default_factory=Seeding)
    n_runs: int = 100
    master_seed: int = 0
    strategy: str = STRATEGIES[0]
    homogeneous_redraw: bool = True
    out_dir: str = "."
    threads: int = 0

    def __post_init__(self):
        require_integers(("n_runs", self.n_runs), ("master_seed", self.master_seed), ("threads", self.threads))
        for key, valid, rule in (
            ("strategy", self.strategy in STRATEGIES, " or ".join(map(repr, STRATEGIES))),
            ("n_runs", 1 <= self.n_runs <= MAX_RUNS, f"in [1, {MAX_RUNS}]"),
            ("master_seed", self.master_seed >= 0, ">= 0"),
            ("threads", self.threads >= 0, ">= 0 (0 = auto)"),
        ):
            if not valid:
                raise ConfigError(f"key {key!r} must be {rule}")

    def resolve_graph(self) -> AnnotatedGraph:
        """Build or load the configured graph (exactly one source allowed)."""
        if (self.edges is None) != (self.attrs is None):
            raise ConfigError("edges and attrs must be configured together")
        if self.edges is not None:
            if self.graph is not None:
                raise ConfigError("configure either edge/attr files or a generator, not both")
            return load_edge_list(self.edges, self.attrs)
        if self.graph is None:
            raise ConfigError("no graph source configured (edges/attrs or generator)")
        return self.graph.build()


def scalar_fields(cls, skip=()):
    """(name, value type) of each field of dataclass ``cls`` not in ``skip``; ``int | None`` gives int."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name not in skip:
            inner = [t for t in get_args(hints[f.name]) if t is not type(None)]
            yield f.name, inner[0] if inner else hints[f.name]


# config key -> field name, for the keys that differ from their field
ALIASES = {
    "generator": "kind", "graph_seed": "seed",
    "R": "infection_rate", "S_as": "age_scale", "A_si": "asymptomatic_scale",
    "B_n": "network_scale", "I_bar": "daily_interactions", "mu": "curve_mean",
    "sigma": "curve_sd", "VET": "vet", "VEI": "vei", "t_max_infectious": "max_infectious_days",
    "seed_count": "count", "seed_pool": "pool",
}
_KEY_OF = {name: key for key, name in ALIASES.items()}

# the dataclasses whose fields the config keys set
_SECTIONS = (GeneratorSpec, EpidemicParams, Seeding, RunConfig)

# config key -> (dataclass holding the field, field name, value type)
CONFIG_KEYS = {
    _KEY_OF.get(name, name): (cls, name, kind)
    for cls in _SECTIONS
    for name, kind in scalar_fields(cls, skip=("graph", "params", "seeding"))
}


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


def parse_config(path) -> RunConfig:
    """Parse and validate a config file, applying defaults for unset keys."""
    values: dict[type, dict] = {cls: {} for cls in _SECTIONS}
    for lineno, raw in text_lines(path, lambda message, line: ConfigError(f"line {line}: {message}")):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        cls, name, target_type = CONFIG_KEYS[key]
        if name in values[cls]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[cls][name] = _convert(key, value, target_type, lineno)
    graph = values[GeneratorSpec]
    if graph and "kind" not in graph:
        keys = ", ".join(_KEY_OF.get(name, name) for name in graph)
        raise ConfigError(f"key(s) {keys} set without key 'generator'")
    return RunConfig(
        graph=GeneratorSpec(**graph) if graph else None, params=EpidemicParams(**values[EpidemicParams]),
        seeding=Seeding(**values[Seeding]), **values[RunConfig],
    )


def serialize_config(cfg: RunConfig) -> str:
    """Render a config that parses back to an equal RunConfig."""
    owners = {GeneratorSpec: cfg.graph, EpidemicParams: cfg.params, Seeding: cfg.seeding, RunConfig: cfg}
    lines = []
    for key, (cls, name, target_type) in CONFIG_KEYS.items():
        value = None if owners[cls] is None else getattr(owners[cls], name)
        if value is None:
            continue
        if target_type is bool:
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
