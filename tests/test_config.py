import re
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarnet.cli import build_parser
from polarnet.config import CONFIG_KEYS, RunConfig, parse_config, serialize_config
from polarnet.epidemic import EpidemicParams, Seeding
from polarnet.errors import ConfigError
from polarnet.generators import GeneratorSpec


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_empty_config_gives_study_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, "\n"))
    p = cfg.params
    assert p.infection_rate == 4.0
    assert p.vet == 0.9
    assert p.vei == 0.6
    assert p.curve_mean == 5.5
    assert p.curve_sd == 2.14
    assert p.age_scale == 1.14
    assert p.asymptomatic_scale == 0.88
    assert p.daily_interactions == 2.0
    assert cfg.seeding == Seeding(count=10, pool="all")


def test_comments_and_blank_lines(tmp_path):
    cfg = parse_config(
        write(tmp_path, "# a comment\n\nR=3.5  # inline comment\nn_runs=7\n")
    )
    assert cfg.params.infection_rate == 3.5
    assert cfg.n_runs == 7


def test_constraint_violation_names_key(tmp_path):
    with pytest.raises(ConfigError, match="VET"):
        parse_config(write(tmp_path, "VET=1.5\n"))
    with pytest.raises(ConfigError, match="sigma"):
        parse_config(write(tmp_path, "sigma=-1\n"))
    with pytest.raises(ConfigError, match="n_runs"):
        parse_config(write(tmp_path, "n_runs=0\n"))


def test_unknown_duplicate_and_malformed_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config(write(tmp_path, "bogus=1\n"))
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(write(tmp_path, "R=4\nR=5\n"))
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config(write(tmp_path, "just a line\n"))
    with pytest.raises(ConfigError, match="expects int"):
        parse_config(write(tmp_path, "n_runs=many\n"))
    with pytest.raises(ConfigError, match="true/false"):
        parse_config(write(tmp_path, "homogeneous_redraw=maybe\n"))


def test_round_trip_fixed_example(tmp_path):
    text = (
        "generator=two-community\nn_pro=200\nn_anti=300\np_in=0.01\np_out=0.001\n"
        "graph_seed=5\nR=3.0\nVET=0.8\nVEI=0.5\nvet_mode=daily\nseed_count=4\n"
        "n_runs=12\nmaster_seed=99\nstrategy=homogeneous\nhomogeneous_redraw=false\n"
        "out_dir=results\nthreads=2\n"
    )
    cfg = parse_config(write(tmp_path, text))
    reparsed = parse_config(write(tmp_path, serialize_config(cfg)))
    assert reparsed == cfg


@given(
    r=st.floats(min_value=0.1, max_value=20, allow_nan=False),
    vei=st.floats(min_value=0.0, max_value=1.0),
    runs=st.integers(min_value=1, max_value=500),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_property(tmp_path_factory, r, vei, runs, seed):
    cfg = RunConfig(
        params=EpidemicParams(infection_rate=r, vei=vei),
        n_runs=runs,
        master_seed=seed,
    )
    path = tmp_path_factory.mktemp("cfg") / "c.cfg"
    path.write_text(serialize_config(cfg))
    assert parse_config(path) == cfg


def test_graph_source_exclusivity(tmp_path):
    cfg = parse_config(write(tmp_path, "edges=e.csv\n"))
    with pytest.raises(ConfigError, match="together"):
        cfg.resolve_graph()
    both = parse_config(write(tmp_path, "edges=e.csv\nattrs=a.csv\ngenerator=er\nn=10\np=0.1\n"))
    with pytest.raises(ConfigError, match="not both"):
        both.resolve_graph()
    neither = parse_config(write(tmp_path, "R=4\n"))
    with pytest.raises(ConfigError, match="no graph source"):
        neither.resolve_graph()


def test_resolve_generator_graph(tmp_path):
    cfg = parse_config(
        write(tmp_path, "generator=two-community\nn_pro=30\nn_anti=20\np_in=0.2\np_out=0.0\n")
    )
    g = cfg.resolve_graph()
    assert g.n == 50
    assert int((g.opinions == 1).sum()) == 30


def test_generator_params_cover_spec_and_config_fields():
    # every GeneratorSpec field is set by one config key and one generate option
    spec_fields = {f.name for f in fields(GeneratorSpec)}
    assert {name for cls, name, _ in CONFIG_KEYS.values() if cls is GeneratorSpec} == spec_fields
    args = build_parser().parse_args(
        ["generate", "--kind", "er", "--out-edges", "e.csv", "--out-attrs", "a.csv"]
    )
    assert spec_fields <= set(vars(args))


# the config surface: a key added to a dataclass must be added here on purpose
EXPECTED_KEYS = {
    "edges": str, "attrs": str, "generator": str,
    "n": int, "p": float, "k_ring": int, "p_rewire": float, "m": int,
    "n_pro": int, "n_anti": int, "p_in": float, "p_out": float, "graph_seed": int,
    "R": float, "S_as": float, "A_si": float, "B_n": float, "I_bar": float,
    "mu": float, "sigma": float, "VET": float, "VEI": float,
    "t_max_infectious": int, "horizon": int, "vet_mode": str,
    "seed_count": int, "seed_pool": str, "n_runs": int, "master_seed": int,
    "strategy": str, "homogeneous_redraw": bool, "out_dir": str, "threads": int,
}


def test_config_keys_pinned():
    assert len(EXPECTED_KEYS) == 33
    assert {key: kind for key, (_, _, kind) in CONFIG_KEYS.items()} == EXPECTED_KEYS


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config file", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    listed = [key for cell in rows for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(listed) == sorted(CONFIG_KEYS)


@pytest.mark.parametrize(
    ("text", "match"),
    [
        ("generator=hexagon\n", "unknown generator kind 'hexagon'"),
        ("generator=er\nn=10\np=1.5\n", "p must lie in"),
        ("generator=two-community\np_out=nan\n", "p_out must lie in"),
        ("generator=er\nn=100\np=0.1\nn_pro=40\n", r"generator 'er' takes no parameter\(s\): n_pro"),
        ("generator=ba\nn=100\nm=2\nk_ring=4\np=0.1\n", r"generator 'ba' takes no parameter\(s\): p, k_ring"),
        ("n=10\np=0.1\n", "set without key 'generator'"),
        ("edges=e.csv\nattrs=a.csv\ngraph_seed=3\n", "graph_seed set without key 'generator'"),
        ("seed_pool=vaccinated\n", "seed_pool"),
        ("strategy=random\n", "strategy"),
        ("seed_count=0\n", "seed_count"),
        ("threads=-1\n", "threads"),
        ("R=nan\n", "R must be non-negative and finite"),
        ("mu=inf\n", "mu must be positive and finite"),
        ("mu=0.0099\n", r"mu must lie in \[0.01, 100\], got 0.0099"),
        ("sigma=100.5\n", r"sigma must lie in \[0.01, 100\], got 100.5"),
        ("VEI=-inf\n", "VEI must lie in"),
        ("seed_pool=vaccinated\nseed_count=3\n", "key 'seed_pool' must be one of"),
        ("seed_count=-2\nseed_pool=unvaccinated\n", "key 'seed_count' must be >= 1"),
        ("horizon=3000000000\n", r"horizon must lie in \[1, 2147483624\]"),
        ("horizon=99999999999999999999999\n", "horizon must lie in"),
        ("horizon=2147483624\nt_max_infectious=22\n", r"horizon must lie in \[1, 2147483623\]"),
        ("t_max_infectious=2147483647\n", r"t_max_infectious must lie in \[1, 365\]"),
        ("t_max_infectious=366\n", "t_max_infectious must lie in"),
        # negative seeds reached numpy's SeedSequence; oversize graphs its allocator
        ("master_seed=-3\n", "key 'master_seed' must be >= 0"),
        ("generator=er\nn=10\np=0.1\ngraph_seed=-1\n", r"key 'graph_seed' \(generate --seed\) must be >= 0"),
        ("generator=er\nn=2147483648\np=0\n", r"n must be <= 2147483647, got 2147483648"),
        ("generator=two-community\nn_pro=2147483647\nn_anti=1\n", r"n_pro \+ n_anti must be <= 2147483647"),
        # SeedSequence.spawn hung on a run count this large
        ("n_runs=1000000000000\n", r"key 'n_runs' must be in \[1, 100000\]"),
        ("n_runs=100001\n", r"key 'n_runs' must be in \[1, 100000\]"),
    ],
)
def test_dataclass_validation_through_parse_config(tmp_path, text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(write(tmp_path, text))


def test_config_with_a_byte_order_mark_parses(tmp_path):
    # once the mark made the first key the unknown '\ufeffn_runs'
    path = tmp_path / "run.cfg"
    path.write_bytes("\ufeffn_runs=5\nmaster_seed=3\n".encode("utf-8"))
    cfg = parse_config(path)
    assert (cfg.n_runs, cfg.master_seed) == (5, 3)


@pytest.mark.parametrize(
    ("cls", "name", "value", "key"),
    [
        (EpidemicParams, "horizon", 10.5, "horizon"),
        (EpidemicParams, "max_infectious_days", 3.5, "t_max_infectious"),
        (Seeding, "count", 2.5, "seed_count"),
        (Seeding, "count", True, "seed_count"),
        (RunConfig, "n_runs", 2.5, "n_runs"),
        (RunConfig, "master_seed", 1.5, "master_seed"),
        (RunConfig, "threads", 1.5, "threads"),
        (partial(GeneratorSpec, "er"), "n", 10.5, "n"),
        (partial(GeneratorSpec, "ba"), "m", 2.5, "m"),
        (partial(GeneratorSpec, "er"), "seed", 1.5, "graph_seed"),
    ],
)
def test_integer_settings_reject_non_integers(cls, name, value, key):
    with pytest.raises(ConfigError, match=re.escape(f"key {key!r} must be an integer, got {value!r}")):
        cls(**{name: value})
    assert getattr(cls(**{name: np.int64(3)}), name) == 3  # numpy integers are integers
