import hashlib
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import polarnet
from polarnet.cli import main
from polarnet.config import parse_config
from polarnet.experiment import compare_scenarios, run_ensemble
from polarnet.generators import GeneratorSpec
from polarnet.graph import save_edge_list
from polarnet.output import write_curves_csv, write_summary_csv


def run_cli(*argv):
    return main(list(argv))


def test_generate_then_metrics_round_trip(tmp_path):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attrs.csv"
    code = run_cli(
        "generate", "--kind", "ba", "--n", "500", "--m", "2",
        "--seed", "3", "--out-edges", str(edges), "--out-attrs", str(attrs),
    )
    assert code == 0
    report = tmp_path / "report.csv"
    assert run_cli("metrics", "--edges", str(edges), "--attrs", str(attrs), "--out", str(report)) == 0
    rows = dict(
        line.split(",") for line in report.read_text().strip().splitlines()[1:]
    )
    assert 0.0 < float(rows["density"]) < 1.0
    assert float(rows["power_law_gamma"]) > 0
    assert rows["assortativity"] == "nan"  # generator labels everyone pro


def test_generate_byte_identical_per_seed(tmp_path):
    args = [
        "generate", "--kind", "ws", "--n", "60", "--k-ring", "4",
        "--p-rewire", "0.3", "--seed", "8",
    ]
    for tag in ("a", "b"):
        run_cli(*args, "--out-edges", str(tmp_path / f"e{tag}.csv"),
                "--out-attrs", str(tmp_path / f"a{tag}.csv"))
    assert (tmp_path / "ea.csv").read_bytes() == (tmp_path / "eb.csv").read_bytes()
    assert (tmp_path / "aa.csv").read_bytes() == (tmp_path / "ab.csv").read_bytes()


@pytest.mark.parametrize(
    "params",
    [
        {"kind": "er", "n": 300, "p": 0.03},
        {"kind": "ws", "n": 300, "k_ring": 6, "p_rewire": 0.7},
        {"kind": "ba", "n": 300, "m": 1},
        {"kind": "two-community", "n_pro": 200, "n_anti": 100, "p_in": 0.05, "p_out": 0.005},
    ],
    ids=lambda params: params["kind"],
)
def test_generate_writes_the_bytes_of_the_built_graph(tmp_path, capsys, params):
    # generate writes the edge array without building the graph
    g = GeneratorSpec(seed=5, **params).build()
    save_edge_list(g, tmp_path / "e_ref.csv", tmp_path / "a_ref.csv")
    edges, attrs = tmp_path / "e.csv", tmp_path / "a.csv"
    flags = [arg for key, value in params.items() for arg in (f"--{key.replace('_', '-')}", str(value))]
    assert run_cli("generate", *flags, "--seed", "5", "--out-edges", str(edges), "--out-attrs", str(attrs)) == 0
    assert capsys.readouterr().out == f"wrote {edges} ({g.n} nodes, {g.edge_count} edges) and {attrs}\n"
    assert edges.read_bytes() == (tmp_path / "e_ref.csv").read_bytes()
    assert attrs.read_bytes() == (tmp_path / "a_ref.csv").read_bytes()


def test_metrics_subgraph_flag(tmp_path):
    # sparse blocks so the subgraph degree histogram decays and the fit holds
    edges, attrs = tmp_path / "e.csv", tmp_path / "a.csv"
    run_cli(
        "generate", "--kind", "two-community", "--n-pro", "300", "--n-anti", "200",
        "--p-in", "0.004", "--p-out", "0.0005", "--seed", "1",
        "--out-edges", str(edges), "--out-attrs", str(attrs),
    )
    out = tmp_path / "anti.csv"
    assert run_cli(
        "metrics", "--edges", str(edges), "--attrs", str(attrs),
        "--subgraph", "anti", "--out", str(out),
    ) == 0
    assert out.exists()


@pytest.mark.parametrize("subgraph", [[], ["--subgraph", "pro"]])
@pytest.mark.parametrize("flag", ["--edges", "--attrs"])
@pytest.mark.parametrize("spelling", ["{}", "sub/../{}"])
def test_metrics_out_naming_an_input_exit_code_1(tmp_path, capsys, subgraph, flag, spelling):
    # once the report overwrote the input it named
    inputs = {"--edges": tmp_path / "e.csv", "--attrs": tmp_path / "a.csv"}
    assert run_cli(
        "generate", "--kind", "two-community", "--n-pro", "300", "--n-anti", "200",
        "--p-in", "0.02", "--p-out", "0.001", "--seed", "4",
        "--out-edges", str(inputs["--edges"]), "--out-attrs", str(inputs["--attrs"]),
    ) == 0
    (tmp_path / "sub").mkdir()
    before = {path: path.read_bytes() for path in inputs.values()}
    out = str(tmp_path / spelling.format(inputs[flag].name))
    argv = ["metrics", "--edges", str(inputs["--edges"]), "--attrs", str(inputs["--attrs"]), *subgraph, "--out", out]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"--out and {flag} name the same file" in err
    assert {path: path.read_bytes() for path in inputs.values()} == before


@pytest.mark.parametrize(
    "command, name, key",
    [("simulate", "curves.csv", "edges"), ("compare", "summary.csv", "attrs"), ("compare", "summary.csv", "--config")],
)
def test_run_output_naming_an_input_exit_code_1(tmp_path, capsys, command, name, key):
    # once simulate wrote its curves over the edge list it read, and the next run failed on that file
    out = tmp_path / "out"
    out.mkdir()
    paths = {"edges": tmp_path / "e.csv", "attrs": tmp_path / "a.csv", "--config": tmp_path / "run.cfg"}
    paths[key] = out / name
    assert run_cli(
        "generate", "--kind", "two-community", "--n-pro", "60", "--n-anti", "40", "--p-in", "0.1", "--p-out", "0.01",
        "--seed", "4", "--out-edges", str(paths["edges"]), "--out-attrs", str(paths["attrs"]),
    ) == 0
    paths["--config"].write_text(f"edges={paths['edges']}\nattrs={paths['attrs']}\nn_runs=2\n")
    before = {path: path.read_bytes() for path in paths.values()}
    capsys.readouterr()
    assert run_cli(command, "--config", str(paths["--config"]), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{name} and {key} name the same file" in err
    assert {path: path.read_bytes() for path in paths.values()} == before
    assert [path.name for path in out.iterdir()] == [name]  # nothing was written


def _write_config(tmp_path, extra=""):
    # a key set in ``extra`` replaces the base line of that key
    base = (
        "generator=two-community\nn_pro=120\nn_anti=120\np_in=0.05\np_out=0.002\n"
        "graph_seed=2\nn_runs=4\nseed_count=3\nmaster_seed=5\n"
    )
    keys = {line.split("=", 1)[0] for line in extra.splitlines()}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(line + "\n" for line in base.splitlines() if line.split("=", 1)[0] not in keys) + extra)
    return cfg


def test_simulate_writes_curves(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    lines = (out / "curves.csv").read_text().strip().splitlines()
    assert lines[0].startswith("day,new_unvacc")
    assert len(lines) > 2


def test_compare_outputs_and_determinism(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("compare", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("compare", "--config", str(cfg), "--out", str(out2)) == 0
    names = [
        "curves_polarized.csv", "curves_homogeneous.csv", "summary.csv",
        "curves_unvaccinated.svg", "curves_vaccinated.svg", "curves_all.svg",
    ]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = (out1 / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 7


def test_compare_from_files_equals_compare_from_the_generator(tmp_path):
    # the files generate writes load to the graph the generator keys build, so
    # compare from the edges/attrs keys writes the same six files
    edges, attrs = tmp_path / "edges.csv", tmp_path / "attrs.csv"
    assert run_cli(
        "generate", "--kind", "two-community", "--n-pro", "300", "--n-anti", "200", "--p-in", "0.03",
        "--p-out", "0.003", "--seed", "1", "--out-edges", str(edges), "--out-attrs", str(attrs),
    ) == 0
    sources = {
        "files": f"edges={edges}\nattrs={attrs}\n",
        "generator": "generator=two-community\nn_pro=300\nn_anti=200\np_in=0.03\np_out=0.003\ngraph_seed=1\n",
    }
    for name, source in sources.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(source + "n_runs=300\nseed_count=3\n")
        assert run_cli("compare", "--config", str(cfg), "--out", str(tmp_path / name)) == 0
    written = {f.name: f.read_bytes() for f in (tmp_path / "files").iterdir()}
    assert len(written) == 6
    assert written == {f.name: f.read_bytes() for f in (tmp_path / "generator").iterdir()}


def test_compare_with_immune_vaccinated_draws_a_flat_chart(tmp_path):
    # VEI=1 and seeds drawn from the unvaccinated: no vaccinated node is ever
    # infected, so every vaccinated series is zero and the y axis runs to 1
    cfg = _write_config(tmp_path, "VEI=1.0\nseed_pool=unvaccinated\nn_runs=50\n")
    out = tmp_path / "out"
    assert run_cli("compare", "--config", str(cfg), "--out", str(out)) == 0
    ns = "{http://www.w3.org/2000/svg}"
    root = ET.fromstring((out / "curves_vaccinated.svg").read_text())  # strict XML parse
    assert [t.text for t in root.findall(f"{ns}text") if t.get("text-anchor") == "end"] == [
        "0", "0.2", "0.4", "0.6", "0.8", "1",
    ]
    y_axis = root.findall(f"{ns}line")[1]
    assert y_axis.get("x1") == y_axis.get("x2")
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2 * 50
    for polyline in polylines:
        points = [p.split(",") for p in polyline.get("points").split()]
        assert points[0] == [y_axis.get("x1"), y_axis.get("y1")]  # the origin
        assert {y for _, y in points} == {y_axis.get("y1")}
    rows = (out / "summary.csv").read_text().splitlines()
    assert [r for r in rows if ",vaccinated," in r] == [
        "polarized,vaccinated,0.000000,nan", "homogeneous,vaccinated,0.000000,nan",
    ]


def test_simulate_wires_all_engine_options(tmp_path):
    cfg = _write_config(
        tmp_path,
        "strategy=homogeneous\nseed_pool=unvaccinated\nvet_mode=daily\n"
        "homogeneous_redraw=false\nthreads=2\n",
    )
    out = tmp_path / "wired"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "curves.csv").exists()


def test_cli_seed_override_changes_results(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    run_cli("simulate", "--config", str(cfg), "--out", str(out1))
    run_cli("simulate", "--config", str(cfg), "--out", str(out2), "--seed", "1234")
    assert (out1 / "curves.csv").read_text() != (out2 / "curves.csv").read_text()


def test_usage_error_exit_code_1(capsys):
    assert run_cli("generate", "--kind", "hexagon", "--out-edges", "x", "--out-attrs", "y") == 1


def test_bad_kmin_exit_code_1(tmp_path):
    edges, attrs = tmp_path / "e.csv", tmp_path / "a.csv"
    edges.write_text("0,1\n")
    attrs.write_text("0,pro\n1,anti\n")
    assert run_cli(
        "metrics", "--edges", str(edges), "--attrs", str(attrs),
        "--kmin", "0", "--out", str(tmp_path / "r.csv"),
    ) == 1


def test_config_error_exit_code_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("VET=1.5\n")
    assert run_cli("simulate", "--config", str(bad)) == 1
    assert "VET" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("extra", "flags", "message"),
    [
        ("R=nan\n", [], "R must be non-negative and finite"),
        ("mu=inf\n", [], "mu must be positive and finite"),
        ("", ["--threads", "-1"], "key 'threads' must be >= 0"),
        # days past the int32 range: once an OverflowError, then a hang building P(t)
        ("horizon=3000000000\n", [], "horizon must lie in [1, 2147483624]"),
        ("horizon=99999999999999999999999\n", [], "horizon must lie in [1, 2147483624]"),
        ("t_max_infectious=2147483647\n", [], "t_max_infectious must lie in [1, 365]"),
        # negative seeds: once numpy's raw "expected non-negative integer"
        ("", ["--seed", "-1"], "key 'master_seed' must be >= 0"),
        # no config: the flags are those of `generate`
        (None, ["--kind", "er", "--n", "10", "--p", "0.1", "--seed", "-1"],
         "key 'graph_seed' (generate --seed) must be >= 0"),
        # once an _ArrayMemoryError traceback
        (None, ["--kind", "er", "--n", "100000000000", "--p", "0"], "n must be <= 2147483647"),
        (None, ["--kind", "two-community", "--n-pro", "2000000000", "--n-anti", "2000000000",
                "--p-in", "0", "--p-out", "0"], "n_pro + n_anti must be <= 2147483647"),
        # once a hang in SeedSequence.spawn
        ("n_runs=1000000000000\n", [], "key 'n_runs' must be in [1, 100000]"),
        # once hangs in _gamma_p's series, an OverflowError, a math domain
        # error, a ZeroDivisionError and negative hazards
        ("mu=1e-200\nsigma=1e-40\n", [], "mu must lie in [0.01, 100], got 1e-200"),
        ("mu=1\nsigma=1e-8\n", [], "sigma must lie in [0.01, 100], got 1e-08"),
        ("mu=3\nsigma=1e-160\n", [], "sigma must lie in [0.01, 100], got 1e-160"),
        ("mu=1e-300\n", [], "mu must lie in [0.01, 100], got 1e-300"),
        ("mu=1e-300\nsigma=1e-300\n", [], "mu must lie in [0.01, 100], got 1e-300"),
        ("mu=1e-3\nsigma=1e3\nt_max_infectious=365\n", [], "mu must lie in [0.01, 100], got 0.001"),
        # another kind's parameters were ignored: an all-pro ER graph gave a NaN ratio
        ("generator=er\nn=100\np=0.1\n", [], "generator 'er' takes no parameter(s): n_pro, n_anti, p_in, p_out"),
        (None, ["--kind", "er", "--n", "100", "--p", "0.1", "--k-ring", "4", "--p-in", "0.9"],
         "generator 'er' takes no parameter(s): k_ring, p_in"),
        # one file for both outputs: the attribute rows overwrote the edge list
        (None, ["--kind", "er", "--n", "2", "--p", "1", "--out-attrs", "OUT/e.csv"],
         "--out-edges and --out-attrs name the same file"),
        (None, ["--kind", "er", "--n", "2", "--p", "1", "--out-attrs", "OUT/sub/../e.csv"],
         "--out-edges and --out-attrs name the same file"),
    ],
)
def test_invalid_values_exit_code_1(tmp_path, capsys, extra, flags, message):
    # config values and command-line overrides go through the same validation
    out = tmp_path / "out"
    if extra is None:
        # OUT in a flag stands for the output directory; a flag may name an output again
        flags = [flag.replace("OUT", str(out)) for flag in flags]
        commands = [["generate", "--out-edges", str(out / "e.csv"), "--out-attrs", str(out / "a.csv"), *flags]]
    else:
        cfg = str(_write_config(tmp_path, extra))
        commands = [[command, "--config", cfg, "--out", str(out), *flags] for command in ("simulate", "compare")]
    for argv in commands:
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_out_of_memory_exit_code_2(tmp_path, capsys, monkeypatch):
    # `--n 2147483647` would ask the writer for 16 GiB of node labels; it
    # raises in their place (drawing the edges at p = 0 allocates nothing)
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 16.0 GiB for an array with shape (2147483648,)")

    monkeypatch.setattr(polarnet.cli, "save_edge_array", out_of_memory)
    edges = tmp_path / "e.csv"
    assert run_cli(
        "generate", "--kind", "er", "--n", "2147483647", "--p", "0",
        "--out-edges", str(edges), "--out-attrs", str(tmp_path / "a.csv"),
    ) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 16.0 GiB for an array with shape (2147483648,)\n"
    assert not edges.exists()


def test_generator_params_without_generator_exit_code_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"edges={tmp_path / 'e.csv'}\nattrs={tmp_path / 'a.csv'}\nn_pro=100\n")
    assert run_cli("simulate", "--config", str(cfg)) == 1
    assert "n_pro set without key 'generator'" in capsys.readouterr().err


def test_missing_graph_source_exit_code_1(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert run_cli("simulate", "--config", str(empty)) == 1


def test_data_error_exit_code_2(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attrs.csv"
    edges.write_text("0,1\n")
    attrs.write_text("0,pro\n")  # node 1 unannotated
    assert run_cli("metrics", "--edges", str(edges), "--attrs", str(attrs), "--out", str(tmp_path / "r.csv")) == 2
    assert "opinion" in capsys.readouterr().err


def test_compare_on_a_single_opinion_graph_exit_code_2(tmp_path, capsys):
    # every node of a BA graph is pro: the polarized allocation leaves no one unvaccinated
    cfg = tmp_path / "run.cfg"
    cfg.write_text("generator=ba\nn=200\nm=2\nn_runs=4\n")
    out = tmp_path / "out"
    assert run_cli("compare", "--config", str(cfg), "--out", str(out)) == 2
    assert "no anti node" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exit_code_2(tmp_path):
    assert run_cli(
        "metrics", "--edges", str(tmp_path / "nope.csv"),
        "--attrs", str(tmp_path / "nope2.csv"), "--out", str(tmp_path / "r.csv"),
    ) == 2


def test_metrics_label_beyond_int64_exit_code_2(tmp_path, capsys):
    edges, attrs = tmp_path / "e.csv", tmp_path / "a.csv"
    edges.write_text("src,dst\n0,99999999999999999999\n")
    attrs.write_text("node,opinion\n0,pro\n99999999999999999999,anti\n")
    assert run_cli("metrics", "--edges", str(edges), "--attrs", str(attrs), "--out", str(tmp_path / "r.csv")) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["edges", "attrs"])
def test_metrics_non_utf8_file_exit_code_2(tmp_path, capsys, bad):
    files = {
        "edges": tmp_path / "e.csv",
        "attrs": tmp_path / "a.csv",
    }
    files["edges"].write_bytes(b"src,dst\n0,1\n1,2\n")
    files["attrs"].write_bytes(b"node,opinion\n0,pro\n1,anti\n2,pro\n")
    text = files[bad].read_bytes().splitlines(keepends=True)
    text[2] = text[2].replace(b"1", b"1\xe9", 1)  # Latin-1 e-acute on line 3
    files[bad].write_bytes(b"".join(text))
    code = run_cli(
        "metrics", "--edges", str(files["edges"]), "--attrs", str(files["attrs"]),
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3" in err and str(files[bad]) in err and "UTF-8" in err


def test_non_utf8_config_exit_code_1(tmp_path, capsys):
    # once an uncaught UnicodeDecodeError traceback
    cfg = _write_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes() + b"# caf\xe9\nn_runs=2\n")
    bad = len(cfg.read_bytes().splitlines()) - 1
    assert run_cli("compare", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"line {bad}: {cfg} is not UTF-8 text" in err


def test_import_cli_leaves_scipy_unloaded(tmp_path):
    # importing the CLI, then simulating, comparing and computing the metrics
    # of a whole graph and of a subgraph, loads no scipy module
    src = str(Path(polarnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = _write_config(tmp_path)
    edges, attrs = str(tmp_path / "edges.csv"), str(tmp_path / "attrs.csv")
    assert run_cli(
        "generate", "--kind", "two-community", "--n-pro", "300", "--n-anti", "200",
        "--p-in", "0.02", "--p-out", "0.001", "--seed", "4", "--out-edges", edges, "--out-attrs", attrs,
    ) == 0
    metrics_args = [
        ["metrics", "--edges", edges, "--attrs", attrs, "--out", str(tmp_path / "report_all.csv")],
        ["metrics", "--edges", edges, "--attrs", attrs, "--subgraph", "pro", "--out", str(tmp_path / "report_pro.csv")],
    ]
    code = (
        "import sys, polarnet.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "for command in ('simulate', 'compare'):\n"
        f"    assert polarnet.cli.main([command, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        f"for argv in {metrics_args!r}:\n"
        "    assert polarnet.cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[0] == "[]"
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "curves.csv").exists() and (tmp_path / "summary.csv").exists()
    assert (tmp_path / "report_all.csv").exists() and (tmp_path / "report_pro.csv").exists()


def test_library_ensembles_equal_cli_outputs(tmp_path):
    # the CLI hands the parsed RunConfig over whole: run_ensemble and
    # compare_scenarios on the same config write the same bytes
    cfg_path = _write_config(
        tmp_path,
        "strategy=homogeneous\nseed_pool=unvaccinated\nvet_mode=daily\n"
        f"homogeneous_redraw=false\nthreads=2\nhorizon=60\nout_dir={tmp_path / 'cli'}\n",
    )
    assert run_cli("simulate", "--config", str(cfg_path)) == 0
    assert run_cli("compare", "--config", str(cfg_path)) == 0
    cfg = parse_config(cfg_path)
    g = cfg.resolve_graph()
    lib = tmp_path / "lib"
    lib.mkdir()
    write_curves_csv(run_ensemble(g, cfg), lib / "curves.csv")
    comparison = compare_scenarios(g, cfg)
    write_curves_csv(comparison.polarized, lib / "curves_polarized.csv")
    write_curves_csv(comparison.homogeneous, lib / "curves_homogeneous.csv")
    write_summary_csv(comparison, lib / "summary.csv")
    for f in lib.iterdir():
        assert f.read_bytes() == (tmp_path / "cli" / f.name).read_bytes(), f.name


def test_readme_library_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(polarnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, check=True
    )
    ratio, assortativity, shares = out.stdout.splitlines()
    # the figures the example's comments quote
    assert float(ratio) == pytest.approx(12.3, abs=0.05)
    assert float(assortativity) == pytest.approx(0.95, abs=0.005)
    assert shares == "(0.5, 0.5)"


# SHA-256 of every file the commands below write, pinned so that changes to
# the graph layer and to import order keep the outputs byte for byte. The
# simulate/* and compare/* digests follow the epidemic engine's stream contract.
PINNED_OUTPUTS = {
    "simulate/curves.csv": "1663d06d1f94995453a8b836e9371ab8871c4e03b3967b88e3add3546be8c1d2",
    "compare/curves_all.svg": "64545575407b4dd02be19137f2c50367b2421bc4b18e992213e9e91091dcc7c3",
    "compare/curves_homogeneous.csv": "ec9a5e4264330bd2b57003dc558eca906e12abb49b69f571115b609fae139e5a",
    "compare/curves_polarized.csv": "68c9e264d81be1392815cdea0a5ea1948ed59612f29dd3f8655854fe9c7be3e0",
    "compare/curves_unvaccinated.svg": "cf7aaaf885cd7c0a2c5584bb65af4884a1c29a691bfed26e584227c01c9da39e",
    "compare/curves_vaccinated.svg": "4379fa95580d3b6f2b18e11668c551449722c49afb50004381836caa42585bce",
    "compare/summary.csv": "7d8f934f0599003a1c25ee516848d620334b56be29349900552bcd42cead1bf3",
    "metrics/attrs.csv": "cf5dcf13037dac55da46103428f29d7673e6f3c01d35cf4d28af3127e11ada81",
    "metrics/edges.csv": "f0d07f8269c0428ac90b234b8e14497ce5caabfd3e333ae57c7724c97c2f583f",
    "metrics/report_all.csv": "117e50aa6d69a582c799455dca91b77981adf7cc6c792a36d88693525ddc857b",
    "metrics/report_pro.csv": "993d939d4b6e7020aa0efd4f8760d00ba2fff7db96cc5c719cc059279ec7ba83",
    # written by the load-then-cut path, before the loader filtered communities
    "metrics/report_anti.csv": "a7468a1dc9084347e4f2f300d0f71acbbcf2975f16e88553f9d60b28fa338624",
    # the scalar-loop generator and the f-string writer wrote the ER file;
    # the WS and BA files are the array generators', drawn by their laws alone
    "generate/er_edges.csv": "978739439645ee4fd091306d1d2442edda383c9c45d3ec723e6dd860b88584ae",
    "generate/ws_edges.csv": "d64c2b7f2bd09b90e1be4c32af64685ef6bdcbad2f9917271bfd022aae3f1a3e",
    "generate/ba_edges.csv": "277a56ca489a4d77baaa1b1ee1aa727abc53b5574046fac7fa0fff5ba816d913",
    # 500 nodes labelled 0..499, all pro
    "generate/er_attrs.csv": "efd3da037194eb313e7d69b29ad2836d7aebdbc001fba470f0c730098beb5fa7",
    "generate/ws_attrs.csv": "efd3da037194eb313e7d69b29ad2836d7aebdbc001fba470f0c730098beb5fa7",
    "generate/ba_attrs.csv": "efd3da037194eb313e7d69b29ad2836d7aebdbc001fba470f0c730098beb5fa7",
    # written by the build-then-save path, before generate wrote the edge array
    "generate/two-community_edges.csv": "6ebd6cd83becdfb7a00226fe4e83a8c693ef57d87252458d1d26251bfba402c9",
    "generate/two-community_attrs.csv": "cf5dcf13037dac55da46103428f29d7673e6f3c01d35cf4d28af3127e11ada81",
}


def test_cli_outputs_pinned(tmp_path):
    cfg = _write_config(tmp_path)
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "simulate")) == 0
    assert run_cli("compare", "--config", str(cfg), "--out", str(tmp_path / "compare")) == 0
    met = tmp_path / "metrics"
    met.mkdir()
    edges, attrs = str(met / "edges.csv"), str(met / "attrs.csv")
    assert run_cli(
        "generate", "--kind", "two-community", "--n-pro", "300", "--n-anti", "200",
        "--p-in", "0.02", "--p-out", "0.001", "--seed", "4", "--out-edges", edges, "--out-attrs", attrs,
    ) == 0
    assert run_cli("metrics", "--edges", edges, "--attrs", attrs, "--out", str(met / "report_all.csv")) == 0
    for opinion in ("pro", "anti"):
        assert run_cli(
            "metrics", "--edges", edges, "--attrs", attrs, "--subgraph", opinion, "--out", str(met / f"report_{opinion}.csv")
        ) == 0
    (tmp_path / "generate").mkdir()
    for kind, params in (
        ("er", ["--n", "500", "--p", "0.02"]),
        ("ws", ["--n", "500", "--k-ring", "4", "--p-rewire", "0.1"]),
        ("ba", ["--n", "500", "--m", "2"]),
        ("two-community", ["--n-pro", "300", "--n-anti", "200", "--p-in", "0.03", "--p-out", "0.003"]),
    ):
        assert run_cli(
            "generate", "--kind", kind, *params, "--seed", "4",
            "--out-edges", str(tmp_path / "generate" / f"{kind}_edges.csv"),
            "--out-attrs", str(tmp_path / "generate" / f"{kind}_attrs.csv"),
        ) == 0
    digests = {
        f"{d}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
        for d in ("simulate", "compare", "metrics", "generate")
        for f in (tmp_path / d).iterdir()
    }
    assert digests == PINNED_OUTPUTS


# SHA-256 of the compare files in daily vet mode with one frozen homogeneous
# allocation, the two settings the pins above leave at their defaults
PINNED_DAILY_FROZEN = {
    "curves_all.svg": "6b55379d156d00920aeef9398227baadb7e093e6328cb599850a9fa2cbacfc60",
    "curves_homogeneous.csv": "060a363dab3a532dca9b741b3fc5284c484c6d4e5172d05c625aaabbf2523a63",
    "curves_polarized.csv": "44f1fd9777d1d7052179b9c232703fc131830a7c7ce488e8b5a1d7cae4296b19",
    "curves_unvaccinated.svg": "35c07c8251b3ef8e3d6225bef59411387b693664dfb70726a1643da38a5804d5",
    "curves_vaccinated.svg": "0277e146a2f46d3b0d090d3d5c6c5cf567fe6008bab70efbdffe03b168c6bf86",
    "summary.csv": "ed29767bbd59aa3d6ff67a162796edcb523a5c1042c87b9f54aa9b4ee57807ec",
}


def test_cli_daily_frozen_compare_pinned(tmp_path):
    cfg = _write_config(tmp_path, "vet_mode=daily\nhomogeneous_redraw=false\n")
    out = tmp_path / "compare"
    assert run_cli("compare", "--config", str(cfg), "--out", str(out)) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == PINNED_DAILY_FROZEN
