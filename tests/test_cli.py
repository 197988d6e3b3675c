import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polarnet
from polarnet.cli import main
from polarnet.config import parse_config
from polarnet.experiment import compare_scenarios, run_ensemble
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
    ],
)
def test_invalid_values_exit_code_1(tmp_path, capsys, extra, flags, message):
    # config values and command-line overrides go through the same validation
    out = tmp_path / "out"
    if extra is None:
        commands = [["generate", *flags, "--out-edges", str(out / "e.csv"), "--out-attrs", str(out / "a.csv")]]
    else:
        cfg = str(_write_config(tmp_path, extra))
        commands = [[command, "--config", cfg, "--out", str(out), *flags] for command in ("simulate", "compare")]
    for argv in commands:
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_out_of_memory_exit_code_2(tmp_path, capsys, monkeypatch):
    # `--n 2147483647` would ask for a 16 GiB indptr; the builder raises in its place
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 16.0 GiB for an array with shape (2147483648,)")

    monkeypatch.setattr(polarnet.generators, "erdos_renyi", out_of_memory)
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
    ratio, assortativity = map(float, out.stdout.split())
    # the figures the example's comments quote
    assert ratio == pytest.approx(11.9, abs=0.05)
    assert assortativity == pytest.approx(0.94, abs=0.005)


# SHA-256 of every file the commands below write, pinned so that changes to
# the graph layer and to import order keep the outputs byte for byte. The
# simulate/* and compare/* digests follow the epidemic engine's stream contract.
PINNED_OUTPUTS = {
    "simulate/curves.csv": "19a74a19ffcb79f61ed2300970a0cf48c1422257186fe826c44664eac5c4ec77",
    "compare/curves_all.svg": "0b8d91e4b082b31f1db5252594fe981e289ba758ceb2d870a2426f32dfeffea6",
    "compare/curves_homogeneous.csv": "709eb36d83b944368927599c5ca77e8b384b57c756618974cd0700e2c8eb9bbb",
    "compare/curves_polarized.csv": "2b39352a0748031106f3a26db642435dfbac4069bfaf6786f0cc5b8a4224a265",
    "compare/curves_unvaccinated.svg": "c3639af17fb91cc27164a146f9d8053b7180db0828d8626a99b2c4190008d176",
    "compare/curves_vaccinated.svg": "34a477a3905ca0a687ff582f897db47b332f03bcd6bc2ac76bfff1813ab37657",
    "compare/summary.csv": "3564e72fcf594d5a6b689f35c35ae4a0a4f79dac28eeb93784e31920fedb905f",
    "metrics/attrs.csv": "cf5dcf13037dac55da46103428f29d7673e6f3c01d35cf4d28af3127e11ada81",
    "metrics/edges.csv": "7cbf021915146a64b2a3ee3f305e6fa3002cfb06ffd8c93301c9812e1286dec8",
    "metrics/report_all.csv": "cc4fe1db7ca270c1c8a7ec22ba5254121d3622c33b52251eb780331af7ba0b20",
    "metrics/report_pro.csv": "993d939d4b6e7020aa0efd4f8760d00ba2fff7db96cc5c719cc059279ec7ba83",
    # the scalar-loop generators and the f-string writer wrote the ER and BA
    # files; the WS file is the array generator's, drawn by the law alone
    "generate/er_edges.csv": "978739439645ee4fd091306d1d2442edda383c9c45d3ec723e6dd860b88584ae",
    "generate/ws_edges.csv": "d64c2b7f2bd09b90e1be4c32af64685ef6bdcbad2f9917271bfd022aae3f1a3e",
    "generate/ba_edges.csv": "3094d54c95d45a630a2fb051d6a8edd416804372fcb607dfeca3ce73d7673e39",
    # 500 nodes labelled 0..499, all pro
    "generate/er_attrs.csv": "efd3da037194eb313e7d69b29ad2836d7aebdbc001fba470f0c730098beb5fa7",
    "generate/ws_attrs.csv": "efd3da037194eb313e7d69b29ad2836d7aebdbc001fba470f0c730098beb5fa7",
    "generate/ba_attrs.csv": "efd3da037194eb313e7d69b29ad2836d7aebdbc001fba470f0c730098beb5fa7",
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
    assert run_cli(
        "metrics", "--edges", edges, "--attrs", attrs, "--subgraph", "pro", "--out", str(met / "report_pro.csv")
    ) == 0
    (tmp_path / "generate").mkdir()
    for kind, params in (("er", ["--p", "0.02"]), ("ws", ["--k-ring", "4", "--p-rewire", "0.1"]), ("ba", ["--m", "2"])):
        assert run_cli(
            "generate", "--kind", kind, "--n", "500", *params, "--seed", "4",
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
    "curves_all.svg": "b3390a4fc301b25d1998c70a13d26e654e277711618f1378a1580f7b3bf73ef9",
    "curves_homogeneous.csv": "a1488232df87b0e7d952304f6a01af6877ffa6df451247caedaacc0160cac00d",
    "curves_polarized.csv": "ee2f4c4dea17dca53a1ea416be264c127a440d4e44ef0e980b70450e00566d5f",
    "curves_unvaccinated.svg": "756f67b5eee84fc3a092b851169d408bb76496edc576c9208bc0a6015524b944",
    "curves_vaccinated.svg": "1be3278987296a7d99eeb557fd1713b23d366dbf0dcf909cd458bf319ce45723",
    "summary.csv": "f23891226004973121b65fa9c2f81e807f402cb4acb4e8b79a7bfecd3c14b370",
}


def test_cli_daily_frozen_compare_pinned(tmp_path):
    cfg = _write_config(tmp_path, "vet_mode=daily\nhomogeneous_redraw=false\n")
    out = tmp_path / "compare"
    assert run_cli("compare", "--config", str(cfg), "--out", str(out)) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == PINNED_DAILY_FROZEN
