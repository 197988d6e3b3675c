import xml.etree.ElementTree as ET

import numpy as np
import pytest

from polarnet.config import RunConfig
from polarnet.epidemic import Seeding
from polarnet.errors import DataError
from polarnet.experiment import compare_scenarios, run_ensemble
from polarnet.generators import two_community
from polarnet.output import (
    CurveGroup,
    emit_svg_plot,
    write_curves_csv,
    write_metrics_csv,
    write_summary_csv,
)
from polarnet.metrics import MetricsReport, PowerLawFit


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def small_comparison():
    g = two_community(100, 100, 0.05, 0.005, seed=1)
    return compare_scenarios(g, RunConfig(seeding=Seeding(3, "all"), n_runs=5, master_seed=17))


def test_curves_csv_single_run_matches_records(tmp_path):
    g = two_community(60, 60, 0.06, 0.005, seed=2)
    ens = run_ensemble(g, RunConfig(n_runs=1, master_seed=9))
    path = tmp_path / "curves.csv"
    write_curves_csv(ens, path)
    header, rows = read_rows(path)
    assert header == ["day", "new_unvacc", "new_vacc", "new_all", "cum_unvacc", "cum_vacc", "cum_all"]
    run = ens.daily[0]
    assert len(rows) == ens.lengths[0] == run.shape[1]
    for day, row in enumerate(rows):
        assert int(row[0]) == day
        assert float(row[1]) == pytest.approx(run[0, day], abs=5e-7)
        assert float(row[3]) == pytest.approx(run[2, day], abs=5e-7)


def test_summary_csv_layout_and_self_consistency(tmp_path, small_comparison):
    comp = small_comparison
    write_summary_csv(comp, tmp_path / "summary.csv")
    header, rows = read_rows(tmp_path / "summary.csv")
    assert header == ["scenario", "subpop", "attack_rate", "t_peak"]
    assert len(rows) == 6  # 2 scenarios x 3 subpopulations
    assert [r[0] for r in rows] == ["polarized"] * 3 + ["homogeneous"] * 3

    # reloading the curves and recomputing the attack rate matches the summary
    write_curves_csv(comp.polarized, tmp_path / "pol.csv")
    _, curve_rows = read_rows(tmp_path / "pol.csv")
    recomputed = sum(float(r[1]) for r in curve_rows)
    cum_last = float(curve_rows[-1][4])
    summary_ar = float(rows[0][2])
    assert recomputed == pytest.approx(summary_ar, abs=1e-3)
    assert cum_last == pytest.approx(summary_ar, abs=2e-6)


def test_metrics_csv_rows(tmp_path):
    report = MetricsReport(
        density=0.5,
        mean_degree=3.25,
        avg_clustering=0.125,
        power_law=PowerLawFit(gamma=2.5, k_min=1, r2=0.99),
        assortativity=float("nan"),
        cross_connection=0.01,
    )
    write_metrics_csv(report, tmp_path / "m.csv")
    header, rows = read_rows(tmp_path / "m.csv")
    assert header == ["metric", "value"]
    values = dict(rows)
    assert float(values["density"]) == 0.5
    assert float(values["power_law_gamma"]) == 2.5
    assert values["assortativity"] == "nan"


def test_metrics_csv_values_are_plain_numbers(tmp_path):
    # numpy scalars must never leak their repr into the CSV
    import numpy as np

    report = MetricsReport(
        density=np.float64(0.25),
        mean_degree=np.float64(3.0),
        avg_clustering=np.float64(0.1),
        power_law=PowerLawFit(gamma=np.float64(2.1), k_min=1, r2=np.float64(0.9)),
        assortativity=np.float64(0.5),
        cross_connection=np.float64(0.01),
    )
    write_metrics_csv(report, tmp_path / "m.csv")
    text = (tmp_path / "m.csv").read_text()
    assert "np.float" not in text
    for line in text.strip().splitlines()[1:]:
        float(line.split(",")[1])  # every value parses as a number


def test_svg_flat_series_single_polyline(tmp_path):
    path = tmp_path / "flat.svg"
    emit_svg_plot([CurveGroup("flat", "#c62828", [np.full(10, 0.25)])], "flat", path)
    root = ET.fromstring(path.read_text())
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 1
    ys = {p.split(",")[1] for p in polylines[0].get("points").split()}
    assert len(ys) == 1  # horizontal line


def test_svg_comparison_has_one_polyline_per_run(tmp_path):
    rng = np.random.default_rng(0)
    groups = [
        CurveGroup("polarized", "#c62828", [rng.random(30) for _ in range(100)]),
        CurveGroup("homogeneous", "#757575", [rng.random(30) for _ in range(100)]),
    ]
    path = tmp_path / "cmp.svg"
    emit_svg_plot(groups, "comparison", path)
    root = ET.fromstring(path.read_text())  # strict XML parse
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}polyline")) == 200
    legend = [t for t in root.findall(f".//{ns}text") if t.get("class") == "legend"]
    assert [t.text for t in legend] == ["polarized", "homogeneous"]


def test_svg_skips_an_empty_series_beside_a_drawn_one(tmp_path):
    # the empty series draws nothing and moves neither axis
    drawn = [np.full(5, 0.5), np.arange(8) / 10]
    emit_svg_plot([CurveGroup("g", "#c62828", drawn)], "t", tmp_path / "drawn.svg")
    emit_svg_plot([CurveGroup("g", "#c62828", [drawn[0], np.array([]), drawn[1]])], "t", tmp_path / "gap.svg")
    root = ET.fromstring((tmp_path / "gap.svg").read_text())
    assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 2
    assert (tmp_path / "gap.svg").read_bytes() == (tmp_path / "drawn.svg").read_bytes()


def test_svg_rejects_empty_input(tmp_path):
    with pytest.raises(DataError):
        emit_svg_plot([CurveGroup("x", "#000000", [np.array([])])], "t", tmp_path / "x.svg")
    with pytest.raises(DataError):
        emit_svg_plot([], "t", tmp_path / "y.svg")


def test_outputs_byte_identical_across_calls(tmp_path, small_comparison):
    comp = small_comparison
    for name in ("a", "b"):
        write_curves_csv(comp.polarized, tmp_path / f"{name}.csv")
        emit_svg_plot(
            [CurveGroup("polarized", "#c62828", comp.polarized.series(2))],
            "all",
            tmp_path / f"{name}.svg",
        )
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
