import io
import xml.etree.ElementTree as ET

import pytest

from dowg.cli import EXIT_OK, main
from dowg.reporting import (
    write_angular_csv,
    write_angular_markdown,
    write_angular_svg,
    write_comparison_csv,
    write_comparison_markdown,
    write_convergence_csv,
    write_convergence_markdown,
    write_convergence_svg,
    write_trace_svg,
)
from dowg.solver import IterationTrace
from dowg.verify import AngularStudyReport, ConvergenceReport


def conv_report(scheme="wg", scale=1.0):
    rows = [(8, 8.5643e-2 * scale, None), (16, 2.7626e-2 * scale, 1.63),
            (32, 8.4227e-3 * scale, 1.71)]
    return ConvergenceReport("example1", scheme, 1, 20, rows=rows,
                             triple_errors=[2 * e for _, e, _ in rows])


def ang_report():
    return AngularStudyReport("example2", "wg", 2, 5,
                              rows=[(4, 3.1e-4), (8, 3.0e-4), (16, 2.9e-4)])


class TestCsv:
    def test_convergence(self):
        buf = io.StringIO()
        write_convergence_csv(conv_report(), buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "inv_h,error,eoc"
        assert lines[1] == "8,0.085643,"
        assert lines[2] == "16,0.027626,1.63"
        assert len(lines) == 4

    def test_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        write_convergence_csv(conv_report(), a)
        write_convergence_csv(conv_report(), b)
        assert a.getvalue() == b.getvalue()

    def test_path_target(self, tmp_path):
        p = tmp_path / "out.csv"
        write_convergence_csv(conv_report(), p)
        assert p.read_text().startswith("inv_h,error,eoc\n")

    def test_comparison(self):
        reps = {"wg": conv_report(), "dodg": conv_report("dodg", 1.1)}
        buf = io.StringIO()
        write_comparison_csv(reps, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "inv_h,wg_error,wg_eoc,dodg_error,dodg_eoc"
        assert lines[1].startswith("8,0.085643,,")
        assert len(lines) == 4

    def test_comparison_rejects_mismatched_levels(self):
        short = conv_report("dodg")
        short.rows = short.rows[:2]
        with pytest.raises(ValueError):
            write_comparison_csv({"wg": conv_report(), "dodg": short}, io.StringIO())

    def test_angular(self):
        buf = io.StringIO()
        write_angular_csv(ang_report(), buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "M,error"
        assert lines[1] == "4,0.00031"


class TestMarkdown:
    def test_convergence(self):
        buf = io.StringIO()
        write_convergence_markdown(conv_report(), buf)
        text = buf.getvalue()
        assert "| 1/h | error | eoc |" in text
        assert "| 8 | 8.5643e-02 |  |" in text
        assert "| 16 | 2.7626e-02 | 1.63 |" in text

    def test_comparison(self):
        reps = {"wg": conv_report(), "dodsd": conv_report("dodsd", 1.05)}
        buf = io.StringIO()
        write_comparison_markdown(reps, buf)
        text = buf.getvalue()
        assert "wg error | eoc | dodsd error | eoc" in text
        assert text.count("8.5643e-02") == 1

    def test_comparison_rejects_mismatched_levels(self):
        short = conv_report("dodg")
        short.rows = short.rows[:1]
        with pytest.raises(ValueError):
            write_comparison_markdown({"wg": conv_report(), "dodg": short},
                                      io.StringIO())

    def test_angular(self):
        buf = io.StringIO()
        write_angular_markdown(ang_report(), buf)
        text = buf.getvalue()
        assert "| M | error |" in text
        assert "| 4 | 3.1000e-04 |" in text


def comparison_reports():
    return {"wg": conv_report(), "dodg": conv_report("dodg", 1.1)}


# every table writer's whole output, byte for byte, on the reports above
_TABLES = {
    "convergence-csv": (write_convergence_csv, conv_report, (
        "inv_h,error,eoc\n"
        "8,0.085643,\n"
        "16,0.027626,1.63\n"
        "32,0.0084227,1.71\n")),
    "convergence-md": (write_convergence_markdown, conv_report, (
        "Case example1, scheme wg, Q1, M = 20\n"
        "\n"
        "| 1/h | error | eoc |\n"
        "|---:|---:|---:|\n"
        "| 8 | 8.5643e-02 |  |\n"
        "| 16 | 2.7626e-02 | 1.63 |\n"
        "| 32 | 8.4227e-03 | 1.71 |\n")),
    "comparison-csv": (write_comparison_csv, comparison_reports, (
        "inv_h,wg_error,wg_eoc,dodg_error,dodg_eoc\n"
        "8,0.085643,,0.0942073,\n"
        "16,0.027626,1.63,0.0303886,1.63\n"
        "32,0.0084227,1.71,0.00926497,1.71\n")),
    "comparison-md": (write_comparison_markdown, comparison_reports, (
        "Case example1, Q1, M = 20\n"
        "\n"
        "| 1/h | wg error | eoc | dodg error | eoc |\n"
        "|---:|---:|---:|---:|---:|\n"
        "| 8 | 8.5643e-02 |  | 9.4207e-02 |  |\n"
        "| 16 | 2.7626e-02 | 1.63 | 3.0389e-02 | 1.63 |\n"
        "| 32 | 8.4227e-03 | 1.71 | 9.2650e-03 | 1.71 |\n")),
    "angular-csv": (write_angular_csv, ang_report, (
        "M,error\n"
        "4,0.00031\n"
        "8,0.0003\n"
        "16,0.00029\n")),
    "angular-md": (write_angular_markdown, ang_report, (
        "Case example2, scheme wg, Q2, level 5\n"
        "\n"
        "| M | error |\n"
        "|---:|---:|\n"
        "| 4 | 3.1000e-04 |\n"
        "| 8 | 3.0000e-04 |\n"
        "| 16 | 2.9000e-04 |\n")),
}


class TestExactTables:
    @pytest.mark.parametrize("name", sorted(_TABLES))
    def test_writer_bytes(self, name, tmp_path):
        write, report, expected = _TABLES[name]
        buf = io.StringIO()
        write(report(), buf)
        assert buf.getvalue() == expected
        path = tmp_path / "table"
        write(report(), path)
        assert path.read_bytes() == expected.encode()

    def test_trace_csv_bytes(self):
        buf = io.StringIO()
        IterationTrace([0.5, 1.25e-3, float("nan")], False).to_csv(buf)
        assert buf.getvalue() == "iteration,err\n1,0.5\n2,0.00125\n3,nan\n"

    def test_solve_markdown_layout(self, tmp_path):
        argv = ["solve", "--levels", "1", "--directions", "4", "--format", "md",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        lines = (tmp_path / "solve_example1_wg_Q1.md").read_text().splitlines()
        assert lines[:4] == ["Case example1, scheme wg, Q1, 1/h = 2, M = 4", "",
                             "| quantity | value |", "|---|---:|"]
        # perfbench/worker.py reads these rows by name
        names = [line.split(" | ")[0] for line in lines[4:]]
        assert names == ["| error", "| energy error", "| outer iterations", "| converged"]

    def test_convergence_stdout_is_its_markdown(self, tmp_path, capsys):
        argv = ["convergence", "--levels", "1-2", "--directions", "4", "--format", "md",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        path = tmp_path / "convergence_example1_wg_Q1.md"
        assert capsys.readouterr().out == path.read_text() + f"wrote {path}\n"


class TestSvg:
    def test_well_formed_and_complete(self):
        buf = io.StringIO()
        write_convergence_svg([conv_report(), conv_report("dodg", 1.1)], buf)
        text = buf.getvalue()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        # one polyline per scheme plus two dashed reference slopes
        assert text.count("<polyline") == 2
        assert text.count("stroke-dasharray") == 2
        assert "slope 1.5" in text and "slope 2" in text
        assert text.count("<circle") == 6

    def test_single_report(self):
        buf = io.StringIO()
        write_convergence_svg(conv_report(), buf, title="study")
        root = ET.fromstring(buf.getvalue())
        assert "study" in buf.getvalue()
        assert root is not None

    def test_angular(self, tmp_path):
        p = tmp_path / "a.svg"
        write_angular_svg(ang_report(), p)
        text = p.read_text()
        ET.fromstring(text)
        assert text.count("<polyline") == 1
        assert "stroke-dasharray" not in text

    def test_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        write_convergence_svg(conv_report(), a)
        write_convergence_svg(conv_report(), b)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize("errs, points", [([1.0, 0.0], 1), ([float("nan")] * 2, 0)],
                             ids=["exact-sweep", "nan"])
    def test_trace_plots_only_finite_positive_updates(self, errs, points):
        # an exact sweep's update norm is 0, a diverged run's NaN; neither
        # has a logarithm, and with no point left the axes stay empty
        buf = io.StringIO()
        write_trace_svg(IterationTrace(errs, False), buf)
        text = buf.getvalue()
        ET.fromstring(text)
        assert text.count("<circle") == points
        assert "nan" not in text
