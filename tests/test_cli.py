"""CLI contract: exit codes, determinism, schema conformance, batch mode."""

import io
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from realcubic import cli, curve, forms
from realcubic.errors import NonConvergence
from realcubic.lines import LineSet, PluckerLine

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
FERMAT = "x^3+y^3+z^3+w^3"
CUBIC2 = "y^2 - x^3 + 3*x - 1"          # oval + pseudoline
CIRCLE = "x^2 + y^2 - 4"


def schema(name: str) -> dict:
    with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
        return json.load(fh)


def run(capsys, *args):
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, err = run(capsys, "classify", "--surface", FERMAT)
        assert code == 0
        assert json.loads(out)["class_id"] == 4

    def test_rejection_is_two_with_empty_stdout(self, capsys):
        code, out, err = run(capsys, "classify", "--surface", "x*y*z + w^3")
        assert code == 2
        assert out == ""
        assert "NotTransversal" in err

    def test_surface_on_a_wall_is_two(self, capsys):
        # the nodal surface w*f2 + f3 on the wall between classes 6 and 4:
        # fails closed as a rejection, not as an internal failure
        surface = ("w*(-x^2-2*x*y+2*x*z+3*z^2) + x^3+2*x^2*y-3*x*y^2-x*y*z"
                   "+2*x*z^2+2*y^3+3*y^2*z+2*y*z^2+z^3")
        code, out, err = run(capsys, "classify", "--surface", surface,
                             "--plane", "w")
        assert code == 2
        assert out == ""
        assert "NearDiscriminant" in err

    def test_singular_curve_is_two(self, capsys):
        code, out, err = run(capsys, "curve", "--cubic", "y^2 - x^3")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        (),
        ("classify",),
        ("no-such-subcommand",),
        ("classify", "--surface", "x^3+y^3+z^3+1", "--no-such-flag"),
        ("classify", "--surface", "x^3 + )"),
        ("classify", "--surface", FERMAT, "--plane", "x + 1"),
        ("classify", "--surface", FERMAT, "--tol", "1e-9"),
        ("lines", "--surface", FERMAT, "--format", "dot"),
        ("wall-label", "--conic", CIRCLE),
        ("classify", "--surface", FERMAT, "--batch", "whatever"),
        ("classify", "--batch", "/nonexistent/batch/file"),
        ("classify", "--surface", "1/0*x^3 + y^3 + z^3 + 1"),
        # options only where they act: --seed on the line-solving
        # subcommands, --format where there is a choice, no --tol
        ("orbits", "--format", "text"),
        ("wall-label", "--conic", CIRCLE, "--cubic", CUBIC2,
         "--format", "text"),
        ("curve", "--cubic", CUBIC2, "--seed", "1"),
        ("graph", "--tol", "1"),
        ("graph", "--format", "text"),
    ])
    def test_usage_errors_are_sixty_four(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""

    def test_computation_failure_is_one(self, capsys, monkeypatch):
        def boom(surface, plane, seed):
            raise NonConvergence("tracker stalled")
        monkeypatch.setattr(cli, "classify_surface", boom)
        code, out, err = run(capsys, "classify", "--surface", FERMAT)
        assert code == 1
        assert "NonConvergence" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("classify", "--surface", FERMAT, "--seed", "3"),
        ("lines", "--surface", FERMAT),
        ("polotovsky",),
        ("graph", "--format", "dot"),
    ])
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_conjugate_order_ignores_last_bit_noise(self, monkeypatch):
        # one conjugate pair whose real parts differ in the last bits, one
        # way and then the other: the listed order must not move
        p = np.array([0.3 + 0.2j, 0.5 - 0.7j, 1.0])

        class Meet:
            real_points = []

            def __init__(self, d):
                self.d = d

            def complex_points(self):
                return [tuple(p + self.d), tuple(np.conj(p) - self.d)]

        signs = []
        for d in (1e-15, -1e-15):
            monkeypatch.setattr(cli, "conic_cubic_meet",
                                lambda conic, cubic, cubic_tensor=None, d=d:
                                Meet(d))
            payload = cli.curve_payload(CUBIC2, CIRCLE)
            signs.append([rec["point"][0][1] > 0
                          for rec in payload["intersections"]])
        assert signs == [[False, True], [False, True]]

    def test_conjugate_line_order_ignores_rounding_boundary(self,
                                                            monkeypatch):
        # an ill-conditioned conjugate pair whose real parts straddle the
        # 9-digit rounding boundary at 0.1234567885, one way and then the
        # other: the pair keeps its place and its order
        p = np.array([1.0, 0.1234567885, 0.3 + 0.5j, -0.2 - 0.25j, 0.4,
                      0.7 + 0.1j])
        real = np.array([1.0, -0.5, 0.25, 0.0, 2.0, 1.5], dtype=complex)
        orders = []
        for d in (1e-11, -1e-11):
            shift = np.array([0, d, 0, 0, 0, 0])
            lines = [PluckerLine(p + shift, np.zeros((2, 4)), False, 0.0),
                     PluckerLine(real, np.zeros((2, 4)), True, 0.0),
                     PluckerLine(np.conj(p) - shift, np.zeros((2, 4)), False,
                                 0.0)]
            monkeypatch.setattr(
                cli, "solve_lines", lambda F, seed, lines=lines:
                LineSet(lines=lines, real_count=1, conj_pairs=[(0, 2)]))
            records = cli.lines_payload(FERMAT)
            orders.append([(rec["real"], rec["plucker"][2][1] > 0)
                           for rec in records])
        assert orders == [[(True, False), (False, True), (False, False)]] * 2


class TestSchemas:
    @pytest.mark.parametrize("name", [
        "classify", "lines", "curve", "wall-label", "graph", "orbits",
        "counts", "walls", "polotovsky", "batch",
    ])
    def test_schema_files_are_valid(self, name):
        jsonschema.Draft202012Validator.check_schema(schema(name))

    def test_classify_output_validates(self, capsys):
        _, out, _ = run(capsys, "classify", "--surface", FERMAT)
        jsonschema.validate(json.loads(out), schema("classify"))

    def test_lines_output_validates(self, capsys):
        _, out, _ = run(capsys, "lines", "--surface", FERMAT)
        jsonschema.validate(json.loads(out), schema("lines"))

    def test_curve_output_validates(self, capsys):
        _, out, _ = run(capsys, "curve", "--cubic", CUBIC2,
                        "--conic", CIRCLE)
        payload = json.loads(out)
        jsonschema.validate(payload, schema("curve"))
        assert payload["transversal"] is True
        assert len(payload["intersections"]) == 6
        reals = [r for r in payload["intersections"] if r["real"]]
        assert len(reals) == 6
        by_comp = sorted(r["component"] for r in reals)
        assert by_comp == ["oval"] * 4 + ["pseudoline"] * 2

    def test_curve_builds_each_tensor_once(self, monkeypatch):
        # the cubic's tensor from the sweep goes on to the meet: one tensor
        # for the cubic and one for the conic
        built = forms.form_tensor
        degrees = []

        def counted(G):
            degrees.append(G.homogeneous_degree())
            return built(G)

        monkeypatch.setattr(forms, "form_tensor", counted)
        monkeypatch.setattr(curve, "form_tensor", counted)
        payload = cli.curve_payload(CUBIC2, CIRCLE)
        assert payload["transversal"] is True
        assert sorted(degrees) == [2, 3]

    def test_connected_curve_runs_no_sweep(self, monkeypatch):
        # the sign of the discriminant gives one component, and every real
        # meet point is then on the pseudoline
        def no_sweep(*args):
            raise AssertionError("swept a one-component cubic")

        monkeypatch.setattr(cli, "analyze_cubic", no_sweep)
        payload = cli.curve_payload("y^2 - x^3 - x", CIRCLE)
        assert payload["components"] == 1 and payload["transversal"]
        reals = [r["component"] for r in payload["intersections"]
                 if r["real"]]
        assert reals == ["pseudoline"] * 2

    def test_curve_without_conic_validates(self, capsys):
        _, out, _ = run(capsys, "curve", "--cubic", CUBIC2)
        payload = json.loads(out)
        jsonschema.validate(payload, schema("curve"))
        assert payload["transversal"] is None
        assert payload["intersections"] == []

    def test_curve_complex_intersections(self, capsys):
        # radius-10 circle: 2 real crossings, 4 complex
        _, out, _ = run(capsys, "curve", "--cubic", CUBIC2,
                        "--conic", "x^2 + y^2 - 100")
        payload = json.loads(out)
        jsonschema.validate(payload, schema("curve"))
        reals = [r for r in payload["intersections"] if r["real"]]
        fakes = [r for r in payload["intersections"] if not r["real"]]
        assert len(reals) == 2 and len(fakes) == 4
        assert all(r["component"] is None for r in fakes)

    def test_tangent_conic_reports_not_transversal(self, capsys):
        code, out, _ = run(capsys, "curve", "--cubic", "y^2 - x^3 + x",
                           "--conic", "(x-2)^2 + y^2 - 1")
        payload = json.loads(out)
        jsonschema.validate(payload, schema("curve"))
        assert code == 0
        assert payload["transversal"] is False

    def test_wall_label_output_validates(self, capsys):
        _, out, _ = run(capsys, "wall-label", "--conic", CIRCLE,
                        "--cubic", CUBIC2)
        payload = json.loads(out)
        jsonschema.validate(payload, schema("wall-label"))
        assert payload["label"] == [2, 4]

    def test_graph_output_validates(self, capsys):
        code, out, _ = run(capsys, "graph")
        payload = json.loads(out)
        jsonschema.validate(payload, schema("graph"))
        assert code == 0
        assert payload["issues"] == []

    @pytest.mark.parametrize("argv,name", [
        (("orbits",), "orbits"),
        (("orbits", "--mu", "2"), "orbits"),
        (("counts",), "counts"),
        (("walls",), "walls"),
        (("polotovsky",), "polotovsky"),
    ])
    def test_table_outputs_validate(self, capsys, argv, name):
        _, out, _ = run(capsys, *argv)
        jsonschema.validate(json.loads(out), schema(name))

    def test_polotovsky_counts(self, capsys):
        _, out, _ = run(capsys, "polotovsky")
        payload = json.loads(out)
        assert payload["count"] == 25
        assert payload["levels"] == {"0": 6, "2": 4, "4": 5, "6": 10}


class TestBatch:
    def test_order_errors_and_exit_code(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text(
            "x^3+y^3+z^3+1\n"
            "# a comment line\n"
            '{"surface": "x^3+y^3+z^3+w^3", "plane": "w"}\n'
            "x*y*z + w^3\n")
        code, out, _ = run(capsys, "classify", "--batch", str(batch),
                           "--jobs", "2")
        payload = json.loads(out)
        jsonschema.validate(payload, schema("batch"))
        assert code == 2
        assert len(payload) == 3
        assert payload[0]["class_id"] == 4
        assert payload[1]["class_id"] == 4
        assert payload[2]["error"]["type"] == "NotTransversal"

    def test_batch_single_worker(self, capsys, tmp_path):
        batch = tmp_path / "one.txt"
        batch.write_text("x^3+y^3+z^3+1\n")
        code, out, _ = run(capsys, "classify", "--batch", str(batch),
                           "--jobs", "1")
        assert code == 0
        assert json.loads(out)[0]["class_id"] == 4

    def test_zero_denominator_in_a_batch_is_one_error_record(self, capsys,
                                                             tmp_path):
        batch = tmp_path / "zero.txt"
        batch.write_text("x^3+y^3+z^3+1\n1/0*x^3 + y^3 + z^3 + 1\n")
        code, out, _ = run(capsys, "classify", "--batch", str(batch),
                           "--jobs", "1")
        payload = json.loads(out)
        jsonschema.validate(payload, schema("batch"))
        assert payload[0]["class_id"] == 4
        assert payload[1]["error"] == {"type": "ValueError",
                                       "message": "division by zero"}
        assert code == 1

    def test_batch_from_stdin(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO("x^3+y^3+z^3+1\n"))
        code, out, _ = run(capsys, "classify", "--batch", "-", "--jobs", "1")
        assert code == 0
        assert json.loads(out)[0]["class_id"] == 4

    def test_empty_batch_is_usage_error(self, capsys, tmp_path):
        batch = tmp_path / "empty.txt"
        batch.write_text("\n# nothing here\n")
        code, _, _ = run(capsys, "classify", "--batch", str(batch))
        assert code == 64

    def test_malformed_json_line_is_usage_error(self, capsys, tmp_path):
        batch = tmp_path / "bad.txt"
        batch.write_text('{"surface": \n')
        code, _, _ = run(capsys, "classify", "--batch", str(batch))
        assert code == 64

    @pytest.mark.parametrize("jobs, cores, want", [
        (None, 16, 3),           # default: one worker per entry
        (10 ** 6, 16, 3),        # never more workers than entries
        (10 ** 6, 2, 2),         # nor more than cores
        (2, 16, 2),
    ])
    def test_jobs_clamped(self, capsys, monkeypatch, tmp_path, jobs, cores,
                          want):
        started = []

        class RecordingPool:
            # stands in for ProcessPoolExecutor and starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        batch = tmp_path / "curves.txt"
        batch.write_text(f"{CUBIC2}\ny^2 - x^3 + x\ny^2 - x^3 - 1\n")
        argv = ["curve", "--batch", str(batch)]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(json.loads(out)) == 3
        assert started == [want]

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_is_usage_error(self, capsys, tmp_path, jobs):
        batch = tmp_path / "one.txt"
        batch.write_text(f"{CUBIC2}\n")
        code, out, err = run(capsys, "curve", "--batch", str(batch),
                             "--jobs", jobs)
        assert code == 64
        assert out == ""
        assert "--jobs" in err

    def test_huge_coefficients_label_alone_and_in_a_batch(self, capsys,
                                                           tmp_path):
        # a 201-digit coefficient once overflowed the recursion of the
        # root isolation and the float root certificate, and took the
        # whole batch down with it; the cubic is connected, with two real
        # meet points
        big = 10 ** 200
        conic = f"2*x^2 - x*y + x*z - 2*y^2 - y*z - 3{big}*z^2"
        cubic = f"x^3 + 3*x*y^2 - 7*y^3 + 1{big}*x*z^2 + 5*y*z^2 + z^3"
        code, out, _ = run(capsys, "wall-label", "--conic", conic,
                           "--cubic", cubic)
        assert code == 0 and json.loads(out)["label"] == 2
        batch = tmp_path / "pairs.jsonl"
        batch.write_text("".join(json.dumps({"conic": b, "cubic": c}) + "\n"
                                 for b, c in ((CIRCLE, CUBIC2), (conic, cubic),
                                              (CIRCLE, CUBIC2))))
        code, out, _ = run(capsys, "wall-label", "--batch", str(batch),
                           "--jobs", "1")
        assert code == 0
        assert [r["label"] for r in json.loads(out)] == [[2, 4], 2, [2, 4]]

    def test_huge_coefficients_classify_alone_and_in_a_batch(self, capsys,
                                                              tmp_path):
        # a 401-digit coefficient once overflowed the float tensor of the
        # line solver, and of the plane in the section tally, and took the
        # whole batch down with it.  x = 2^-443 x' balances the surface to
        # a 10^-133 perturbation of x'^3 + y^3 + z^3 + w^3 (witness 4)
        big = 10 ** 400
        surface = f"{big}*x^3 + y^3 + z^3 + w^3 + x*y*z"
        code, out, _ = run(capsys, "classify", "--surface", surface)
        assert code == 0 and json.loads(out)["class_id"] == 4
        code, out, _ = run(capsys, "lines", "--surface", surface)
        lines = json.loads(out)
        assert code == 0 and len(lines) == 27
        assert sum(line["real"] for line in lines) == 3
        plane = f"{big}*w + x"
        code, out, _ = run(capsys, "classify", "--surface",
                           "x^3 + y^3 + z^3 + w^3 + x*y*z", "--plane", plane)
        assert code == 0 and json.loads(out)["class_id"] == 4
        batch = tmp_path / "surfaces.jsonl"
        batch.write_text("".join(json.dumps(e) + "\n" for e in (
            {"surface": FERMAT}, {"surface": surface},
            {"surface": "x^3 + y^3 + z^3 + w^3 + x*y*z", "plane": plane})))
        code, out, _ = run(capsys, "classify", "--batch", str(batch),
                           "--jobs", "1")
        assert code == 0
        assert [r.get("class_id") for r in json.loads(out)] == [4, 4, 4]

    def test_batch_excludes_plane(self, capsys, tmp_path):
        # a batch entry carries its own plane
        batch = tmp_path / "t.txt"
        batch.write_text("x^3+y^3+z^3+1\n")
        code, out, _ = run(capsys, "classify", "--batch", str(batch),
                           "--plane", "x")
        assert (code, out) == (64, "")

    def test_batch_format_text_is_usage_error(self, capsys, tmp_path):
        batch = tmp_path / "t.txt"
        batch.write_text("x^3+y^3+z^3+1\n")
        code, _, _ = run(capsys, "classify", "--batch", str(batch),
                         "--format", "text")
        assert code == 64


class TestFormats:
    def test_classify_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--surface", FERMAT,
                           "--format", "text")
        assert code == 0
        assert out.startswith("class 4 (C3a)")

    def test_lines_text(self, capsys):
        code, out, _ = run(capsys, "lines", "--surface", FERMAT,
                           "--format", "text")
        assert "27 lines, 3 real" in out

    def test_curve_text(self, capsys):
        code, out, _ = run(capsys, "curve", "--cubic", CUBIC2,
                           "--format", "text")
        assert "components: 2" in out

    def test_graph_dot_shape(self, capsys):
        _, out, _ = run(capsys, "graph", "--format", "dot")
        assert out.startswith("graph wall_crossing {")
        assert out.rstrip().endswith("}")
        assert out.count("--") == 15
