import json

import pytest

import minstab.cli
import minstab.solve
from minstab.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_random_to_file(self, tmp_path, capsys):
        out = tmp_path / "a.pts"
        code, stdout, _ = run(capsys, "gen", "--random", "10", "--bbox", "100", "--seed", "7", "-o", str(out))
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "10"

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.pts", tmp_path / "b.pts"
        run(capsys, "gen", "--random", "6", "--seed", "3", "-o", str(a))
        run(capsys, "gen", "--random", "6", "--seed", "3", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_grid(self, capsys):
        code, stdout, _ = run(capsys, "gen", "--grid", "2x3", "--keep", "1")
        assert code == 0
        assert stdout.splitlines()[0] == "6"

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "gen")
        assert code == 1


class TestPipeline:
    @pytest.fixture
    def instance_file(self, tmp_path, capsys):
        path = tmp_path / "a.pts"
        run(capsys, "gen", "--random", "10", "--bbox", "100", "--seed", "7", "-o", str(path))
        return path

    def test_bound(self, instance_file, capsys):
        code, stdout, _ = run(
            capsys, "bound", str(instance_file), "--problem", "matching", "--family", "axis"
        )
        assert code == 0
        assert "k_frac=" in stdout
        assert "ceil_bound=" in stdout

    def test_bound_exact_check(self, instance_file, capsys):
        code, stdout, _ = run(
            capsys,
            "bound",
            str(instance_file),
            "--problem",
            "matching",
            "--family",
            "axis",
            "--exact-check",
        )
        assert code == 0
        assert "k_frac_exact=" in stdout

    def test_exact_then_eval_roundtrip(self, instance_file, tmp_path, capsys):
        sol_path = tmp_path / "sol.json"
        code, _, _ = run(
            capsys,
            "exact",
            str(instance_file),
            "--problem",
            "matching",
            "--family",
            "axis",
            "-o",
            str(sol_path),
        )
        assert code == 0
        doc = json.loads(sol_path.read_text())
        assert list(doc) == ["problem", "family", "k", "lower_bound", "method", "edges"]
        code, stdout, _ = run(
            capsys, "eval", str(instance_file), "--edges", str(sol_path)
        )
        assert code == 0
        assert f"value={doc['k']}" in stdout
        assert f"stored_k={doc['k']}" in stdout

    def test_eval_crossing(self, instance_file, tmp_path, capsys):
        sol_path = tmp_path / "sol.json"
        run(
            capsys, "exact", str(instance_file), "--problem", "matching",
            "--family", "axis", "-o", str(sol_path),
        )
        code, stdout, _ = run(
            capsys, "eval", str(instance_file), "--edges", str(sol_path),
            "--objective", "crossing",
        )
        assert code == 0
        assert "objective=crossing" in stdout

    def test_round(self, instance_file, capsys):
        code, stdout, _ = run(
            capsys, "round", str(instance_file), "--problem", "tree", "--family", "axis"
        )
        assert code == 0
        assert '"method": "rounding"' in stdout

    def test_minlen(self, instance_file, capsys):
        code, stdout, _ = run(
            capsys, "minlen", str(instance_file), "--problem", "matching", "--family", "axis"
        )
        assert code == 0
        assert '"method": "min_length"' in stdout

    def test_report(self, instance_file, capsys):
        code, stdout, stderr = run(
            capsys, "report", str(instance_file), "--problem", "matching", "--family", "axis"
        )
        assert code == 0
        for key in ("instance=", "k_frac=", "ceil_bound=", "k_rounding=", "k_exact=", "ratio=", "cuts_added="):
            assert key in stdout
        assert "time_" in stderr  # timings stay off stdout

    def test_report_stdout_reproducible(self, instance_file, capsys):
        _, first, _ = run(
            capsys, "report", str(instance_file), "--problem", "matching", "--family", "axis"
        )
        _, second, _ = run(
            capsys, "report", str(instance_file), "--problem", "matching", "--family", "axis"
        )
        assert first == second

    @pytest.mark.parametrize("command", ["report", "exact"])
    def test_rounds_once(self, instance_file, capsys, monkeypatch, command):
        calls = []
        rounding = minstab.solve.iterated_rounding

        def counted(*args, **kwargs):
            calls.append(args)
            return rounding(*args, **kwargs)

        monkeypatch.setattr(minstab.cli, "iterated_rounding", counted)
        monkeypatch.setattr(minstab.solve, "iterated_rounding", counted)
        code, _, _ = run(
            capsys, command, str(instance_file), "--problem", "matching", "--family", "axis"
        )
        assert code == 0
        assert len(calls) == 1


class TestOracleCommand:
    def test_square_matching(self, tmp_path, capsys):
        path = tmp_path / "sq.pts"
        path.write_text("4\n0 0\n1 0\n0 1\n1 1\n")
        code, stdout, _ = run(
            capsys, "oracle", str(path), "--problem", "matching", "--family", "axis"
        )
        assert code == 0
        assert "value=2" in stdout
        assert "optima=3" in stdout

    def test_square_triangulation_crossing(self, tmp_path, capsys):
        path = tmp_path / "sq.pts"
        path.write_text("4\n0 0\n1 0\n0 1\n1 1\n")
        code, stdout, _ = run(
            capsys, "oracle", str(path), "--problem", "triangulation",
            "--family", "axis", "--objective", "crossing",
        )
        assert code == 0
        assert "value=3" in stdout
        assert "optima=2" in stdout


class TestRenderCommand:
    def test_lp_render_square(self, tmp_path, capsys):
        path = tmp_path / "sq.pts"
        path.write_text("4\n0 0\n1 0\n0 1\n1 1\n")
        out = tmp_path / "out.svg"
        code, _, _ = run(
            capsys, "render", str(path), "--lp", "--problem", "matching",
            "--family", "axis", "-o", str(out),
        )
        assert code == 0
        svg = out.read_text()
        # fractional optimum: four half-weight sides
        lines = [l for l in svg.splitlines() if l.startswith("<line")]
        assert len(lines) == 4
        widths = {l.split('stroke-width="')[1].split('"')[0] for l in lines}
        assert len(widths) == 1

    def test_render_solution(self, tmp_path, capsys):
        path = tmp_path / "sq.pts"
        path.write_text("4\n0 0\n1 0\n0 1\n1 1\n")
        sol = tmp_path / "sol.json"
        run(capsys, "exact", str(path), "--problem", "matching", "--family", "axis", "-o", str(sol))
        out = tmp_path / "out.svg"
        code, _, _ = run(capsys, "render", str(path), "--edges", str(sol), "-o", str(out))
        assert code == 0
        assert out.read_text().count("<line") == 2

    def test_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "sq.pts"
        path.write_text("4\n0 0\n1 0\n0 1\n1 1\n")
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", str(path), "-o", str(a))
        run(capsys, "render", str(path), "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestDropLast:
    def test_odd_matching_fails_without_flag(self, tmp_path, capsys):
        path = tmp_path / "odd.pts"
        path.write_text("3\n0 0\n5 0\n0 5\n")
        code, _, _ = run(
            capsys, "exact", str(path), "--problem", "matching", "--family", "axis"
        )
        assert code == 2

    def test_drop_last_fixes_odd(self, tmp_path, capsys):
        path = tmp_path / "odd.pts"
        path.write_text("3\n0 0\n5 0\n0 5\n")
        code, stdout, _ = run(
            capsys, "exact", str(path), "--problem", "matching", "--family", "axis",
            "--drop-last",
        )
        assert code == 0
        assert '"k": 1' in stdout


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "bound", "/no/such/file.pts", "--problem", "matching")
        assert code == 1

    def test_bad_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1
