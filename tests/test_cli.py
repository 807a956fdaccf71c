"""End-to-end tests for the command line driver."""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from troplectra.cli import main
from troplectra.matrix import SMatrix, format_matrix, matrix_from_json, parse_matrix
from troplectra.polynomial import format_poly, parse_poly
from troplectra.semiring import SScalar
from troplectra.valuation import MonomialMatrix, random_tpd

DATA = Path(__file__).parent / "data"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ok(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return out


class TestCheck:
    def test_tpd(self, capsys):
        assert ok(capsys, "check", DATA / "pd3_mixed.mat") == "TPD\n"

    def test_tpsd_only_with_witness(self, capsys):
        out = ok(capsys, "check", DATA / "flat2.mat")
        assert out == "TPSD-only (witness 0,1)\n"

    def test_not_tpsd(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 2\np0 p2\np2 p0\n")
        assert ok(capsys, "check", path) == "NotTPSD (witness 0,1)\n"

    def test_csv(self, capsys):
        out = ok(capsys, "check", DATA / "flat2.mat", "--format", "csv")
        assert out == "verdict,witness_i,witness_j\nTPSD-only,0,1\n"

    def test_json(self, capsys):
        out = ok(capsys, "check", DATA / "pd3_mixed.mat", "--format", "json")
        assert json.loads(out) == {"verdict": "TPD", "witness": None}


class TestCharpoly:
    def test_worked_cubic(self, capsys):
        out = ok(capsys, "charpoly", DATA / "pd3_pos.mat")
        assert out == "X^3 (-) 3 X^2 (+) 5 X (-) 6\n"

    def test_unicode(self, capsys):
        out = ok(capsys, "charpoly", DATA / "pd3_pos.mat", "--unicode")
        assert out == "X^3 ⊖ 3 X^2 ⊕ 5 X ⊖ 6\n"

    def test_balanced_constant(self, capsys):
        out = ok(capsys, "charpoly", DATA / "flat2.mat")
        assert out == "X^2 (-) X (+) 0*\n"

    def test_csv(self, capsys):
        out = ok(capsys, "charpoly", DATA / "pd3_pos.mat", "--format", "csv")
        assert out == "degree,coefficient\n0,n6\n1,p5\n2,n3\n3,p0\n"

    def test_json(self, capsys):
        out = ok(capsys, "charpoly", DATA / "pd3_pos.mat", "--format", "json")
        doc = json.loads(out)
        assert doc["coefficients"] == ["n6", "p5", "n3", "p0"]
        assert doc["pretty"] == "X^3 (-) 3 X^2 (+) 5 X (-) 6"


class TestEig:
    def test_table(self, capsys):
        out = ok(capsys, "eig", DATA / "pd3_pos.mat")
        assert out == "gamma mult\np3 1\np2 1\np1 1\n"

    def test_json(self, capsys):
        out = ok(capsys, "eig", DATA / "pd3_pos.mat", "--format", "json")
        assert json.loads(out) == [
            {"value": "p3", "mult": 1},
            {"value": "p2", "mult": 1},
            {"value": "p1", "mult": 1},
        ]

    def test_not_tpd_exits_1(self, capsys):
        code, out, err = run(capsys, "eig", DATA / "flat2.mat")
        assert code == 1
        assert out == ""
        assert err.startswith("NotTPD")

    def test_report(self, capsys):
        out = ok(capsys, "eig", DATA / "pd3_mixed.mat", "--report")
        assert out == (
            "gamma p3 mult 1\n"
            "gamma p2 mult 1\n"
            "gamma p1 mult 1\n"
            "k=1 class strong simple true unique true strong_exists yes\n"
            "  adjugate p6 n5 p4\n"
            "  kleene   p6 n5 p4\n"
            "k=2 class eigen simple true unique true strong_exists no\n"
            "  adjugate n4 n5 n4\n"
            "  kleene   n4 n5 n4\n"
            "k=3 class eigen simple true unique true strong_exists no\n"
            "  adjugate n3 n4 p5\n"
            "  kleene   n3 n4 p5\n"
            "generic true\n"
        )

    def test_report_json(self, capsys):
        out = ok(
            capsys, "eig", DATA / "pd3_mixed.mat", "--report", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["generic"] is True
        assert len(doc["vectors"]) == 3
        assert doc["vectors"][0]["class"] == "strong"
        assert doc["vectors"][0]["adjugate"] == ["p6", "n5", "p4"]


class TestEigvec:
    def test_strong_candidate(self, capsys):
        out = ok(capsys, "eigvec", DATA / "pd3_mixed.mat", "-k", "1")
        assert out == (
            "gamma p3\n"
            "adjugate p6 n5 p4\n"
            "kleene p6 n5 p4\n"
            "class strong\n"
            "unique true\n"
            "strong_exists yes\n"
        )

    def test_weak_candidate(self, capsys):
        out = ok(capsys, "eigvec", DATA / "pd3_pos.mat", "-k", "3")
        assert out == (
            "gamma p1\n"
            "adjugate b3 n4 p5\n"
            "kleene b3 n4 p5\n"
            "class weak\n"
            "unique false\n"
            "strong_exists no\n"
        )

    def test_construct_resolves_balanced(self, capsys):
        out = ok(
            capsys, "eigvec", DATA / "pd3_balcoord.mat", "-k", "1", "--construct"
        )
        assert out == (
            "gamma p3\n"
            "adjugate p6 n5 b3\n"
            "kleene p6 n5 b3\n"
            "class weak\n"
            "unique false\n"
            "strong_exists no\n"
            "construct p6 n5 p3\n"
        )

    def test_unicode(self, capsys):
        out = ok(capsys, "eigvec", DATA / "pd3_mixed.mat", "-k", "2", "--unicode")
        assert "adjugate (⊖4, ⊖5, ⊖4)\n" in out

    def test_json(self, capsys):
        out = ok(
            capsys,
            "eigvec",
            DATA / "pd3_balcoord.mat",
            "-k", "1",
            "--construct",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["gamma"] == "p3"
        assert doc["adjugate"] == ["p6", "n5", "b3"]
        assert doc["kleene"] == ["p6", "n5", "b3"]
        assert doc["class"] == "weak"
        assert doc["construct"] == ["p6", "n5", "p3"]

    @pytest.mark.parametrize("k", [0, 4])
    def test_index_out_of_range_exits_1(self, capsys, k):
        code, out, err = run(capsys, "eigvec", DATA / "pd3_pos.mat", "-k", k)
        assert code == 1
        assert err.startswith("ShapeMismatch")


class TestStar:
    def test_table(self, capsys):
        out = ok(capsys, "star", DATA / "contracted3.mat")
        assert out == "3 3\np0 n-1 b-3\nn-1 p0 p-2\nb-3 p-2 p0\n"

    def test_csv(self, capsys):
        out = ok(capsys, "star", DATA / "contracted3.mat", "--format", "csv")
        assert out == "p0,n-1,b-3\nn-1,p0,p-2\nb-3,p-2,p0\n"

    def test_unicode(self, capsys):
        out = ok(capsys, "star", DATA / "contracted3.mat", "--unicode")
        assert "⊖-1" in out
        assert "-3°" in out

    def test_json_round_trips(self, capsys):
        out = ok(capsys, "star", DATA / "contracted3.mat", "--format", "json")
        star = matrix_from_json(json.loads(out))
        text = ok(capsys, "star", DATA / "contracted3.mat")
        assert star == parse_matrix(text)

    def test_contracted_tpd_40_is_a_fixed_point(self, capsys, tmp_path):
        a = random_tpd(40, 0)
        top = max(a[i, i].mag for i in range(a.rows))
        a = SScalar.pos(-top) * a
        path = tmp_path / "tpd40.mat"
        path.write_text(format_matrix(a))
        star = parse_matrix(ok(capsys, "star", path))
        assert star == SMatrix.identity(40) + a @ star

    def test_diverging_matrix_exits_1(self, capsys, tmp_path):
        path = tmp_path / "div.mat"
        path.write_text("1 1\np1\n")
        code, out, err = run(capsys, "star", path)
        assert code == 1
        assert err.startswith("StarDiverges")


class TestDet:
    def test_table(self, capsys):
        out = ok(capsys, "det", DATA / "pd3_pos.mat")
        assert out == "det p6\npermanent 6\n"

    def test_csv(self, capsys):
        out = ok(capsys, "det", DATA / "pd3_pos.mat", "--format", "csv")
        assert out == "det,permanent\np6,6\n"

    def test_json(self, capsys):
        out = ok(capsys, "det", DATA / "pd3_pos.mat", "--format", "json")
        assert json.loads(out) == {"det": "p6", "permanent": "6"}

    def test_size_limit_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPLECTRA_SIZE_LIMIT", "2")
        code, out, err = run(capsys, "det", DATA / "pd3_pos.mat")
        assert code == 1
        assert err.startswith("SizeLimitExceeded")


class TestPolyRoots:
    def test_table(self, capsys):
        out = ok(capsys, "poly-roots", DATA / "cubic.poly")
        assert out == (
            "root kind mult\n"
            "p3 SVeeRoot 1\n"
            "p2 SVeeRoot 1\n"
            "p1 SVeeRoot 1\n"
        )

    def test_json(self, capsys):
        out = ok(capsys, "poly-roots", DATA / "cubic.poly", "--format", "json")
        doc = json.loads(out)
        assert [r["root"] for r in doc["roots"]] == ["p3", "p2", "p1"]
        assert [r["root"] for r in doc["modulus_roots"]] == ["3", "2", "1"]


class TestValidate:
    def test_csv_eigenvalue_rows(self, capsys):
        out = ok(capsys, "validate", DATA / "pd5_family.mono", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,t,gamma,sv,residual")
        assert len(lines) == 11
        by_key = {}
        for ln in lines[1:]:
            parts = ln.split(",")
            by_key[(int(parts[0]), float(parts[1]))] = parts
        printed = {
            10.0: [5.0048, 3.9543, 2.9542, 1.9542, 0.9494],
            100.0: [5.0000, 3.9978, 2.9978, 1.9978, 0.9978],
        }
        for t, svs in printed.items():
            for k, expected in enumerate(svs, start=1):
                parts = by_key[(k, t)]
                assert abs(float(parts[3].lstrip("p")) - expected) < 1e-3
                assert parts[6] == "true"

    def test_single_base(self, capsys):
        out = ok(capsys, "validate", DATA / "pd5_family.mono", "--t", "10")
        assert out.startswith("t = 10\n")
        assert "t = 100" not in out
        assert out.count("ok") == 5

    def test_vectors_csv(self, capsys):
        out = ok(
            capsys,
            "validate",
            DATA / "pd5_family.mono",
            "--vectors",
            "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert len(lines) == 11
        for ln in lines[1:]:
            parts = ln.split(",")
            assert parts[8] == "true"
            assert parts[9] == "true"

    def test_vectors_pretty(self, capsys):
        out = ok(capsys, "validate", DATA / "pd5_family.mono", "--vectors")
        assert "eigenvector k=1" in out
        assert "balanced" in out
        assert "MISMATCH" not in out
        assert "ABOVE BOUND" not in out

    def test_json(self, capsys):
        out = ok(
            capsys, "validate", DATA / "pd5_family.mono", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["n"] == 5
        assert doc["t_values"] == [10.0, 100.0]
        assert len(doc["rows"]) == 10

    def test_bad_base_list_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(DATA / "pd5_family.mono"), "--t", "x,y"])
        assert exc.value.code == 2


class TestGersh:
    def test_table(self, capsys):
        out = ok(capsys, "gersh", DATA / "spd2.num")
        assert out == (
            "gamma 2.0\n"
            "weak false\n"
            "contained true\n"
            "ball 4.0 2.0\n"
            "ball 1.0 0.5\n"
        )

    def test_csv(self, capsys):
        out = ok(capsys, "gersh", DATA / "spd2.num", "--format", "csv")
        assert out == "center,radius\n4.0,2.0\n1.0,0.5\n"

    def test_json(self, capsys):
        out = ok(capsys, "gersh", DATA / "spd2.num", "--format", "json")
        doc = json.loads(out)
        assert doc["gamma"] == 2.0
        assert doc["contained"] is True
        assert doc["balls"] == [[4.0, 2.0], [1.0, 0.5]]
        w = sorted(doc["eigenvalues"])
        assert abs(w[0] - (5 - 13 ** 0.5) / 2) < 1e-12
        assert abs(w[1] - (5 + 13 ** 0.5) / 2) < 1e-12

    def test_diagonal_matrix_has_infinite_gamma(self, capsys, tmp_path):
        path = tmp_path / "diag.num"
        path.write_text("2 2\n3.0 0.0\n0.0 2.0\n")
        out = ok(capsys, "gersh", path)
        assert out.startswith("gamma inf\n")
        out = ok(capsys, "gersh", path, "--format", "json")
        assert json.loads(out)["gamma"] is None

    def test_nonpositive_diagonal_exits_1(self, capsys, tmp_path):
        path = tmp_path / "neg.num"
        path.write_text("1 1\n-1.0\n")
        code, out, err = run(capsys, "gersh", path)
        assert code == 1
        assert err.startswith("NonpositiveDiagonal")


class TestRandom:
    def test_tpd_pinned(self, capsys):
        out = ok(capsys, "random", "tpd", "-n", "3", "--seed", "5")
        assert out == "3 3\np4 n-5/2 p0\nn-5/2 p2 n2\np0 n2 p5\n"

    def test_tpd_deterministic(self, capsys):
        first = ok(capsys, "random", "tpd", "-n", "4", "--seed", "9")
        second = ok(capsys, "random", "tpd", "-n", "4", "--seed", "9")
        assert first == second

    def test_gram_symmetric(self, capsys):
        out = ok(
            capsys, "random", "gram", "-n", "4", "--seed", "2", "--format", "json"
        )
        arr = np.array(json.loads(out)["rows"])
        assert arr.shape == (4, 4)
        assert np.allclose(arr, arr.T)

    def test_gram_table_parses(self, capsys):
        out = ok(capsys, "random", "gram", "-n", "2", "--seed", "0")
        lines = out.strip().splitlines()
        assert lines[0] == "2 2"
        values = [float(tok) for ln in lines[1:] for tok in ln.split()]
        assert len(values) == 4

    def test_missing_n_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["random", "tpd"])
        assert exc.value.code == 2


class TestExitCodes:
    def test_missing_file_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "/nonexistent/file.mat")
        assert code == 2
        assert "No such file" in err

    def test_bad_matrix_text_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.mat"
        path.write_text("this is not a matrix\n")
        code, out, err = run(capsys, "check", path)
        assert code == 2
        assert err.startswith("ParseError")

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(DATA / "pd3_pos.mat"), "--bogus"])
        assert exc.value.code == 2

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "binary.mat"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "check", path)
        assert code == 2
        assert out == ""
        assert err.startswith("ParseError")


class TestParser:
    def test_parser_not_rebuilt_per_call(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert ok(capsys, "check", DATA / "pd3_mixed.mat") == "TPD\n"
        assert ok(capsys, "det", DATA / "pd3_pos.mat") == "det p6\npermanent 6\n"
        assert built == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["eigvec", str(DATA / "pd3_mixed.mat"), "-k", "1"],
            ["random", "tpd", "-n", "3"],
        ],
    )
    def test_csv_rejected_where_not_offered(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_help_lists_subcommands_in_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert (
            "{check,charpoly,eig,eigvec,star,det,poly-roots,validate,gersh,random}"
            in capsys.readouterr().out
        )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "pd3_pos.mat",
            "pd3_mixed.mat",
            "pd3_balcoord.mat",
            "flat2.mat",
            "contracted3.mat",
        ],
    )
    def test_matrix_files(self, name):
        a = parse_matrix((DATA / name).read_text())
        assert parse_matrix(format_matrix(a)) == a

    def test_poly_file(self):
        p = parse_poly((DATA / "cubic.poly").read_text())
        assert parse_poly(format_poly(p)) == p

    def test_family_file(self):
        fam = MonomialMatrix.parse((DATA / "pd5_family.mono").read_text())
        again = MonomialMatrix.parse(fam.format())
        assert again.format() == fam.format()
        assert np.array_equal(again.evaluate(10.0), fam.evaluate(10.0))


def console_script_body(name, target):
    """The body of the wrapper that pip writes for a console script."""
    module, _, attr = target.partition(":")
    return (
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.argv[0] = {name!r}\n"
        f"sys.exit({attr}())\n"
    )


class TestEntryPoint:
    def test_installed_script(self):
        # The declared console script, run as its installed wrapper would run
        # it, so the check holds without an install putting it on PATH.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["troplectra"]
        assert target == "troplectra.cli:main"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                console_script_body("troplectra", target),
                "check",
                str(DATA / "pd3_mixed.mat"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "TPD\n"

    @pytest.mark.skipif(
        shutil.which("troplectra") is None,
        reason="troplectra console script not installed",
    )
    def test_console_script_on_path(self):
        proc = subprocess.run(
            ["troplectra", "check", str(DATA / "pd3_mixed.mat")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "TPD\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "troplectra.cli", "det", str(DATA / "pd3_pos.mat")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "det p6\npermanent 6\n"
