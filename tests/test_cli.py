"""CLI subcommands: formats, exit codes, cache behavior, determinism."""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qspt
from cli_runner import CliRunner
from qspt import cli, identities, laurent, stats
from qspt import spt as sptmod
from qspt.cli import main
from qspt.laurent import SymRows
from qspt.partitions import Partition
from qspt.series import DiscrepancyError, TruncSeries


@pytest.fixture
def runner():
    return CliRunner()


class TestCompute:
    def test_spt_values_plain(self, runner):
        result = runner.invoke(main, ["compute", "--family", "Spt_j", "--j", "1",
                                      "--n-max", "4"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["1 1", "2 3", "3 5", "4 10"]

    def test_p_values(self, runner):
        result = runner.invoke(main, ["compute", "--family", "p", "--n-max", "4"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["1 1", "2 2", "3 3", "4 5"]

    def test_jspt_matches_spt_difference(self, runner):
        got = runner.invoke(main, ["compute", "--family", "jspt_k", "--j", "2",
                                   "--k", "1", "--n-max", "3"])
        spt2 = runner.invoke(main, ["compute", "--family", "Spt_j", "--j", "2",
                                    "--n-max", "3"])
        spt1 = runner.invoke(main, ["compute", "--family", "Spt_j", "--j", "1",
                                    "--n-max", "3"])
        parse = lambda r: [int(line.split()[1]) for line in r.output.splitlines()]
        assert parse(got) == [a - b for a, b in zip(parse(spt2), parse(spt1))]

    def test_csv_format(self, runner):
        result = runner.invoke(main, ["compute", "--family", "spt", "--n-max", "3",
                                      "--format", "csv"])
        assert result.output.splitlines() == ["n,value", "1,1", "2,3", "3,5"]

    def test_json_format(self, runner):
        result = runner.invoke(main, ["compute", "--family", "spt", "--n-max", "3",
                                      "--format", "json"])
        assert json.loads(result.output) == [
            {"n": 1, "value": 1}, {"n": 2, "value": 3}, {"n": 3, "value": 5}
        ]

    def test_invalid_parameters_exit_2(self, runner):
        result = runner.invoke(main, ["compute", "--family", "spt", "--j", "2",
                                      "--n-max", "3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("extra", [
        ["--family", "Spt_j", "--j", "0"],
        # a route the family lacks
        ["--family", "p", "--route", "moments"],
        ["--family", "spt", "--route", "moments"],
    ])
    def test_invalid_request_exit_2(self, runner, extra):
        result = runner.invoke(main, ["compute", "--n-max", "3"] + extra)
        assert result.exit_code == 2

    @pytest.mark.parametrize("extra", [
        ["--family", "Spt_j", "--j", "2", "--route", "weight"],
        ["--family", "jspt_k", "--j", "2", "--k", "1", "--route", "all"],
    ])
    def test_enumerating_route_over_limit_exit_2(self, runner, extra):
        n_max = str(sptmod.WEIGHT_N_MAX + 1)
        result = runner.invoke(main, ["compute", "--n-max", n_max] + extra)
        assert result.exit_code == 2
        assert "enumerates partitions" in result.output

    def test_spt_k_all_routes_past_the_enumeration_limit(self, runner):
        # spt_k's weight route reads a counting row, so "all" is not refused here
        args = ["compute", "--family", "spt_k", "--k", "2",
                "--n-max", str(sptmod.WEIGHT_N_MAX + 1)]
        result = runner.invoke(main, args + ["--route", "all"])
        assert result.exit_code == 0
        assert result.output == runner.invoke(main, args + ["--route", "gf"]).output

    @pytest.mark.parametrize("route", ["gf", "all"])
    def test_spt_routes_match_default(self, runner, route):
        args = ["compute", "--family", "spt", "--n-max", "12"]
        default = runner.invoke(main, args)
        result = runner.invoke(main, args + ["--route", route])
        assert result.exit_code == 0
        assert result.output == default.output

    def test_weight_route_with_k_above_the_parts_is_fast(self, runner):
        # an unbounded enumeration walks all 2**1099 compositions of k, k deep
        start = time.perf_counter()
        result = runner.invoke(main, ["compute", "--family", "spt_k", "--k", "1100",
                                      "--n-max", "2", "--route", "weight"])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 0
        assert result.output.splitlines() == ["1 0", "2 0"]

    def test_missing_family_exit_2(self, runner):
        result = runner.invoke(main, ["compute", "--n-max", "3"])
        assert result.exit_code == 2

    def test_cache_round_trip(self, runner, tmp_path):
        cache = str(tmp_path / "cache.json")
        args = ["compute", "--family", "Spt_j", "--j", "2", "--n-max", "6",
                "--cache", cache]
        cold = runner.invoke(main, args)
        assert cold.exit_code == 0
        doc = json.loads(open(cache).read())
        assert doc["version"] == 1
        assert all(isinstance(v, str) for vs in doc["entries"].values() for v in vs)
        warm = runner.invoke(main, args)
        assert warm.output == cold.output

    def test_cache_env_var(self, runner, tmp_path, monkeypatch):
        cache = tmp_path / "envcache.json"
        monkeypatch.setenv("QSPT_CACHE", str(cache))
        result = runner.invoke(main, ["compute", "--family", "p", "--n-max", "3"])
        assert result.exit_code == 0
        assert cache.exists()

    P_ARGS = ["compute", "--family", "p", "--n-max", "3"]
    P_KEY = f"{qspt.__version__}|p|j=None|k=None|route=recurrence|N=3"

    def _assert_recomputed(self, result, cache):
        assert result.exit_code == 0
        assert result.stdout.splitlines() == ["1 1", "2 2", "3 3"]
        doc = json.loads(cache.read_text())
        assert doc["version"] == 1 and doc["entries"][self.P_KEY] == ["1", "2", "3"]

    @pytest.mark.parametrize("text", [
        b'{"version": 1, "entries": {',  # truncated: used to die with a traceback
        b"not json at all",
        b"\xff",  # not UTF-8
    ])
    def test_cache_not_json_warns_and_recomputes(self, runner, tmp_path, text):
        cache = tmp_path / "cache.json"
        cache.write_bytes(text)
        result = runner.invoke(main, self.P_ARGS + ["--cache", str(cache)])
        self._assert_recomputed(result, cache)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("warning:")

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"entries": {}},
        {"version": 2, "entries": {}},
        {"version": 1, "entries": []},
    ])
    def test_cache_wrong_shape_warns_and_recomputes(self, runner, tmp_path, doc):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps(doc))
        result = runner.invoke(main, self.P_ARGS + ["--cache", str(cache)])
        self._assert_recomputed(result, cache)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("warning:")

    def test_cache_unreadable_warns_and_computes(self, runner, tmp_path):
        cache = tmp_path / "cache.json"
        cache.mkdir()  # exists, but cannot be read (or replaced) as a file
        result = runner.invoke(main, self.P_ARGS + ["--cache", str(cache)])
        assert result.exit_code == 0
        assert result.stdout.splitlines() == ["1 1", "2 2", "3 3"]
        assert result.stderr.startswith("warning:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]

    @pytest.mark.parametrize("entry", [
        ["1"],  # too short: used to print one row
        ["1", "2", "3", "5"],  # too long
        ["1", "x", "3"],  # not an integer: used to die with a traceback
        ["1", 2, "3"],  # not a string
        "123",
    ])
    def test_cache_bad_entry_is_recomputed(self, runner, tmp_path, entry):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"version": 1, "entries": {self.P_KEY: entry}}))
        result = runner.invoke(main, self.P_ARGS + ["--cache", str(cache)])
        self._assert_recomputed(result, cache)

    def test_cache_of_another_version_is_recomputed(self, runner, tmp_path):
        old_key = "0.0.0" + self.P_KEY[len(qspt.__version__):]
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"version": 1, "entries": {old_key: ["7", "8", "9"]}}))
        result = runner.invoke(main, self.P_ARGS + ["--cache", str(cache)])
        self._assert_recomputed(result, cache)
        assert result.stderr == ""

    def test_cache_of_this_version_is_read(self, runner, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"version": 1, "entries": {self.P_KEY: ["7", "8", "9"]}}))
        result = runner.invoke(main, self.P_ARGS + ["--cache", str(cache)])
        assert result.exit_code == 0
        assert result.stdout.splitlines() == ["1 7", "2 8", "3 9"]

    def test_cache_written_by_replace(self, runner, tmp_path, monkeypatch):
        moves = []
        real_replace = os.replace

        def spy(src, dst):
            moves.append((src, dst))
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", spy)
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"version": 1, "entries": {}}))
        result = runner.invoke(main, self.P_ARGS + ["--cache", str(cache)])
        self._assert_recomputed(result, cache)
        ((src, dst),) = moves
        assert dst == str(cache) and src != dst
        assert os.path.dirname(src) == str(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]

    def test_determinism(self, runner):
        args = ["compute", "--family", "spt_k", "--k", "2", "--n-max", "8",
                "--format", "csv"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


class TestVerify:
    @pytest.mark.parametrize("identity,extra", [
        ("sptpn", ["--n-max", "20"]),
        ("genn1", ["--j", "2", "--n-max", "15"]),
        ("sptpng", ["--j", "2", "--n-max", "15"]),
        ("jgn", ["--n-max", "10"]),
        ("sptdiff", ["--j", "2", "--n-max", "12"]),
        ("kn1", ["--j", "1", "--n-max", "12"]),
        ("genjmu2k", ["--j", "2", "--k", "2", "--n-max", "12"]),
        ("appbp", ["--r", "2", "--k", "1", "--n-max", "12"]),
        ("gtjsptk", ["--j", "2", "--k", "1", "--n-max", "10"]),
        ("relos", ["--j", "1", "--k", "2", "--n-max", "12"]),
        ("fdyson", ["--n-max", "15"]),
        ("Rk-forms", ["--j", "3", "--n-max", "10"]),
        ("lemma31", ["--n-max", "12"]),
        ("lemma32", ["--n-max", "12"]),
        ("genineq", ["--j", "1", "--k", "1", "--n-max", "15"]),
    ])
    def test_all_identities_pass(self, runner, identity, extra):
        result = runner.invoke(main, ["verify", identity] + extra)
        assert result.exit_code == 0, (identity, result.output)
        # diagnostics may precede the verdict on stderr; the verdict line
        # itself must announce PASS
        assert any(line.startswith("PASS") for line in result.output.splitlines())

    def test_unknown_identity_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "nonsense"])
        assert result.exit_code == 2

    def test_bad_parameter_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "kn1", "--j", "0"])
        assert result.exit_code == 2

    def test_out_of_range_parameter_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "sptdiff", "--j", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("identity", ["lemma31", "lemma32"])
    def test_enumerating_verifier_past_the_weight_limit(self, runner, identity):
        # their limit is their own, above the enumerating weight routes' one
        n_max = str(sptmod.WEIGHT_N_MAX + 1)
        result = runner.invoke(main, ["verify", identity, "--n-max", n_max])
        assert result.exit_code == 0 and "PASS" in result.output

    @pytest.mark.parametrize("identity", ["lemma31", "lemma32"])
    def test_enumerating_verifier_over_limit_exit_2(self, runner, identity):
        # these enumerate every partition of every n up to the order
        n_max = str(identities.LEMMA_N_MAX + 1)
        result = runner.invoke(main, ["verify", identity, "--n-max", n_max])
        assert result.exit_code == 2
        lines = result.output.splitlines()
        assert sum(line.startswith("Usage:") for line in lines) == 1
        assert "enumerates partitions" in result.output
        assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)

    def test_library_raises_value_error(self):
        # the identity registry raises ValueError; the CLI maps it to exit 2
        with pytest.raises(ValueError):
            identities.verify("sptdiff", j=1)
        order, rows, notes = identities.verify("fdyson", order=5)
        assert order == 5 and rows[0] == ("n=2", 4, 4, True) and notes

    def test_csv_rows(self, runner):
        result = runner.invoke(main, ["verify", "fdyson", "--n-max", "5",
                                      "--format", "csv"])
        lines = result.output.splitlines()
        assert lines[0] == "n,lhs,rhs,ok"
        assert lines[1] == "n=2,4,4,True"

    def _labels(self, runner, args):
        result = runner.invoke(main, ["verify", *args, "--format", "csv"])
        assert result.exit_code == 0, result.output
        return [line.split(",")[0] for line in result.output.splitlines()[1:]]

    def test_sptpn_rows_interleave(self, runner):
        # the rows are read from the top down but listed from n = 1 up
        labels = self._labels(runner, ["sptpn", "--n-max", "30"])
        assert labels == [f"n={n}{tag}" for n in range(1, 31) for tag in ("", ":gf")]

    def test_rk_forms_rows_by_form(self, runner):
        labels = self._labels(runner, ["Rk-forms", "--n-max", "12"])
        assert labels == [f"n={n}:{form}" for form in ("bilateral", "counts")
                          for n in range(13)]

    @pytest.mark.parametrize("n_max", ["40", "300"])
    def test_genineq_threshold_note(self, runner, n_max):
        result = runner.invoke(main, ["verify", "genineq", "--n-max", n_max])
        assert result.exit_code == 0
        assert "# strict inequality holds for all tested n >= 2" in result.output.splitlines()

    def test_json_rows(self, runner):
        result = runner.invoke(main, ["verify", "relos", "--n-max", "4",
                                      "--format", "json"])
        rows = json.loads(result.output)
        assert all(row["ok"] for row in rows)

    def test_defaults_run(self, runner):
        result = runner.invoke(main, ["verify", "appbp", "--n-max", "10"])
        assert result.exit_code == 0


class TestOneMomentParityCheck:
    """Every halved second moment goes through one exactness check: an odd
    moment raises DiscrepancyError, which the CLI reports as exit 1."""

    @pytest.fixture
    def odd_at_7(self, monkeypatch):
        moment = sptmod.moment
        monkeypatch.setattr(sptmod, "moment", lambda j, t, n: moment(j, t, n) + (n == 7))

    @pytest.mark.parametrize("identity", ["sptdiff", "fdyson"])
    def test_library_raises(self, odd_at_7, identity):
        with pytest.raises(DiscrepancyError, match="second moment of the .*-rank is odd at n=7"):
            identities.verify(identity)

    @pytest.mark.parametrize("identity", ["sptdiff", "fdyson"])
    def test_cli_exits_1(self, runner, odd_at_7, identity):
        result = runner.invoke(main, ["verify", identity])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("FAIL second moment")

    def test_sptdiff_left_side_is_the_gf_route(self, runner, monkeypatch):
        # a left side read off the moments route would pass with any gf_spt_j
        gf_spt_j = sptmod.gf_spt_j

        def shifted(j, order):
            s = gf_spt_j(j, order)
            return TruncSeries([c + 1 for c in s.coeffs]) if j == 2 else s

        monkeypatch.setattr(sptmod, "gf_spt_j", shifted)
        result = runner.invoke(main, ["verify", "sptdiff"])
        assert result.exit_code == 1
        assert result.stdout.startswith("FAIL sptdiff at n=1:")


class TestRouteDisagreement:
    """Two routes that disagree, or a relation whose expressions differ, raise
    DiscrepancyError; the CLI reports it as exit 1, a FAIL line and no rows."""

    @pytest.fixture
    def gf_off_at_5(self, monkeypatch):
        routes = sptmod.FAMILIES["Spt_j"].routes
        gf, value = routes["gf"], sptmod.spt_j(2, 5)
        monkeypatch.setitem(routes, "gf", lambda j, n: gf(j, n) + (n == 5))
        return f"route disagreement for Spt_j(2, 5): " \
               f"{{'moments': {value}, 'gf': {value + 1}, 'weight': {value}}}"

    def test_library_raises(self, gf_off_at_5):
        assert sptmod.spt_j(2, 6, "all") == sptmod.spt_j(2, 6)
        with pytest.raises(DiscrepancyError) as exc:
            sptmod.spt_j(2, 5, "all")
        assert str(exc.value) == gf_off_at_5

    def test_cli_exits_1(self, runner, gf_off_at_5):
        result = runner.invoke(main, ["compute", "--route", "all", "--family", "Spt_j",
                                      "--j", "2", "--n-max", "8"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"FAIL {gf_off_at_5}\n"

    def test_relation_sum_mismatch(self, monkeypatch):
        value = sptmod.relation_sum(2, 5)
        jspt_k = sptmod.jspt_k
        monkeypatch.setattr(sptmod, "jspt_k",
                            lambda j, k, n, route="moments": jspt_k(j, k, n, route) + (j == 2))
        with pytest.raises(DiscrepancyError) as exc:
            sptmod.relation_sum(2, 5)
        assert str(exc.value) == f"relation mismatch at (j=2, n=5): {value}, {value + 1}, {value}"


class TestBivariateFailureRow:
    """A bivariate row that fails is printed in every format as the text of its two sides:
    here the right side of kn1 (j = 2) at n = 3 has its z^0 term lowered by 1."""

    LHS = "1z^-2-7z^-1+12z^0-7z^1+1z^2"
    RHS = "1z^-2-7z^-1+11z^0-7z^1+1z^2"

    @pytest.fixture(autouse=True)
    def lowered(self, monkeypatch):
        build = laurent.build_kn1_sides

        def lowered_at_3(j, order):
            lhs, rhs = build(j, order)
            rows = [list(row) for row in rhs.rows]
            rows[3][0] -= 1
            return lhs, SymRows(rows)

        # identities reads the builder off laurent at each call
        monkeypatch.setattr(laurent, "build_kn1_sides", lowered_at_3)

    def test_plain(self, runner):
        result = runner.invoke(main, ["verify", "kn1"])
        assert result.exit_code == 1
        assert result.stdout == f"FAIL kn1 at n=3: lhs={self.LHS} rhs={self.RHS}\n"

    def test_csv(self, runner):
        result = runner.invoke(main, ["verify", "kn1", "--format", "csv"])
        assert result.exit_code == 1
        lines = result.stdout.splitlines()
        assert lines[0] == "n,lhs,rhs,ok" and len(lines) == 32
        assert lines[4] == f"n=3,{self.LHS},{self.RHS},False"
        assert [line.endswith(",True") for line in lines[1:]] == [n != 3 for n in range(31)]

    def test_json(self, runner):
        result = runner.invoke(main, ["verify", "kn1", "--format", "json"])
        assert result.exit_code == 1
        rows = json.loads(result.stdout)
        assert rows[3] == {"n": "n=3", "lhs": self.LHS, "rhs": self.RHS, "ok": False}
        assert [row["ok"] for row in rows] == [n != 3 for n in range(31)]


def _row_dicts(header, rows):
    return [dict(zip(header, row)) for row in rows]


def _verify_dicts(identity, order=None, text=False):
    _, rows, _ = identities.verify(identity, order=order)
    if text:  # the bivariate sides, as the text of each row
        rows = [(label, str(lhs), str(rhs), ok) for label, lhs, rhs, ok in rows]
    return _row_dicts(("n", "lhs", "rhs", "ok"), rows)


class TestJsonBytes:
    """--format json is written one row at a time, and its bytes are those of one
    json.dumps of the row dicts, "[]" for no rows; a bivariate row is written as text."""

    @pytest.mark.parametrize("args, want", [
        (["verify", "kn1"], lambda: _verify_dicts("kn1", text=True)),
        (["verify", "Rk-forms", "--n-max", "12"], lambda: _verify_dicts("Rk-forms", 12, True)),
        (["verify", "relos"], lambda: _verify_dicts("relos")),
        (["verify", "fdyson", "--n-max", "1"], lambda: []),
        (["compute", "--family", "Spt_j", "--j", "2", "--n-max", "12"],
         lambda: _row_dicts(("n", "value"),
                            [(n, sptmod.spt_j(2, n, "moments")) for n in range(1, 13)])),
        (["table", "--kind", "count", "--j", "2", "--index", "1", "--n-max", "12"],
         lambda: _row_dicts(("n", "value"), [(n, stats.count_njm(2, 1, n)) for n in range(13)])),
    ])
    def test_bytes_of_one_dumps(self, runner, args, want):
        result = runner.invoke(main, [*args, "--format", "json"])
        assert result.exit_code == 0
        assert result.stdout == json.dumps(want()) + "\n"


class TestNoPartitionObjects:
    """The lemma verifiers and the enumerating weight routes read the walk's
    working list: none of them builds a Partition."""

    @pytest.mark.parametrize("args", [
        ["verify", "lemma31", "--n-max", "12"],
        ["verify", "lemma32", "--n-max", "12"],
        ["compute", "--route", "weight", "--family", "Spt_j", "--j", "2", "--n-max", "12"],
        ["compute", "--route", "weight", "--family", "jspt_k", "--j", "2", "--k", "2",
         "--n-max", "12"],
    ])
    def test_runs_without_building_a_partition(self, runner, monkeypatch, args):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a Partition was built")

        monkeypatch.setattr(Partition, "__init__", refuse)
        with pytest.raises(AssertionError, match="a Partition was built"):
            Partition((1,))
        patched = runner.invoke(main, args)
        monkeypatch.undo()
        assert patched.exit_code == 0, patched.output
        assert patched.output == runner.invoke(main, args).output


class TestTable:
    def test_moment_table(self, runner):
        result = runner.invoke(main, ["table", "--kind", "moment", "--j", "2",
                                      "--index", "2", "--n-max", "4",
                                      "--format", "csv"])
        assert result.output.splitlines() == ["n,value", "0,0", "1,0", "2,2",
                                              "3,8", "4,20"]

    def test_count_table(self, runner):
        result = runner.invoke(main, ["table", "--kind", "count", "--j", "2",
                                      "--index", "0", "--n-max", "3"])
        assert result.exit_code == 0

    def test_count_values(self, runner):
        result = runner.invoke(main, ["table", "--kind", "count", "--j", "2",
                                      "--index", "0", "--n-max", "6"])
        assert result.output.splitlines() == [f"{n} {stats.count_njm(2, 0, n)}"
                                              for n in range(7)]

    def test_symmetrized_values(self, runner):
        result = runner.invoke(main, ["table", "--kind", "symmetrized", "--j", "1",
                                      "--index", "2", "--n-max", "5"])
        assert result.exit_code == 0
        assert result.output.splitlines()[:2] == ["0 0", "1 1"]

    def test_large_moment_index_is_fast(self):
        # index 800 is k = 400: the row recurrence takes k * min(k, n) steps, where
        # solving the change of basis took on the order of k**3
        src = str(Path(qspt.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qspt.cli", "table", "--kind", "moment", "--j", "2",
             "--index", "800", "--n-max", "3"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0 and proc.stderr == ""
        direct = [sum(m ** 800 * stats.count_njm(2, m, n) for m in range(-n, n + 1))
                  for n in range(4)]
        assert proc.stdout.splitlines() == [f"{n} {v}" for n, v in enumerate(direct)]

    def test_values_past_the_int_to_str_cap(self, runner):
        # moment(2, 2000, 200) has 4,600 digits, past CPython's default cap of
        # 4300 for int-to-str, which the CLI lifts when it starts
        old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if old is not None:
            sys.set_int_max_str_digits(4300)
        try:
            result = runner.invoke(main, ["table", "--kind", "moment", "--j", "2",
                                          "--index", "2000", "--n-max", "200"])
            assert result.exit_code == 0
            assert result.output.splitlines()[-1] == f"200 {stats.moment(2, 2000, 200)}"
        finally:
            if old is not None:
                sys.set_int_max_str_digits(old)

    def test_invalid_j_exit_2(self, runner):
        result = runner.invoke(main, ["table", "--kind", "count", "--j", "0",
                                      "--index", "0", "--n-max", "3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("index", ["0", "-1"])
    def test_symmetrized_index_below_one_exit_2(self, runner, index):
        result = runner.invoke(main, ["table", "--kind", "symmetrized", "--j", "2",
                                      "--index", index, "--n-max", "3"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output


class TestMomentOrderBound:
    """The moment order, t of a moment table and 2k of relos and genineq, stops at
    stats.MOMENT_ORDER_MAX: the cost grows about as its square."""

    BOUND = stats.MOMENT_ORDER_MAX

    @staticmethod
    def argv(command, order):
        if command == "table":
            return ["table", "--kind", "moment", "--j", "2", "--index", str(order)]
        return ["verify", command, "--k", str(order // 2)]

    @pytest.mark.parametrize("command", ["table", "relos", "genineq"])
    @pytest.mark.parametrize("past", [0, 1], ids=["bound", "past"])
    def test_bound_exits_0_and_one_past_it_exits_2(self, runner, command, past):
        # one order past it is t + 1 for the table and k + 1 (2k + 2) for the
        # verifiers; every moment of n = 1 is 0 or 1, so the bound runs quickly
        # there (tests/test_cli_usage.py pins the error bytes)
        order = self.BOUND + past * (1 if command == "table" else 2)
        result = runner.invoke(main, self.argv(command, order) + ["--n-max", "1"])
        assert result.exit_code == 2 * past, result.output
        if past:
            assert result.stdout == "" and f"must be <= {self.BOUND}" in result.stderr


class TestCongruence:
    def test_passes(self, runner):
        result = runner.invoke(main, ["congruence", "--n-max", "28"])
        assert result.exit_code == 0
        assert result.output.startswith("PASS")

    def test_csv(self, runner):
        result = runner.invoke(main, ["congruence", "--n-max", "12",
                                      "--format", "csv"])
        lines = result.output.splitlines()
        assert lines[0] == "n,lhs,rhs,ok"
        assert "p(4)%5,0,0,True" in lines

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_exit_2(self, runner, n_max):
        result = runner.invoke(main, ["congruence", "--n-max", n_max])
        assert result.exit_code == 2
        assert "PASS" not in result.output


class TestInternalErrors:
    """Exit 3 and one error line on stderr for anything but a discrepancy, a
    usage error or an interrupt; exit 1 stays reserved for a discrepancy."""

    def test_closed_stdout_exits_3(self):
        # p(n) for n <= 5000 is far more than a pipe buffer, so the writer is
        # still writing when the reader closes its end
        src = str(Path(qspt.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "qspt.cli", "compute", "--family", "p", "--n-max", "5000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        try:
            assert proc.stdout.readline() == b"1 1\n"
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 3
        finally:
            proc.kill()
        assert stderr.splitlines() == ["error: BrokenPipeError: [Errno 32] Broken pipe"]

    def test_interrupt_exits_130(self, runner, monkeypatch):
        # Ctrl-C is not a discrepancy: 128 + SIGINT, as a shell reports it
        def interrupted(**kwargs):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "verify", (interrupted, *cli._COMMANDS["verify"][1:]))
        result = runner.invoke(main, ["verify", "Rk-forms", "--n-max", "5"])
        assert result.exit_code == 130
        assert result.stdout == ""
        assert result.stderr == "\nAborted!\n"

    def test_unexpected_exception_exits_3(self, runner, monkeypatch):
        def broken_route(n):
            raise RuntimeError("route failed")

        monkeypatch.setitem(sptmod.FAMILIES["p"].routes, "recurrence", broken_route)
        result = runner.invoke(main, ["compute", "--family", "p", "--n-max", "3"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: RuntimeError: route failed\n"


# ---------------------------------------------------------------------------
# the documented range as one property

# j, k and r: small values, the extremes CI runs, and now and then an invalid
# one (exit 2)
_PARAM = st.one_of(st.integers(1, 6), st.sampled_from([100000, 10**12]), st.integers(-1, 6))
# the moment index 2k of relos and genineq stays small: the 2k-th moments of n
# have about 2k * log10(n) digits, so k = 10**12 cannot be printed
_MOMENT_K = st.one_of(st.integers(1, 6), st.just(30), st.integers(-1, 6))
_N_MAX = st.integers(-1, 12)
_TABLE_INDEX = {
    "count": st.integers(-13, 13) | st.just(10**12),
    "moment": st.integers(-1, 60),
    "symmetrized": st.integers(-1, 12) | st.just(10**12),
}


def _opt(name, value):
    return [] if value is None else [f"--{name}", str(value)]


@st.composite
def _requests(draw):
    """One command line of compute, verify, table or congruence, in any format."""
    command = draw(st.sampled_from(["compute", "verify", "table", "congruence"]))
    argv = [command, "--format", draw(st.sampled_from(["plain", "csv", "json"]))]
    if command == "compute":
        family = draw(st.sampled_from(list(sptmod.FAMILIES)))
        argv += ["--family", family, *_opt("n-max", draw(_N_MAX)),
                 *_opt("route", draw(st.sampled_from([None, *sptmod.ROUTES])))]
        for name in ("j", "k"):
            # the family's own parameters, and now and then one it does not take
            own = name in sptmod.FAMILIES[family].params
            argv += _opt(name, draw(_PARAM if own else st.sampled_from([None, None, 2])))
    elif command == "verify":
        identity = draw(st.sampled_from([*identities.IDENTITIES, "nonsense"]))
        k = _MOMENT_K if identity in ("relos", "genineq") else _PARAM
        argv.insert(1, identity)
        for name, values in (("j", _PARAM), ("k", k), ("r", _PARAM), ("n-max", _N_MAX)):
            argv += _opt(name, draw(st.none() | values))
    elif command == "table":
        kind = draw(st.sampled_from(list(_TABLE_INDEX)))
        argv += ["--kind", kind, *_opt("j", draw(_PARAM)),
                 *_opt("index", draw(_TABLE_INDEX[kind])), *_opt("n-max", draw(_N_MAX))]
    else:
        argv += _opt("n-max", draw(st.none() | _N_MAX))
    return argv


class TestDocumentedRange:
    """No request inside the documented range crashes: it exits 0, or 2 for a
    usage error with nothing on stdout; exit 1 would be a discrepancy."""

    @given(argv=_requests())
    @settings(max_examples=500, deadline=None)  # a fixed budget of a few seconds
    def test_exit_0_or_2(self, argv):
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.json")
            cache = ["--cache", path] if argv[0] == "compute" else []
            result = runner.invoke(main, argv + cache)
            assert result.exit_code in (0, 2), (argv, result.output, result.exception)
            assert "Traceback" not in result.output
            if result.exit_code == 2:
                assert result.stdout == ""
            if cache:
                # a computed request is stored, and its cache hit prints the same bytes
                assert os.path.exists(path) == (result.exit_code == 0)
                hit = runner.invoke(main, argv + cache)
                assert (hit.exit_code, hit.stdout) == (result.exit_code, result.stdout)
