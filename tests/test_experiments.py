import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hctvem
from hctvem import experiments, solvers
from hctvem.classic_vem import solve_classic_vem, solve_enriched_vem
from hctvem.cli import main
from hctvem.dofmap import DofMap
from hctvem.experiments import (CSV_HEADER, ConfigError, ErrorReport,
                                ExperimentConfig, config_from_mapping,
                                convergence_order, parse_config_file,
                                parse_degree_list, parse_level_range,
                                run_experiment)
from hctvem.mesh import FAMILIES, MAX_LEVEL, generate_mesh
from hctvem.problems import get_solution

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WORKLOADS  # noqa: E402


class TestParsing:
    def test_level_range(self):
        assert parse_level_range("2..5") == (2, 5)
        assert parse_level_range("3") == (3, 3)
        with pytest.raises(ConfigError):
            parse_level_range("a..b")

    def test_degree_list(self):
        assert parse_degree_list("3,4,5") == (3, 4, 5)
        assert parse_degree_list("") == ()
        with pytest.raises(ConfigError):
            parse_degree_list("3,x")

    def test_config_file(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("# comment\nmethod=classic\nk=3\nlevels=1..2\n"
                     "alpha=-1\nkappa=yes\n\n")
        cfg = config_from_mapping(parse_config_file(p))
        assert cfg.method == "classic"
        assert cfg.k == 3
        assert cfg.levels == (1, 2)
        assert cfg.alpha == -1.0
        assert cfg.kappa is True

    def test_config_file_rejects_a_repeated_key(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("k=2\nmesh=uniform\n\n# a later edit\n k = 3\n")
        with pytest.raises(ConfigError,
                           match=r"cfg\.txt:5: k already set on line 1$"):
            parse_config_file(p)

    def test_config_file_rejects_bad_lines(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("method classic\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    @pytest.mark.parametrize("raw,want", [
        ("1", True), ("TRUE", True), ("yes", True), (" On ", True),
        (True, True), ("0", False), ("False", False), ("NO", False),
        ("off", False), (False, False)])
    def test_kappa_values(self, raw, want):
        assert config_from_mapping({"kappa": raw}).kappa is want

    @pytest.mark.parametrize("raw", ["ture", "", "2", "y"])
    def test_kappa_typo_rejected(self, raw):
        with pytest.raises(ConfigError):
            config_from_mapping({"kappa": raw})

    @pytest.mark.parametrize("key,raw", [
        ("k", "2.0"), ("k", "x"), ("tol", "abc"), ("alpha", "-1,5"),
        ("levels", "2.."), ("harmonic_degrees", "3;4"), ("kappa", "ture")])
    def test_malformed_value_names_its_key(self, key, raw):
        # int() and float() failed with a message that named no setting
        with pytest.raises(ConfigError, match=f"^bad {key} value"):
            config_from_mapping({key: raw})

    def test_malformed_config_file_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("k=2.0\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: bad k value '2.0'")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"metod": "sf-hct"})

    @pytest.mark.parametrize("key", ["validate", "__init__", "__class__"])
    def test_method_names_are_not_keys(self, key):
        # an attribute of the config that is not a field must not be
        # replaced by the string from the file
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({key: "1"})


class TestValidation:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize("method,extra", [
        ("sf-hct", {}), ("classic", {}),
        ("enriched", {"k": 2, "harmonic_degrees": (3,)})])
    def test_vem_load_rule_valid_for_every_method(self, method, extra):
        ExperimentConfig(method=method, load_rule="vem", **extra).validate()

    @pytest.mark.parametrize("patch", [
        {"method": "fem"},
        {"mesh": "hex"},
        {"k": 0},
        {"k": 7},
        {"method": "classic", "k": 5},
        {"levels": (3, 2)},
        {"levels": (0, 2)},
        {"dof_mode": "scaled"},
        {"method": "enriched"},                          # no degrees
        {"method": "enriched", "k": 2,
         "harmonic_degrees": (2,)},                      # degree <= k
        {"tol": 0.0},
        {"method": "enriched", "k": 1,
         "harmonic_degrees": (16,)},                     # rule too high
        {"load_rule": "foo"},
        {"solver": "foo"},
        {"solution": "foo"},
        {"harmonic_degrees": (3,)},                      # enriched only
        {"method": "classic", "harmonic_degrees": (5,)},
        {"alpha": -1.0},                                 # classic only
        {"method": "enriched", "k": 2, "harmonic_degrees": (3,),
         "alpha": -1.0},
        {"dof_mode": "l2_normalized"},                   # classic only
        {"method": "enriched", "k": 2, "harmonic_degrees": (3,),
         "dof_mode": "l2_normalized_x10"},
        {"tol": float("inf")},                           # CG stops at once
        {"tol": float("nan")},
        {"method": "classic", "alpha": float("nan")},
        {"method": "classic", "alpha": float("inf")},
        {"levels": (1, MAX_LEVEL + 1)},                  # above the cap
        {"k": 3.0},                                      # not an integer
        {"k": 2.5},
        {"k": True},
        {"levels": (1.0, 2)},
        {"levels": (1, True)},
        {"method": "enriched", "k": 2, "harmonic_degrees": (3.5,)},
        {"method": "enriched", "k": 2, "harmonic_degrees": ("3",)},
    ])
    def test_invalid_configs_rejected(self, patch):
        cfg = ExperimentConfig()
        for key, val in patch.items():
            setattr(cfg, key, val)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("patch,key", [
        ({"tol": "1e-12"}, "tol"),                       # np.isfinite raised
        ({"tol": None}, "tol"),
        ({"tol": True}, "tol"),
        ({"method": "classic", "alpha": None}, "alpha"),
        ({"method": "classic", "alpha": "-1"}, "alpha"),
        ({"kappa": "false"}, "kappa"),                   # ran with kappa on
        ({"kappa": 1}, "kappa"),
        ({"out": 3}, "out"),                             # os.path raised
        ({"dump_matrix": 3}, "dump_matrix"),
        ({"method": 3}, "method"),
    ])
    def test_bad_types_rejected(self, patch, key):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            ExperimentConfig(**patch).validate()

    def test_numpy_scalars_and_paths_accepted(self, tmp_path):
        ExperimentConfig(method="classic", k=np.int64(2),
                         tol=np.float64(1e-9), alpha=np.float32(-1),
                         kappa=np.bool_(True), levels=[1, np.int32(2)],
                         out=tmp_path / "o.csv").validate()

    @pytest.mark.parametrize("patch", [
        {"levels": (3,)},
        {"levels": 5},
        {"levels": (1, 2, 3)},
        {"method": "enriched", "k": 2, "harmonic_degrees": 3},
    ])
    def test_malformed_sequences_rejected(self, patch):
        # unpacking these raised a bare ValueError or TypeError
        cfg = ExperimentConfig(**patch)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("method,k,degrees", [
        ("classic", 5, ()),
        ("enriched", 2, ()),
        ("enriched", 2, (2,)),
        ("enriched", 3, (5, 1)),
        ("enriched", 2, (16,)),                         # quadrature
    ])
    def test_library_and_validate_give_the_same_message(self, method, k,
                                                        degrees):
        mesh, prob = generate_mesh("uniform", 1), get_solution("sinsin")
        with pytest.raises(ValueError) as library:
            if method == "classic":
                solve_classic_vem(mesh, k, prob)
            else:
                solve_enriched_vem(mesh, k, prob, degrees)
        with pytest.raises(ConfigError) as config:
            ExperimentConfig(method=method, k=k,
                             harmonic_degrees=degrees).validate()
        assert type(library.value) is ValueError
        assert str(config.value) == str(library.value)


class TestOrders:
    def test_halving_doubles(self):
        assert convergence_order(4e-2, 1e-2) == pytest.approx(2.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            convergence_order(0.0, 1e-3)


class TestRunExperiment:
    def run(self, **kw):
        kw.setdefault("levels", (1, 2))
        return run_experiment(ExperimentConfig(**kw))

    def test_rows_and_csv_schema(self):
        rep = self.run()
        lines = rep.csv_lines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[3] == "0.00"      # no order on the first level
        assert first[6] == ""          # kappa disabled
        assert first[7] == ""          # no wall time: CSV is reproducible

    def test_no_order_after_level_without_free_dofs(self):
        # uniform level 1 has 0 free DOFs and a round-off error (~4e-33);
        # a log-ratio against it would print an order near -105
        rep = self.run()
        assert rep.rows[0].dofs == 0
        second = rep.csv_lines()[2].split(",")
        assert second[3] == "0.00"
        assert second[5] == "0.00"
        assert rep.orders() == [(0.0, 0.0)]

    def test_deterministic_csv(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(ExperimentConfig(levels=(1, 2), out=str(out1)))
        run_experiment(ExperimentConfig(levels=(1, 2), out=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()

    def test_kappa_column_filled_when_enabled(self):
        rep = self.run(kappa=True, k=2)
        assert all(r.kappa is not None and r.kappa > 1 for r in rep.rows)
        assert rep.csv_lines()[1].split(",")[6] != ""

    @pytest.mark.parametrize("method", ["sf-hct", "classic"])
    def test_kappa_empty_on_level_without_free_dofs(self, method):
        rep = self.run(method=method, kappa=True)
        assert rep.rows[0].dofs == 0 and rep.rows[0].kappa is None
        assert rep.rows[1].kappa == 1.0
        assert rep.csv_lines()[1].split(",")[6] == ""

    @pytest.mark.parametrize("solver", ["direct", "cg"])
    def test_factorizations_per_level_with_kappa(self, solver, monkeypatch):
        # the benchmark traces spla.splu and expects it on direct solves
        # only (FIRES_ON in bench/test_bench.py): on the direct path kappa
        # reuses the solve's SuperLU factor, on the CG path it factors
        # with spla.factorized, whose own SuperLU call is not traced.
        # Every factor is of the skeleton system, the free vertex and edge
        # DOFs: kappa's A^-1 condenses onto it as the solve does
        sizes = {"splu": [], "factorized": []}
        for name, seen in sizes.items():
            def spy(A, *args, _original=getattr(solvers.spla, name),
                    _seen=seen, **kwargs):
                _seen.append(A.shape[0])
                return _original(A, *args, **kwargs)
            monkeypatch.setattr(solvers.spla, name, spy)
        rep = self.run(k=2, mesh="irregular8", levels=(2, 3), solver=solver,
                       kappa=True)
        dofs = [r.dofs for r in rep.rows]
        skeleton = []
        for level in (2, 3):
            dm = DofMap(generate_mesh("irregular8", level), 2)
            assert dm.n_free == dofs[level - 2]
            skeleton.append(dm.n_skeleton)
        assert all(s < n for s, n in zip(skeleton, dofs))
        if solver == "direct":
            assert sizes == {"splu": skeleton, "factorized": []}
        else:
            assert sizes["splu"] == []
            # per level: the preconditioner's coarse matrix, then kappa's
            coarse, skel = sizes["factorized"][::2], sizes["factorized"][1::2]
            assert skel == skeleton
            assert all(nc < n for nc, n in zip(coarse, skeleton))

    def test_cg_errors_match_direct_within_benchmark_gate(self):
        # the benchmark's correctness gate, 1e-6 rel + 1e-12 abs, on the
        # sf6-cg-kappa study without kappa: a preconditioner that leads CG
        # to another solution fails here
        cfg = dict(k=6, mesh="irregular8", levels=(1, 3))
        cg = self.run(solver="cg", **cfg).rows
        direct = self.run(solver="direct", **cfg).rows
        for a, b in zip(cg, direct):
            for x, ref in ((a.l2, b.l2), (a.h1, b.h1)):
                assert abs(x - ref) <= 1e-6 * abs(ref) + 1e-12

    def test_orders_match_error_ratio(self):
        rep = self.run(k=2, levels=(2, 4))
        for (l2o, h1o), a, b in zip(rep.orders(), rep.rows, rep.rows[1:]):
            assert l2o == pytest.approx(np.log2(a.l2 / b.l2))
            assert h1o == pytest.approx(np.log2(a.h1 / b.h1))

    @pytest.mark.parametrize("key", ["out", "dump_matrix"])
    def test_missing_output_directory_rejected_before_any_level(
            self, key, tmp_path, monkeypatch):
        def no_level(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(experiments, "generate_mesh", no_level)
        cfg = ExperimentConfig(**{key: str(tmp_path / "missing" / "x")})
        with pytest.raises(ConfigError, match="no such directory"):
            run_experiment(cfg)

    @pytest.mark.parametrize("key", ["out", "dump_matrix"])
    @pytest.mark.parametrize("suffix", ["", os.sep])
    def test_directory_output_rejected_before_any_level(
            self, key, suffix, tmp_path, monkeypatch):
        # out could not be opened, and the prefix DIR/ would name the
        # hidden files DIR/.levelN.mtx
        def no_level(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(experiments, "generate_mesh", no_level)
        cfg = ExperimentConfig(**{key: str(tmp_path) + suffix})
        with pytest.raises(ConfigError, match="names a directory"):
            run_experiment(cfg)

    def test_dump_matrix_writes_per_level(self, tmp_path):
        cfg = ExperimentConfig(levels=(1, 2),
                               dump_matrix=str(tmp_path / "A"))
        run_experiment(cfg)
        assert (tmp_path / "A.level1.mtx").exists()
        assert (tmp_path / "A.level2.mtx").exists()

    def test_enriched_method_runs(self):
        rep = self.run(method="enriched", k=2, harmonic_degrees=(3,),
                       levels=(1, 2))
        assert len(rep.rows) == 2


# The default study (sf-hct, k = 1, uniform levels 1..4) as the CSV has
# always read; a change that keeps the behaviour keeps these bytes.
DEFAULT_CSV = b"""\
level,dofs,l2,l2_order,h1,h1_order,kappa,seconds
1,0,4.329434e-33,0.00,1.499760e-32,0.00,,
2,1,1.354639e-01,0.00,7.662994e-01,0.00,,
3,9,6.210331e-02,1.13,3.021311e-01,1.34,,
4,49,1.833156e-02,1.76,8.498993e-02,1.83,,
"""

# Studies on each kappa path and on both baselines, as the CSV has read
# since they were pinned (the same bytes under 1 and 2 BLAS threads).
GOLDEN_CSVS = {
    # kappa on this thread, after the direct solve (sf-hct is decoupled)
    "sf-hct-k3-kappa": (
        ["--method", "sf-hct", "--k", "3", "--mesh", "irregular8",
         "--levels", "2..4", "--kappa"], b"""\
level,dofs,l2,l2_order,h1,h1_order,kappa,seconds
2,185,3.816690e-04,0.00,1.139060e-02,0.00,7.7079e+01,
3,785,2.585416e-05,3.88,1.513968e-03,2.91,3.0224e+02,
4,3233,1.650742e-06,3.97,1.935498e-04,2.97,1.2041e+03,
"""),
    # kappa after CG, which builds no factor
    "sf-hct-k6-cg-kappa": (
        ["--method", "sf-hct", "--k", "6", "--mesh", "irregular8",
         "--levels", "1..2", "--solver", "cg", "--kappa"], b"""\
level,dofs,l2,l2_order,h1,h1_order,kappa,seconds
1,161,2.593398e-05,0.00,1.143300e-03,0.00,1.1298e+05,
2,689,1.686736e-07,7.26,1.572391e-05,6.18,1.1828e+05,
"""),
    # lambda_max on the second thread (the classic condensation couples)
    "classic-k3-kappa": (
        ["--method", "classic", "--k", "3", "--dof-mode", "l2x10",
         "--alpha", "-1", "--mesh", "irregular8", "--levels", "2..4",
         "--kappa"], b"""\
level,dofs,l2,l2_order,h1,h1_order,kappa,seconds
2,185,3.279434e-04,0.00,1.223850e-02,0.00,2.7147e+03,
3,785,2.302210e-05,3.83,1.657992e-03,2.88,3.9541e+04,
4,3233,1.511260e-06,3.93,2.150792e-04,2.95,9.0273e+05,
"""),
    "enriched-k2": (
        ["--method", "enriched", "--k", "2", "--harmonic-degrees", "3",
         "--mesh", "irregular8", "--levels", "3..4"], b"""\
level,dofs,l2,l2_order,h1,h1_order,kappa,seconds
3,353,3.480804e-04,0.00,1.809192e-02,0.00,,
4,1473,4.020269e-05,3.11,4.503190e-03,2.01,,
"""),
}


class TestCli:
    def test_default_run_writes_golden_csv(self, tmp_path):
        out = tmp_path / "default.csv"
        assert main(["run", "--out", str(out)]) == 0
        assert out.read_bytes() == DEFAULT_CSV

    @pytest.mark.parametrize("name", GOLDEN_CSVS)
    def test_pinned_study_writes_golden_csv(self, tmp_path, name):
        args, want = GOLDEN_CSVS[name]
        out = tmp_path / f"{name}.csv"
        assert main(["run", *args, "--out", str(out)]) == 0
        assert out.read_bytes() == want

    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["run", "--method", "sf-hct", "--k", "1",
                   "--mesh", "uniform", "--levels", "1..2",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_run_prints_csv_without_out(self, capsys):
        rc = main(["run", "--method", "sf-hct", "--k", "1",
                   "--mesh", "uniform", "--levels", "1..1"])
        assert rc == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("method=sf-hct\nk=2\nmesh=uniform\nlevels=1..1\n")
        out = tmp_path / "o.csv"
        rc = main(["run", "--config", str(cfg), "--k", "1",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_dof_mode_aliases(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(["run", "--method", "classic", "--k", "2",
                   "--mesh", "uniform", "--levels", "1..1",
                   "--dof-mode", "l2x10", "--out", str(out)])
        assert rc == 0

    SPELLINGS = [("standard", "standard"),
                 ("l2", "l2_normalized"), ("l2_normalized", "l2_normalized"),
                 ("l2x10", "l2_normalized_x10"),
                 ("l2_normalized_x10", "l2_normalized_x10")]

    @pytest.mark.parametrize("spelling,mode", SPELLINGS)
    def test_dof_mode_spellings_agree_in_both_inputs(self, spelling, mode,
                                                     tmp_path, monkeypatch):
        seen = []

        def record(cfg):
            seen.append(cfg)
            return ErrorReport(cfg)

        monkeypatch.setattr("hctvem.cli.run_experiment", record)
        path = tmp_path / "cfg.txt"
        path.write_text(f"method=classic\ndof_mode={spelling}\n")
        assert main(["run", "--config", str(path)]) == 0
        assert main(["run", "--method", "classic",
                     "--dof-mode", spelling]) == 0
        assert config_from_mapping({"method": "classic",
                                    "dof_mode": spelling}).dof_mode == mode
        assert seen == [ExperimentConfig(method="classic", dof_mode=mode)] * 2

    def test_method_name_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("validate=1\nlevels=1..1\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "unknown config key 'validate'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--dump-matrix"])
    def test_missing_output_directory_exits_2(self, flag, tmp_path, capsys):
        missing = tmp_path / "missing" / "x"
        assert main(["run", "--levels", "1..2", flag, str(missing)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "missing").exists()

    def test_unwritable_out_exits_2(self, tmp_path, capsys, monkeypatch):
        # a directory fails validate, before any level runs
        def no_level(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(experiments, "generate_mesh", no_level)
        assert main(["run", "--levels", "1..1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_dump_matrix_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        assert main(["run", "--levels", "1..1", "--dump-matrix",
                     str(tmp_path / "out") + os.sep]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list((tmp_path / "out").iterdir()) == []

    def test_dense_solver_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--levels", "1..1", "--solver", "dense"])
        assert info.value.code == 2
        assert "invalid choice: 'dense'" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_mesh_subcommand(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        rc = main(["mesh", "--family", "irregular8", "--level", "1",
                   "--mesh-out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("vertices 9 triangles 8")

    def test_invalid_config_exits_2(self):
        rc = main(["run", "--method", "enriched", "--k", "2",
                   "--mesh", "uniform", "--levels", "1..1"])
        assert rc == 2

    def test_unknown_load_rule_in_config_file_exits_2(self, tmp_path,
                                                       capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("load_rule=foo\nlevels=1..1\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_python_m_hctvem(self):
        src = str(Path(hctvem.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "hctvem", "--help"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: hctvem")

    def test_verify_subcommand_passes(self, capsys):
        assert main(["verify"]) == 0
        assert "all checks passed" in capsys.readouterr().out


# one valid text per setting, other than its default; flags and config
# keys must read each to the same config
SAMPLE_TEXTS = {
    "method": ["classic"], "k": ["2"], "mesh": ["irregular8"],
    "levels": ["2..3", "5"], "solution": ["bubble4"], "alpha": ["-1.5"],
    "dof_mode": ["l2", "l2x10", "l2_normalized"],
    "harmonic_degrees": ["3,4"], "kappa": ["1"], "solver": ["cg"],
    "tol": ["1e-9"], "load_rule": ["vem"], "out": ["o.csv"],
    "dump_matrix": ["A"],
}

# the settings only some methods take, with a non-default value each
OWNED = {"alpha": (-1.0, "classic"),
         "dof_mode": ("l2_normalized", "classic"),
         "harmonic_degrees": ((3,), "enriched")}


class TestSettingsTable:
    """Each ExperimentConfig field is a run setting: a `run` flag, a config
    key and, for a method's own settings, a keyword of its solve only."""

    def recorded(self, monkeypatch):
        seen = []

        def record(cfg):
            seen.append(cfg)
            return ErrorReport(cfg)

        monkeypatch.setattr("hctvem.cli.run_experiment", record)
        return seen

    def test_every_field_has_a_sample(self):
        assert set(SAMPLE_TEXTS) == {
            f.name for f in dataclasses.fields(ExperimentConfig)}

    @pytest.mark.parametrize("key,text", [
        (key, text) for key, texts in SAMPLE_TEXTS.items() for text in texts])
    def test_flag_and_config_key_agree(self, key, text, tmp_path,
                                       monkeypatch):
        seen = self.recorded(monkeypatch)
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key}={text}\n")
        flag = ["--" + key.replace("_", "-")]
        assert main(["run", "--config", str(path)]) == 0
        assert main(["run", *flag] + ([] if key == "kappa" else [text])) == 0
        from_file, from_flag = seen
        assert from_file == from_flag == config_from_mapping({key: text})
        assert from_file != ExperimentConfig()

    @pytest.mark.parametrize("method,extra", [
        ("sf-hct", {}),
        ("classic", {"alpha": -1.0, "dof_mode": "l2_normalized"}),
        ("enriched", {"harmonic_degrees": (3,)})])
    def test_owned_settings_reach_only_their_solve(self, method, extra,
                                                   monkeypatch):
        calls = {}
        for name in ("solve_sf_vem", "solve_classic_vem",
                     "solve_enriched_vem"):
            def spy(*args, _name=name, _original=getattr(experiments, name),
                    **kwargs):
                calls.setdefault(_name, []).append(kwargs)
                return _original(*args, **kwargs)
            monkeypatch.setattr(experiments, name, spy)
        run_experiment(ExperimentConfig(method=method, k=2, levels=(2, 2),
                                        **extra))
        solve = {"sf-hct": "solve_sf_vem", "classic": "solve_classic_vem",
                 "enriched": "solve_enriched_vem"}[method]
        [kwargs] = calls.pop(solve)
        assert calls == {}
        owned = {key for key, (_, owner) in OWNED.items() if owner == method}
        assert owned <= set(kwargs)
        assert not (set(OWNED) - owned) & set(kwargs)
        for key in owned:
            assert kwargs[key] == extra[key]

    @pytest.mark.parametrize("key", sorted(OWNED))
    @pytest.mark.parametrize("method", experiments.METHODS)
    def test_owned_setting_off_default_under_another_method(self, key,
                                                            method):
        value, owner = OWNED[key]
        needed = {"harmonic_degrees": (3,)} if method == "enriched" else {}
        cfg = ExperimentConfig(method=method, k=2, **{**needed, key: value})
        if method == owner:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match=f"{key} is for the"):
                cfg.validate()

    def test_only_the_owned_settings_are_owned(self):
        # every setting but these is read by every method or by the study
        for f in dataclasses.fields(ExperimentConfig):
            methods = f.metadata["methods"]
            if f.name in OWNED:
                assert methods == (OWNED[f.name][1],)
            else:
                assert methods in ((), experiments.METHODS), f.name

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_every_mesh_family_is_a_choice_of_both_commands(
            self, name, tmp_path, monkeypatch):
        seen = self.recorded(monkeypatch)
        assert main(["run", "--mesh", name]) == 0
        assert seen[0].mesh == name
        ExperimentConfig(mesh=name).validate()
        out = tmp_path / "m.txt"
        assert main(["mesh", "--family", name, "--level", "1",
                     "--mesh-out", str(out)]) == 0
        assert generate_mesh(name, 2).num_triangles == \
            FAMILIES[name](2).num_triangles


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_studies_validate(workload):
    # the benchmark worker builds each study this way and counts one that
    # raises as failed operations
    for study in WORKLOADS[workload]:
        ExperimentConfig(**study).validate()
