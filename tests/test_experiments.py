import numpy as np
import pytest

from hctvem.cli import main
from hctvem.experiments import (CSV_HEADER, ConfigError, ExperimentConfig,
                                config_from_mapping, convergence_order,
                                parse_config_file, parse_degree_list,
                                parse_level_range, run_experiment)


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

    def test_config_file_rejects_bad_lines(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("method classic\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"metod": "sf-hct"})


class TestValidation:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

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
        {"method": "classic", "load_rule": "vem"},       # sf-hct only
        {"method": "enriched", "k": 1,
         "harmonic_degrees": (16,)},                     # rule too high
    ])
    def test_invalid_configs_rejected(self, patch):
        cfg = ExperimentConfig()
        for key, val in patch.items():
            setattr(cfg, key, val)
        with pytest.raises(ConfigError):
            cfg.validate()


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

    def test_orders_match_error_ratio(self):
        rep = self.run(k=2, levels=(2, 4))
        for (l2o, h1o), a, b in zip(rep.orders(), rep.rows, rep.rows[1:]):
            assert l2o == pytest.approx(np.log2(a.l2 / b.l2))
            assert h1o == pytest.approx(np.log2(a.h1 / b.h1))

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


class TestCli:
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

    def test_verify_subcommand_passes(self, capsys):
        assert main(["verify"]) == 0
        assert "all checks passed" in capsys.readouterr().out
