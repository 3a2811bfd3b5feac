"""File-format round trips and end-to-end command-line runs.

Round trips must be bit-exact for finite doubles; CLI commands are
exercised through ``cli.main`` so exit codes and outputs are covered.
"""

import re

import numpy as np
import pytest

from spldavb import cli, fileio
from spldavb.adapt import RunConfig, run_adaptation
from spldavb.model import Dataset, SpldaModel
from spldavb.synth import SynthSpec, generate, split_dataset
from spldavb.vbbayes import AlphaPosterior, WishartPosterior
from spldavb.vbpoint import Hyperparams
from splda_oracles import rowpost_from_cov


class TestMatrixIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 5)) * np.logspace(-150, 150, 5)
        path = tmp_path / "m.ivec"
        fileio.write_matrix(path, x)
        y = fileio.read_matrix(path)
        assert (x == y).all()

    def test_awkward_values_survive(self, tmp_path):
        x = np.array([[1.0 / 3.0, np.pi, 5e-324, -0.0, 1e308]])
        path = tmp_path / "m.ivec"
        fileio.write_matrix(path, x)
        y = fileio.read_matrix(path)
        assert (x == y).all()

    def test_vector_promoted_to_row(self, tmp_path):
        path = tmp_path / "v.ivec"
        fileio.write_matrix(path, np.arange(4.0))
        y = fileio.read_matrix(path)
        assert y.shape == (1, 4)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ivec"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="header"):
            fileio.read_matrix(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "bad.ivec"
        path.write_text("IVEC 3 2\n1 2\n3 4\n")
        with pytest.raises(ValueError, match="declared 3 rows"):
            fileio.read_matrix(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.ivec"
        path.write_text("IVEC 2 3\n1 2 3\n4 5\n")
        with pytest.raises(ValueError, match="expected 3"):
            fileio.read_matrix(path)

    def test_rows_beyond_the_declared_count_rejected(self, tmp_path):
        path = tmp_path / "bad.ivec"
        path.write_text("IVEC 2 2\n1 2\n3 4\n5 6\n7 8\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:4: unexpected line '5 6'")):
            fileio.read_matrix(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "m.ivec"
        path.write_text("IVEC 2 2\n1 2\n3 4\n\n  \n")
        np.testing.assert_array_equal(fileio.read_matrix(path),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_labels_round_trip(self, tmp_path):
        labels = np.array([3, 0, 0, 7, 2])
        path = tmp_path / "l.labels"
        fileio.write_labels(path, labels)
        np.testing.assert_array_equal(fileio.read_labels(path), labels)

    @pytest.mark.parametrize("text, line", [
        ("1 2\n3\n", 1),  # two labels on one line
        ("0\n1\nx\n", 3),  # not an integer
        ("0\n\n1\n", 2),  # a blank line before the last label
    ])
    def test_labels_one_integer_per_line(self, tmp_path, text, line):
        path = tmp_path / "bad.labels"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
            fileio.read_labels(path)

    def test_labels_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "l.labels"
        path.write_text("4\n 0 \n\n  \n")
        labels = fileio.read_labels(path)
        np.testing.assert_array_equal(labels, [4, 0])
        assert labels.dtype == int


def _random_model(d, n_y, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    return SpldaModel(mu=rng.standard_normal(d),
                      v=rng.standard_normal((d, n_y)),
                      w=a @ a.T + d * np.eye(d))


class TestModelIO:
    def test_round_trip_bit_exact(self, tmp_path):
        model = _random_model(5, 3, seed=11)
        path = tmp_path / "m.splda"
        fileio.write_model(path, model)
        loaded, bayes = fileio.read_model(path)
        assert bayes is None
        assert (loaded.mu == model.mu).all()
        assert (loaded.v == model.v).all()
        assert (loaded.w == model.w).all()

    def test_bayes_section_round_trip(self, tmp_path):
        d, n_y = 4, 2
        rng = np.random.default_rng(5)
        model = _random_model(d, n_y, seed=5)
        prec = np.stack([np.eye(n_y + 1) * (r + 1) for r in range(d)])
        rowpost = rowpost_from_cov(rng.standard_normal((d, n_y + 1)),
                                   np.linalg.inv(prec))
        alphapost = AlphaPosterior(a_prime=2.5,
                                   b_prime=rng.uniform(1, 3, size=n_y))
        wpost = WishartPosterior.from_update(np.eye(d) * 0.3, 9.0, 1.0)
        hyper = Hyperparams(tau0=0.7, eta=0.5, mu0=rng.standard_normal(d),
                            beta=2.0)
        path = tmp_path / "m.splda"
        fileio.write_model(path, model, bayes_state=dict(
            rowpost=rowpost, alphapost=alphapost, wpost=wpost, hyper=hyper))
        loaded, bayes = fileio.read_model(path)
        assert (loaded.v == model.v).all()
        assert (bayes["vt_mean"] == rowpost.mean).all()
        assert (bayes["vt_prec"] == rowpost.prec).all()
        assert bayes["a_prime"] == alphapost.a_prime
        assert (bayes["b_prime"] == alphapost.b_prime).all()
        assert bayes["wishart_dof"] == wpost.dof
        assert (bayes["wishart_k"] == wpost.k).all()
        assert bayes["hyper"]["tau0"] == 0.7
        assert bayes["hyper"]["eta"] == 0.5
        assert (bayes["hyper"]["mu0"] == hyper.mu0).all()

    def test_asymmetric_w_warns_and_symmetrizes(self, tmp_path):
        model = _random_model(3, 2, seed=7)
        path = tmp_path / "m.splda"
        fileio.write_model(path, model)
        lines = path.read_text().splitlines()
        w_at = lines.index("W") + 1
        row = lines[w_at].split()
        row[1] = "%.17g" % (float(row[1]) + 1e-6)
        lines[w_at] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="asymmetry"):
            loaded, _ = fileio.read_model(path)
        assert (loaded.w == loaded.w.T).all()

    def test_misspelled_bayes_section_rejected(self, tmp_path):
        path = tmp_path / "m.splda"
        fileio.write_model(path, _random_model(2, 1, seed=3))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + ["BAYS", "VT_MEAN"]) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{len(lines) + 1}: unexpected line 'BAYS'")):
            fileio.read_model(path)

    @pytest.mark.parametrize("bayes", [False, True])
    def test_trailing_lines(self, tmp_path, bayes):
        # Blank lines may follow the last section; anything else is an error.
        d, n_y = 3, 1
        rng = np.random.default_rng(8)
        state = None
        if bayes:
            state = dict(
                rowpost=rowpost_from_cov(rng.standard_normal((d, n_y + 1)),
                                         np.stack([np.eye(n_y + 1)] * d)),
                alphapost=AlphaPosterior(a_prime=2.0, b_prime=np.ones(n_y)),
                wpost=WishartPosterior.from_update(np.eye(d), 9.0),
                hyper=Hyperparams(mu0=np.zeros(d), beta=1.0))
        path = tmp_path / "m.splda"
        fileio.write_model(path, _random_model(d, n_y, seed=8), state)
        text = path.read_text()
        path.write_text(text + "\n \n")
        assert (fileio.read_model(path)[1] is None) == (not bayes)
        path.write_text(text + "\nextra 1\n")
        n_lines = len(text.splitlines())
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{n_lines + 2}: unexpected line")):
            fileio.read_model(path)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "m.splda"
        path.write_text("SPLDA 2 1\nMU\n0 0\nW\n1 0\n0 1\n")
        with pytest.raises(ValueError, match="'V'"):
            fileio.read_model(path)


class TestConfigIO:
    def test_parses_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# run settings\n\nm_init = 8  # clusters\neta=0.5\n")
        out = fileio.read_config(path, {"m_init", "eta"})
        assert out == {"m_init": "8", "eta": "0.5"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("m_int = 8\n")
        with pytest.raises(ValueError, match="unknown config key 'm_int'"):
            fileio.read_config(path, {"m_init"})

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("m_init 8\n")
        with pytest.raises(ValueError, match="key=value"):
            fileio.read_config(path, {"m_init"})


class TestConfigValues:
    def _read(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        return cli._config_from_file(str(cfg), {})

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("false", False), ("NO", False), ("Off", False),
    ])
    def test_boolean_spellings(self, tmp_path, text, value):
        config, _ = self._read(tmp_path, f"anneal = {text}\n")
        assert config.anneal is value

    @pytest.mark.parametrize("line, key", [
        ("anneal = ture", "anneal"),
        ("prune_merge = 2", "prune_merge"),
        ("max_iter = 3.5", "max_iter"),
        ("seed = x", "seed"),
        ("kappa0 = half", "kappa0"),
        ("tau0 = ", "tau0"),
    ])
    def test_unparsable_value_names_key(self, tmp_path, line, key):
        with pytest.raises(ValueError, match=f"config key {key}: "):
            self._read(tmp_path, line + "\n")


class TestReportIO:
    def test_trace_rows_and_header(self, tmp_path):
        phi, labels, model = generate(SynthSpec(
            d=4, n_y=2, m_true=3, per_speaker=8, eigenvoice_scale=3.0, seed=1))
        dataset, _ = split_dataset(phi, labels, 0.5, seed=1)
        report = run_adaptation(dataset, model, Hyperparams(),
                                RunConfig(m_init=3, max_iter=10))
        path = tmp_path / "r.report"
        fileio.write_report(path, report, header={"command": "adapt"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# command adapt"
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == len(report.elbo_trace)
        it, elbo, m, kappa = data[-1].split()
        assert float(elbo) == report.elbo_trace[-1]
        assert int(m) == report.m_trace[-1]
        assert float(kappa) == report.kappa_trace[-1]


def _run(argv):
    return cli.main(argv)


@pytest.fixture
def synth_files(tmp_path):
    prefix = str(tmp_path / "data")
    code = _run(["synth", "--d", "6", "--ny", "2", "--speakers", "6",
                 "--per-speaker", "10", "--eigenvoice-scale", "4.0",
                 "--sup-fraction", "0.5", "--seed", "3",
                 "--out-prefix", prefix])
    assert code == 0
    return prefix


class TestCli:
    def test_pipeline_end_to_end(self, synth_files, tmp_path, capsys):
        prefix = synth_files
        model_path = str(tmp_path / "sup.splda")
        assert _run(["train", "--ivectors", prefix + ".phi_d",
                     "--labels", prefix + ".labels_d", "--ny", "2",
                     "--out-model", model_path,
                     "--trace", str(tmp_path / "train.report")]) == 0
        out_model = str(tmp_path / "adapted.splda")
        out_labels = str(tmp_path / "pred.labels")
        assert _run(["adapt", "--model", model_path,
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", prefix + ".phi",
                     "--m-init", "3", "--seed", "0",
                     "--out-model", out_model, "--out-labels", out_labels,
                     "--out-report", str(tmp_path / "adapt.report")]) == 0
        assert _run(["eval", "--pred-labels", out_labels,
                     "--true-labels", prefix + ".true_labels"]) == 0
        out = capsys.readouterr().out
        ari = float([l for l in out.splitlines()
                     if l.startswith("ARI")][-1].split()[1])
        assert ari == 1.0
        assert _run(["elbo-audit", "--model", model_path,
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", prefix + ".phi",
                     "--m-init", "3", "--seed", "0", "--sweeps", "2"]) == 0
        audit = capsys.readouterr().out
        assert "total" in audit

    def test_elbo_audit_rejects_zero_sweeps(self, synth_files, tmp_path,
                                            capsys):
        prefix = synth_files
        model_path = str(tmp_path / "sup.splda")
        _run(["train", "--ivectors", prefix + ".phi_d",
              "--labels", prefix + ".labels_d", "--ny", "2",
              "--out-model", model_path])
        assert _run(["elbo-audit", "--model", model_path,
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", prefix + ".phi",
                     "--m-init", "3", "--sweeps", "0"]) == 1
        assert "max_iter" in capsys.readouterr().err

    def test_elbo_audit_fails_when_terms_miss_the_bound(
            self, synth_files, tmp_path, capsys, monkeypatch):
        # The check must hold under python -O as well, so it is no assert.
        prefix = synth_files
        model_path = str(tmp_path / "sup.splda")
        _run(["train", "--ivectors", prefix + ".phi_d",
              "--labels", prefix + ".labels_d", "--ny", "2",
              "--out-model", model_path])

        def skewed(*args, **kwargs):
            report = run_adaptation(*args, **kwargs)
            report.elbo_terms["lnP(Y)"] += 1.0
            return report

        monkeypatch.setattr(cli, "run_adaptation", skewed)
        assert _run(["elbo-audit", "--model", model_path,
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", prefix + ".phi",
                     "--m-init", "3", "--sweeps", "2"]) == 1
        assert "final ELBO" in capsys.readouterr().err

    def test_bayes_variant_writes_posterior_section(self, synth_files,
                                                    tmp_path):
        prefix = synth_files
        model_path = str(tmp_path / "sup.splda")
        _run(["train", "--ivectors", prefix + ".phi_d",
              "--labels", prefix + ".labels_d", "--ny", "2",
              "--out-model", model_path])
        out_model = str(tmp_path / "adapted.splda")
        assert _run(["adapt", "--model", model_path,
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", prefix + ".phi",
                     "--variant", "bayes", "--m-init", "3", "--seed", "0",
                     "--out-model", out_model,
                     "--out-labels", str(tmp_path / "p.labels")]) == 0
        _, bayes = fileio.read_model(out_model)
        assert bayes is not None
        assert bayes["vt_mean"].shape == (6, 3)

    def test_adapt_is_deterministic(self, synth_files, tmp_path):
        prefix = synth_files
        model_path = str(tmp_path / "sup.splda")
        _run(["train", "--ivectors", prefix + ".phi_d",
              "--labels", prefix + ".labels_d", "--ny", "2",
              "--out-model", model_path])
        outputs = []
        for tag in ("a", "b"):
            out_model = str(tmp_path / f"adapted_{tag}.splda")
            assert _run(["adapt", "--model", model_path,
                         "--sup-ivectors", prefix + ".phi_d",
                         "--sup-labels", prefix + ".labels_d",
                         "--unsup-ivectors", prefix + ".phi",
                         "--m-init", "4", "--seed", "7",
                         "--out-model", out_model,
                         "--out-labels",
                         str(tmp_path / f"p_{tag}.labels")]) == 0
            outputs.append(out_model)
        a, b = (open(p).read() for p in outputs)
        assert a == b

    def test_config_file_drives_adapt(self, synth_files, tmp_path):
        prefix = synth_files
        model_path = str(tmp_path / "sup.splda")
        _run(["train", "--ivectors", prefix + ".phi_d",
              "--labels", prefix + ".labels_d", "--ny", "2",
              "--out-model", model_path])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m_init = 3\nmax_iter = 20\nanneal = true\n"
                       "kappa0 = 0.5\nseed = 0\n")
        assert _run(["adapt", "--model", model_path,
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", prefix + ".phi",
                     "--config", str(cfg),
                     "--out-model", str(tmp_path / "out.splda"),
                     "--out-labels", str(tmp_path / "out.labels"),
                     "--out-report", str(tmp_path / "out.report")]) == 0
        report = (tmp_path / "out.report").read_text()
        first_row = [l for l in report.splitlines()
                     if not l.startswith("#")][0]
        assert float(first_row.split()[3]) == 0.5

    def test_config_and_flag_hyperparameters_reach_run(self, synth_files,
                                                       tmp_path):
        prefix = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau0 = 0.7\neta = 0.9\nmax_iter = 5\n")
        out_model = str(tmp_path / "out.splda")
        assert _run(["adapt", "--model", prefix + ".true_model",
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", prefix + ".phi",
                     "--config", str(cfg), "--eta", "0.5",
                     "--variant", "bayes", "--m-init", "3",
                     "--out-model", out_model,
                     "--out-labels", str(tmp_path / "out.labels")]) == 0
        _, bayes = fileio.read_model(out_model)
        assert (bayes["hyper"]["tau0"], bayes["hyper"]["eta"]) == (0.7, 0.5)

    def test_unknown_config_key_fails_cleanly(self, synth_files, tmp_path,
                                              capsys):
        prefix = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mint = 3\n")
        code = _run(["adapt", "--model", prefix + ".true_model",
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", prefix + ".phi",
                     "--config", str(cfg),
                     "--out-model", str(tmp_path / "o.splda"),
                     "--out-labels", str(tmp_path / "o.labels")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_input_file_fails_cleanly(self, tmp_path, capsys):
        code = _run(["train", "--ivectors", str(tmp_path / "nope.ivec"),
                     "--labels", str(tmp_path / "nope.labels"), "--ny", "2",
                     "--out-model", str(tmp_path / "o.splda")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_length_mismatch_fails(self, tmp_path, capsys):
        a, b = tmp_path / "a.labels", tmp_path / "b.labels"
        fileio.write_labels(a, [0, 1, 2])
        fileio.write_labels(b, [0, 1])
        assert _run(["eval", "--pred-labels", str(a),
                     "--true-labels", str(b)]) == 1
        assert "differ in length" in capsys.readouterr().err
