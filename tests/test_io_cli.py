"""File-format round trips and end-to-end command-line runs.

Round trips must be bit-exact for finite doubles; CLI commands are
exercised through ``cli.main`` so exit codes and outputs are covered.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import wishart

from spldavb import cli, fileio
from spldavb.adapt import RunConfig, run_adaptation
from spldavb.model import SpldaModel
from spldavb.synth import SynthSpec, generate, split_dataset
from spldavb.vbbayes import AlphaPosterior, WishartPosterior
from spldavb.vbpoint import Hyperparams
from splda_oracles import (
    dense_cov,
    labels_text,
    matrix_text,
    model_text,
    parse_matrix_rows,
    rowpost_from_cov,
)
from test_cluster_control import split_problem


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

    def test_fractional_labels_are_rejected_not_truncated(self, tmp_path):
        path = tmp_path / "l.labels"
        with pytest.raises(ValueError, match="^labels must be integers, got 0.7"):
            fileio.write_labels(path, [0.7, 1.2])
        assert not path.exists()

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


# Signed zero, the smallest subnormal and the largest finite doubles.
_EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def _bayes_state(d, n_y, seed):
    rng = np.random.default_rng(seed)
    prec = np.stack([np.eye(n_y + 1) * (r + 1) for r in range(d)])
    return dict(
        rowpost=rowpost_from_cov(rng.standard_normal((d, n_y + 1)),
                                 np.linalg.inv(prec)),
        alphapost=AlphaPosterior(a_prime=2.5,
                                 b_prime=rng.uniform(1, 3, size=n_y)),
        wpost=WishartPosterior.from_update(np.eye(d) * 0.3, 9.0, 1.0),
        hyper=Hyperparams(tau0=0.7, eta=0.5, mu0=rng.standard_normal(d),
                          beta=2.0))


def _model_lines(tmp_path, bayes):
    """A written d=4, n_y=2 model file and its lines."""
    path = tmp_path / "m.splda"
    fileio.write_model(path, _random_model(4, 2, seed=4),
                       _bayes_state(4, 2, seed=4) if bayes else None)
    return path, path.read_text().splitlines(keepends=True)


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
        model = _random_model(d, n_y, seed=5)
        state = _bayes_state(d, n_y, seed=5)
        rowpost, alphapost = state["rowpost"], state["alphapost"]
        wpost, hyper = state["wpost"], state["hyper"]
        path = tmp_path / "m.splda"
        fileio.write_model(path, model, bayes_state=state)
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

    def test_annealed_bayes_file_records_the_held_posteriors(self, tmp_path):
        # A run that stops at kappa = 0.3125 writes the tempered factors it
        # holds: the q(W) of the WISHART section has the file's W as its
        # mean and the bound's -lnq(W) as its entropy, and each VT_PREC
        # block is the inverse of a held row covariance.
        dataset, model = split_problem(seed=3)
        report = run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=6, variant="bayes", anneal=True, max_iter=3))
        assert report.kappa_trace[-1] == 0.3125
        path = tmp_path / "m.splda"
        fileio.write_model(path, report.model, report.bayes_state)
        loaded, bayes = fileio.read_model(path)
        q_w = wishart(df=bayes["wishart_dof"],
                      scale=np.linalg.inv(bayes["wishart_k"]))
        np.testing.assert_allclose(q_w.mean(), loaded.w, rtol=1e-12, atol=0)
        assert q_w.entropy() == pytest.approx(
            report.elbo_terms["-lnq(W)"], rel=1e-12)
        cov = dense_cov(report.bayes_state["rowpost"])
        np.testing.assert_allclose(np.linalg.inv(bayes["vt_prec"]), cov,
                                   rtol=1e-12, atol=1e-12 * np.abs(cov).max())

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


class TestWriterBytes:
    """Each writer's bytes equal the file written one value at a time."""

    @pytest.mark.parametrize("x", [
        np.array([_EXTREMES + [1 / 3, np.pi, np.inf, -np.inf, np.nan]]),
        np.array([[2.5]]),
        np.array([[1.0], [-0.0], [5e-324]]),
        np.zeros((0, 3)),
        np.zeros((2, 0)),
        np.arange(4.0),
        np.random.default_rng(3).standard_normal((7, 5))
        * np.logspace(-300, 300, 5),
    ], ids=["extremes", "1x1", "one-column", "0-row", "0-column", "vector",
            "wide-range"])
    def test_matrix(self, tmp_path, x):
        path = tmp_path / "m.ivec"
        fileio.write_matrix(path, x)
        assert path.read_bytes() == matrix_text(x).encode()

    @pytest.mark.parametrize("bayes", [False, True])
    @pytest.mark.parametrize("n_y", [1, 3])
    def test_model(self, tmp_path, bayes, n_y):
        d = 4
        base = _random_model(d, n_y, seed=9)
        model = SpldaModel(mu=_EXTREMES, v=base.v, w=base.w)
        state = _bayes_state(d, n_y, seed=9) if bayes else None
        path = tmp_path / "m.splda"
        fileio.write_model(path, model, state)
        assert path.read_bytes() == model_text(model, state).encode()

    @pytest.mark.parametrize("labels", [[3, 0, 0, 7, 2], [5], [], [4, -1, 0]])
    def test_labels(self, tmp_path, labels):
        path = tmp_path / "l.labels"
        fileio.write_labels(path, np.array(labels, dtype=int))
        assert path.read_bytes() == labels_text(labels).encode()


class TestReaderStrictness:
    """Malformed files raise ValueError naming the file, and the command
    line turns that into exit status 1 with an ``error:`` line."""

    @settings(max_examples=60, deadline=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(
        min_dims=2, max_dims=2, min_side=0, max_side=6),
        elements=st.floats(allow_subnormal=True)))
    def test_read_matrix_matches_row_parse(self, tmp_path_factory, x):
        path = tmp_path_factory.mktemp("ivec") / "m.ivec"
        fileio.write_matrix(path, x)
        y = fileio.read_matrix(path)
        rows = parse_matrix_rows(path)
        assert y.shape == rows.shape == x.shape
        assert y.tobytes() == rows.tobytes()
        finite = ~np.isnan(x)
        assert (y.view(np.int64)[finite] == x.view(np.int64)[finite]).all()

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_empty_matrix_reads_without_warning(self, tmp_path, shape):
        path = tmp_path / "m.ivec"
        fileio.write_matrix(path, np.zeros(shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fileio.read_matrix(path).shape == shape

    def test_underscore_digits_still_read(self, tmp_path):
        # float() and numpy's string conversion take "1_0"; loadtxt does not.
        path = tmp_path / "m.ivec"
        path.write_text("IVEC 2 2\n1_0 2\n3 4\n")
        np.testing.assert_array_equal(fileio.read_matrix(path),
                                      [[10.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text, line", [
        ("IVEC 3 2\n1 2\n\n3 4\n", 3),  # a blank line inside the body
        ("IVEC 2 2\n1 2\n# 4\n", 3),  # a comment token
        ("IVEC 2 3\n1 2 3\n4 5\n", 3),  # a ragged row
        ("IVEC 2 2\n1 2\n3 x\n", 3),  # a non-numeric token
        ("IVEC 1 1\n\n", 2),  # a blank first row
    ], ids=["blank", "comment", "ragged", "non-numeric", "blank-first"])
    def test_matrix_body_defects(self, tmp_path, capsys, text, line):
        path = tmp_path / "bad.ivec"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
            fileio.read_matrix(path)
        assert _run(["train", "--ivectors", str(path),
                     "--labels", str(tmp_path / "l.labels"), "--ny", "1",
                     "--out-model", str(tmp_path / "o.splda")]) == 1
        assert f"error: {path}:{line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("header", [
        "IVEC 3", "IVEC a b", "IVEC -1 3", "IVEC 1 2 3"])
    def test_matrix_header_defects(self, tmp_path, header):
        path = tmp_path / "bad.ivec"
        path.write_text(header + "\n1 2 3\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: ")):
            fileio.read_matrix(path)

    def test_matrix_cut_after_every_line(self, tmp_path):
        path = tmp_path / "m.ivec"
        fileio.write_matrix(path, np.arange(6.0).reshape(3, 2))
        lines = path.read_text().splitlines(keepends=True)
        for n in range(len(lines)):
            path.write_text("".join(lines[:n]))
            with pytest.raises(ValueError, match=re.escape(str(path))):
                fileio.read_matrix(path)

    @pytest.mark.parametrize("header", ["SPLDA 4", "SPLDA a 2", "SPLDA 2 -1"])
    def test_model_header_defects(self, tmp_path, header):
        path, lines = _model_lines(tmp_path, bayes=False)
        path.write_text("".join([header + "\n"] + lines[1:]))
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: ")):
            fileio.read_model(path)

    @pytest.mark.parametrize("bayes", [False, True])
    def test_model_cut_after_every_line(self, tmp_path, capsys, bayes):
        path, lines = _model_lines(tmp_path, bayes)
        # A Bayesian file cut just before BAYES is a whole point model.
        whole = {len(lines)} | {i for i, l in enumerate(lines)
                                if l == "BAYES\n"}
        for n in sorted(set(range(len(lines))) - whole):
            path.write_text("".join(lines[:n]))
            with pytest.raises(ValueError, match=re.escape(str(path))):
                fileio.read_model(path)
        path.write_text("".join(lines[:lines.index("W\n")]))
        assert _run(["adapt", "--model", str(path),
                     "--sup-ivectors", str(tmp_path / "s.ivec"),
                     "--sup-labels", str(tmp_path / "s.labels"),
                     "--unsup-ivectors", str(tmp_path / "u.ivec"),
                     "--out-model", str(tmp_path / "o.splda"),
                     "--out-labels", str(tmp_path / "o.labels")]) == 1
        assert f"error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("section", [
        "MU", "V", "W", "VT_MEAN", "VT_PREC", "ALPHA", "WISHART", "HYPER"])
    @pytest.mark.parametrize("defect", [
        "blank", "comment", "ragged", "non-numeric"])
    def test_model_body_defects(self, tmp_path, capsys, section, defect):
        path, lines = _model_lines(tmp_path, bayes=True)
        at = lines.index(section + "\n") + 1
        key, *vals = lines[at].split()
        if section != "HYPER":
            key, vals = "", [key] + vals
        if defect == "blank":
            lines.insert(at, "\n")
        else:
            vals = {"comment": ["#"] + vals[1:], "ragged": vals[1:],
                    "non-numeric": ["x"] + vals[1:]}[defect]
            lines[at] = " ".join(([key] if key else []) + vals) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}:")):
            fileio.read_model(path)
        assert _run(["adapt", "--model", str(path),
                     "--sup-ivectors", str(tmp_path / "s.ivec"),
                     "--sup-labels", str(tmp_path / "s.labels"),
                     "--unsup-ivectors", str(tmp_path / "u.ivec"),
                     "--out-model", str(tmp_path / "o.splda"),
                     "--out-labels", str(tmp_path / "o.labels")]) == 1
        assert f"error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, line, message", [
        ("mu0", "mu0 1 2 3", "mu0 has 3 values, expected 4"),
        ("mu0", "mu0 1", "mu0 has 1 values, expected 4"),
        ("beta", "beta 1 2", "beta has 2 values, expected 1 or 4"),
        ("tau0", "tau0 3 1", "tau0 has 2 values, expected 1"),
        ("eta", "eta 0.5 0.5 0.5 0.5", "eta has 4 values, expected 1"),
        ("a_alpha", "a_alpha 1 1", "a_alpha has 2 values, expected 1"),
        ("b_alpha", "b_alpha", "b_alpha has 0 values, expected 1"),
        (None, "foo 1", "has unknown key 'foo'"),
        (None, "tau0 7", "repeats tau0"),
    ])
    def test_model_hyper_line_defects(self, tmp_path, capsys, key, line,
                                      message):
        # ``key`` names the HYPER line to replace; None appends ``line``.
        path, lines = _model_lines(tmp_path, bayes=True)
        at = len(lines) if key is None else next(
            i for i, l in enumerate(lines) if l.startswith(key + " "))
        lines[at:at + (key is not None)] = [line + "\n"]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{at + 1}: HYPER {message}")):
            fileio.read_model(path)
        assert _run(["adapt", "--model", str(path),
                     "--sup-ivectors", str(tmp_path / "s.ivec"),
                     "--sup-labels", str(tmp_path / "s.labels"),
                     "--unsup-ivectors", str(tmp_path / "u.ivec"),
                     "--out-model", str(tmp_path / "o.splda"),
                     "--out-labels", str(tmp_path / "o.labels")]) == 1
        assert f"error: {path}:{at + 1}: HYPER" in capsys.readouterr().err


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

    def test_train_rejects_negative_label(self, synth_files, tmp_path,
                                          capsys):
        labels = fileio.read_labels(synth_files + ".labels_d")
        labels[-1] = -1
        labels_path = str(tmp_path / "bad.labels")
        fileio.write_labels(labels_path, labels)
        assert _run(["train", "--ivectors", synth_files + ".phi_d",
                     "--labels", labels_path, "--ny", "2",
                     "--out-model", str(tmp_path / "sup.splda")]) == 1
        assert "negative speaker label" in capsys.readouterr().err

    def test_negative_seed_is_named(self, synth_files, tmp_path, capsys):
        prefix = synth_files
        out = tmp_path / "out"
        out.mkdir()
        assert _run(["synth", "--d", "3", "--ny", "1", "--speakers", "4",
                     "--per-speaker", "2", "--seed", "-1",
                     "--out-prefix", str(out / "data")]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not list(out.iterdir())
        model_path = str(tmp_path / "sup.splda")
        assert _run(["train", "--ivectors", prefix + ".phi_d",
                     "--labels", prefix + ".labels_d", "--ny", "2",
                     "--seed", "-1", "--out-model", model_path]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        _run(["train", "--ivectors", prefix + ".phi_d",
              "--labels", prefix + ".labels_d", "--ny", "2",
              "--out-model", model_path])
        assert _run(["adapt", "--model", model_path,
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", prefix + ".phi",
                     "--m-init", "3", "--seed", "-1",
                     "--out-model", str(tmp_path / "adapted.splda"),
                     "--out-labels", str(tmp_path / "pred.labels")]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_adapt_names_a_non_finite_model_array(self, synth_files, tmp_path,
                                                  capsys):
        prefix = synth_files
        lines = open(prefix + ".true_model").read().splitlines()
        lines[lines.index("MU") + 1] = " ".join(["nan"] * 6)
        model_path = tmp_path / "nan.splda"
        model_path.write_text("\n".join(lines) + "\n")
        assert _run(["adapt", "--model", str(model_path),
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", prefix + ".phi", "--m-init", "3",
                     "--out-model", str(tmp_path / "adapted.splda"),
                     "--out-labels", str(tmp_path / "pred.labels")]) == 1
        assert capsys.readouterr().err == "error: mu must be finite, got nan\n"
        assert not (tmp_path / "adapted.splda").exists()

    def test_synth_rejects_zero_per_speaker(self, tmp_path, capsys):
        assert _run(["synth", "--d", "3", "--ny", "1", "--speakers", "4",
                     "--per-speaker", "0",
                     "--out-prefix", str(tmp_path / "data")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: per_speaker must be >= 1")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fraction", ["-2", "1.5", "nan"])
    def test_synth_rejects_a_fraction_outside_zero_one(self, tmp_path, capsys,
                                                       fraction):
        assert _run(["synth", "--d", "3", "--ny", "1", "--speakers", "4",
                     "--per-speaker", "2", "--sup-fraction", fraction,
                     "--out-prefix", str(tmp_path / "data")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: sup_fraction must lie in [0, 1]")
        assert not list(tmp_path.iterdir())

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

    def test_elbo_audit_prints_positive_zeros_for_no_labelled_data(
            self, synth_files, tmp_path, capsys):
        prefix = synth_files
        model_path = str(tmp_path / "sup.splda")
        _run(["train", "--ivectors", prefix + ".phi_d",
              "--labels", prefix + ".labels_d", "--ny", "2",
              "--out-model", model_path])
        fileio.write_matrix(tmp_path / "none.ivec", np.zeros((0, 6)))
        fileio.write_labels(tmp_path / "none.labels", [])
        capsys.readouterr()
        assert _run(["elbo-audit", "--model", model_path,
                     "--sup-ivectors", str(tmp_path / "none.ivec"),
                     "--sup-labels", str(tmp_path / "none.labels"),
                     "--unsup-ivectors", prefix + ".phi",
                     "--m-init", "3", "--sweeps", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        labelled = [l.split() for l in lines if "Y_d)" in l]
        assert len(labelled) == 3
        assert all(value == "0.000000000000" for _, value in labelled)

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

    def test_adapt_rejects_model_of_wrong_dimension(self, synth_files,
                                                    tmp_path, capsys):
        # No unlabelled i-vectors: the run would fall back to supervised
        # training, which must not see the d=5 model on d=6 data.
        prefix = synth_files
        _, _, model = generate(SynthSpec(d=5, n_y=2, m_true=2, per_speaker=3))
        model_path = str(tmp_path / "d5.splda")
        fileio.write_model(model_path, model)
        unsup = tmp_path / "none.ivec"
        unsup.write_text("IVEC 0 6\n")
        assert _run(["adapt", "--model", model_path,
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", str(unsup),
                     "--out-model", str(tmp_path / "adapted.splda"),
                     "--out-labels", str(tmp_path / "p.labels")]) == 1
        assert "model dimension 5 does not match data 6" \
            in capsys.readouterr().err

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

    def test_infinite_tau0_in_config_fails_cleanly(self, synth_files, tmp_path,
                                                   capsys):
        prefix = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau0 = inf\n")
        code = _run(["adapt", "--model", prefix + ".true_model",
                     "--sup-ivectors", prefix + ".phi_d",
                     "--sup-labels", prefix + ".labels_d",
                     "--unsup-ivectors", prefix + ".phi",
                     "--config", str(cfg), "--m-init", "4",
                     "--out-model", str(tmp_path / "o.splda"),
                     "--out-labels", str(tmp_path / "o.labels")])
        assert code == 1
        assert "tau0 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o.splda").exists()

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
