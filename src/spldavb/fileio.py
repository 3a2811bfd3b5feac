"""Portable text file formats: matrices, models, labels, configs, reports.

All numeric payloads are written with 17 significant digits so finite
doubles round-trip bit-exactly; formats are line-oriented for diff-ability.
"""

import numpy as np

from .model import SpldaModel

__all__ = [
    "write_matrix", "read_matrix",
    "write_model", "read_model",
    "write_labels", "read_labels",
    "read_config", "write_report",
]

_FMT = "%.17g"


def _format_row(row):
    return " ".join(_FMT % x for x in np.atleast_1d(row))


def write_matrix(path, x):
    """Write a 1-D or 2-D array with an ``IVEC rows cols`` header."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"IVEC {x.shape[0]} {x.shape[1]}\n")
        for row in x:
            fh.write(_format_row(row) + "\n")


def _parse_matrix_body(lines, rows, cols, what="matrix"):
    body = np.empty((rows, cols))
    for i in range(rows):
        vals = lines[i].split()
        if len(vals) != cols:
            raise ValueError(
                f"{what}: row {i} has {len(vals)} values, expected {cols}")
        body[i] = vals  # numpy parses the strings, correctly rounded
    return body


def _check_tail(path, lines, pos):
    """Reject any non-blank line from index ``pos`` on: a reader stops
    there, so the line would be dropped unread."""
    for i in range(pos, len(lines)):
        if lines[i].strip():
            raise ValueError(f"{path}:{i + 1}: unexpected line {lines[i]!r}")


def read_matrix(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("IVEC "):
        raise ValueError(f"{path}: missing IVEC header")
    _, rows, cols = lines[0].split()
    rows, cols = int(rows), int(cols)
    if len(lines) - 1 < rows:
        raise ValueError(f"{path}: declared {rows} rows, found {len(lines) - 1}")
    body = _parse_matrix_body(lines[1:], rows, cols, what=path)
    _check_tail(path, lines, rows + 1)
    return body


def write_labels(path, labels):
    with open(path, "w") as fh:
        for l in np.asarray(labels, dtype=int):
            fh.write(f"{l}\n")


def read_labels(path):
    """One integer label per line; blank lines may follow the last label."""
    with open(path) as fh:
        lines = fh.read().rstrip().splitlines()
    labels = []
    for i, line in enumerate(lines):
        try:
            labels.append(int(line))
        except ValueError:
            raise ValueError(f"{path}:{i + 1}: expected one integer label, "
                             f"got {line!r}") from None
    return np.array(labels, dtype=int)


def write_model(path, model, bayes_state=None):
    """Write a model file; optional BAYES section carries the parameter
    posteriors and hyperparameters of the Bayesian variant."""
    d, n_y = model.d, model.n_y
    with open(path, "w") as fh:
        fh.write(f"SPLDA {d} {n_y}\n")
        fh.write("MU\n" + _format_row(model.mu) + "\n")
        fh.write("V\n")
        for row in model.v:
            fh.write(_format_row(row) + "\n")
        fh.write("W\n")
        for row in model.w:
            fh.write(_format_row(row) + "\n")
        if bayes_state is not None:
            rowpost = bayes_state["rowpost"]
            wpost = bayes_state["wpost"]
            alphapost = bayes_state["alphapost"]
            hyper = bayes_state["hyper"]
            fh.write("BAYES\n")
            fh.write("VT_MEAN\n")
            for row in rowpost.mean:
                fh.write(_format_row(row) + "\n")
            fh.write("VT_PREC\n")
            for block in rowpost.prec:
                for row in block:
                    fh.write(_format_row(row) + "\n")
            fh.write("ALPHA\n")
            fh.write(_FMT % alphapost.a_prime + "\n")
            fh.write(_format_row(alphapost.b_prime) + "\n")
            fh.write("WISHART\n")
            fh.write(_FMT % wpost.dof + "\n")
            for row in wpost.k:
                fh.write(_format_row(row) + "\n")
            fh.write("HYPER\n")
            beta = np.atleast_1d(np.asarray(hyper.beta, dtype=float))
            fh.write(f"tau0 {_FMT % hyper.tau0}\n")
            fh.write(f"eta {_FMT % hyper.eta}\n")
            fh.write(f"a_alpha {_FMT % hyper.a_alpha}\n")
            fh.write(f"b_alpha {_FMT % hyper.b_alpha}\n")
            fh.write("mu0 " + _format_row(hyper.mu0) + "\n")
            fh.write("beta " + _format_row(beta) + "\n")


def read_model(path):
    """Read a model file; returns ``(model, bayes_dict_or_None)``.  Only
    blank lines may follow the last section."""
    import warnings

    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("SPLDA "):
        raise ValueError(f"{path}: missing SPLDA header")
    _, d, n_y = lines[0].split()
    d, n_y = int(d), int(n_y)
    pos = 1

    def expect(tag):
        nonlocal pos
        if pos >= len(lines) or lines[pos] != tag:
            raise ValueError(f"{path}: expected section {tag!r} at line {pos + 1}")
        pos += 1

    def block(rows, cols, what):
        nonlocal pos
        out = _parse_matrix_body(lines[pos:pos + rows], rows, cols, what=what)
        pos += rows
        return out

    expect("MU")
    mu = block(1, d, "MU")[0]
    expect("V")
    v = block(d, n_y, "V")
    expect("W")
    w = block(d, d, "W")
    asym = np.abs(w - w.T).max()
    if asym > 1e-12:
        warnings.warn(f"{path}: W asymmetry {asym:.3e} > 1e-12; re-symmetrizing")
    w = 0.5 * (w + w.T)
    model = SpldaModel(mu=mu, v=v, w=w)
    bayes = None
    if pos < len(lines) and lines[pos] == "BAYES":
        pos += 1
        expect("VT_MEAN")
        vt_mean = block(d, n_y + 1, "VT_MEAN")
        expect("VT_PREC")
        prec = np.stack([block(n_y + 1, n_y + 1, "VT_PREC") for _ in range(d)])
        expect("ALPHA")
        a_prime = float(lines[pos]); pos += 1
        b_prime = block(1, n_y, "ALPHA_B")[0]
        expect("WISHART")
        dof = float(lines[pos]); pos += 1
        k = block(d, d, "WISHART_K")
        expect("HYPER")
        hyper = {}
        while pos < len(lines) and lines[pos].strip():
            key, *vals = lines[pos].split()
            hyper[key] = np.array([float(v) for v in vals]) if len(vals) > 1 \
                else float(vals[0])
            pos += 1
        bayes = dict(vt_mean=vt_mean, vt_prec=prec, a_prime=a_prime,
                     b_prime=b_prime, wishart_dof=dof, wishart_k=k, hyper=hyper)
    _check_tail(path, lines, pos)
    return model, bayes


def read_config(path, known_keys):
    """Flat ``key=value`` config; unknown keys are errors (typo guard)."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known_keys:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = value
    return out


def write_report(path, report, header=None):
    """Run report: '# key value' header lines, then 'iter elbo M kappa' rows."""
    with open(path, "w") as fh:
        for key, value in (header or {}).items():
            fh.write(f"# {key} {value}\n")
        fh.write("# columns iter elbo M kappa\n")
        for it, (elbo, m, kappa) in enumerate(
                zip(report.elbo_trace, report.m_trace, report.kappa_trace)):
            fh.write(f"{it} {_FMT % elbo} {m} {_FMT % kappa}\n")
        for note in report.diagnostics:
            fh.write(f"# note {note}\n")
