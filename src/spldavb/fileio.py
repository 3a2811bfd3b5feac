"""Portable text file formats: matrices, models, labels, configs, reports.

All numeric payloads are written with 17 significant digits so finite
doubles round-trip bit-exactly; formats are line-oriented for diff-ability.
"""

import warnings

import numpy as np

from .linalg import check_array, freeze
from .model import SpldaModel

_FMT = "%.17g"
# The HYPER lines of a Bayesian model file, in order; a reader needs each
# exactly once: mu0 with d values, beta with 1 or d, the others with 1.
_HYPER_KEYS = ("tau0", "eta", "a_alpha", "b_alpha", "mu0", "beta")


def _row_format(cols):
    """One ``%`` template for a row of ``cols`` values: a whole row in one
    ``%`` is cheaper than one ``%`` per value and gives the same text."""
    return " ".join([_FMT] * cols)


def _format_row(row):
    vals = np.atleast_1d(row).tolist()
    return _row_format(len(vals)) % tuple(vals)


def _write_rows(fh, x):
    """Write a 2-D array one line per row, all rows through one template."""
    fmt = _row_format(x.shape[1]) + "\n"
    for row in x:
        fh.write(fmt % tuple(row.tolist()))


def write_matrix(path, x):
    """Write a 1-D or 2-D array with an ``IVEC rows cols`` header; a 1-D
    array is one row."""
    x = np.atleast_2d(check_array(x, "x"))
    with open(path, "w") as fh:
        fh.write(f"IVEC {x.shape[0]} {x.shape[1]}\n")
        _write_rows(fh, x)


def _read_header(path, lines, tag, fields):
    """The two non-negative integers of line 1, ``tag a b``."""
    if not lines or not lines[0].startswith(tag + " "):
        raise ValueError(f"{path}: missing {tag} header")
    try:
        a, b = (int(v) for v in lines[0].split()[1:])
    except ValueError:
        a = b = -1
    if a < 0 or b < 0:
        raise ValueError(f"{path}:1: expected '{tag} {fields}' with two "
                         f"non-negative integers, got {lines[0]!r}")
    return a, b


def _parse_matrix_body(path, lines, start, rows, cols, what):
    """Parse ``lines[start:start + rows]`` as a ``rows x cols`` block.

    numpy's C ``loadtxt`` parses a well-formed block.  It skips blank lines
    (and warns if that leaves no data, hence the first-line check) and
    rejects some tokens ``float()`` takes, such as ``1_0``, so on an error
    or a wrong shape the row-wise loop parses the block again.  That loop
    is the one error path: it decides what the readers accept.
    """
    end = start + rows
    if rows and cols and end <= len(lines) and lines[start].strip():
        try:
            body = np.loadtxt(lines[start:end], dtype=float, comments=None,
                              ndmin=2)
        except ValueError:
            pass
        else:
            if body.shape == (rows, cols):
                return body
    body = np.empty((rows, cols))
    for i in range(rows):
        where = f"{path}:{start + i + 1}"
        if start + i >= len(lines):
            raise ValueError(
                f"{where}: file ends in {what}, after {i} of {rows} rows")
        vals = lines[start + i].split()
        if len(vals) != cols:
            raise ValueError(
                f"{where}: {what} row {i} has {len(vals)} values, "
                f"expected {cols}")
        try:
            body[i] = vals  # numpy parses the strings, correctly rounded
        except ValueError as exc:
            raise ValueError(f"{where}: {what} row {i}: {exc}") from None
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
    rows, cols = _read_header(path, lines, "IVEC", "rows cols")
    if len(lines) - 1 < rows:
        raise ValueError(f"{path}: declared {rows} rows, found {len(lines) - 1}")
    body = _parse_matrix_body(path, lines, 1, rows, cols, "matrix")
    _check_tail(path, lines, rows + 1)
    return body


def write_labels(path, labels):
    """One integer label per line; a label that is not an integer, such
    as 0.5, raises a ValueError and is never truncated."""
    labels = check_array(labels, "labels").tolist()
    with open(path, "w") as fh:
        fh.write("".join([f"{l}\n" for l in labels]))


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


def _sections(d, n_y):
    """The blocks of a ``d x n_y`` model file, as ``(tag, name, rows,
    cols)``: the model's, then the BAYES section's, each in file order.
    A block follows the line ``tag``, or the block before it when ``tag``
    is None; the reader's messages call it ``name``."""
    k = n_y + 1
    return ((("MU", "MU", 1, d), ("V", "V", d, n_y), ("W", "W", d, d)),
            (("VT_MEAN", "VT_MEAN", d, k), ("VT_PREC", "VT_PREC", d * k, k),
             ("ALPHA", "ALPHA", 1, 1), (None, "ALPHA_B", 1, n_y),
             ("WISHART", "WISHART", 1, 1), (None, "WISHART_K", d, d)))


def _write_blocks(fh, sections, values):
    """Write each of ``values`` as the block of ``sections`` it pairs with."""
    for (tag, _, rows, cols), x in zip(sections, values):
        if tag:
            fh.write(tag + "\n")
        _write_rows(fh, np.reshape(x, (rows, cols)))


def write_model(path, model, bayes_state=None):
    """Write a model file; the optional BAYES section carries the
    parameter posteriors the run holds, at its last kappa, and the
    hyperparameters of the Bayesian variant."""
    model_sections, bayes_sections = _sections(model.d, model.n_y)
    with open(path, "w") as fh:
        fh.write(f"SPLDA {model.d} {model.n_y}\n")
        _write_blocks(fh, model_sections, (model.mu, model.v, model.w))
        if bayes_state is not None:
            rowpost, alphapost, wpost, hyper = (bayes_state[key] for key in (
                "rowpost", "alphapost", "wpost", "hyper"))
            fh.write("BAYES\n")
            _write_blocks(fh, bayes_sections, (
                rowpost.mean, rowpost.prec, alphapost.a_prime,
                alphapost.b_prime, wpost.dof, wpost.k))
            fh.write("HYPER\n")
            for key in _HYPER_KEYS:
                value = np.asarray(getattr(hyper, key), dtype=float)
                fh.write(f"{key} {_format_row(value)}\n")


def read_model(path):
    """Read a model file; returns ``(model, bayes_dict_or_None)``.  Only
    blank lines may follow the last section."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    d, n_y = _read_header(path, lines, "SPLDA", "d n_y")
    model_sections, bayes_sections = _sections(d, n_y)
    pos = 1

    def expect(tag):
        nonlocal pos
        if pos >= len(lines) or lines[pos] != tag:
            raise ValueError(f"{path}: expected section {tag!r} at line {pos + 1}")
        pos += 1

    def blocks(sections):
        nonlocal pos
        out = []
        for tag, name, rows, cols in sections:
            if tag:
                expect(tag)
            out.append(_parse_matrix_body(path, lines, pos, rows, cols, name))
            pos += rows
        return out

    mu, v, w = blocks(model_sections)
    asym = np.abs(w - w.T).max()
    if asym > 1e-12:
        warnings.warn(f"{path}: W asymmetry {asym:.3e} > 1e-12; re-symmetrizing")
    model = SpldaModel(mu=freeze(mu[0]), v=freeze(v), w=w)  # which symmetrizes W
    bayes = None
    if pos < len(lines) and lines[pos] == "BAYES":
        pos += 1
        vt_mean, prec, a_prime, b_prime, dof, k = blocks(bayes_sections)
        expect("HYPER")
        hyper = {}
        while pos < len(lines) and lines[pos].strip():
            where = f"{path}:{pos + 1}: HYPER"
            key, *vals = lines[pos].split()
            if key not in _HYPER_KEYS:
                raise ValueError(f"{where} has unknown key {key!r}")
            if key in hyper:
                raise ValueError(f"{where} repeats {key}")
            try:
                vals = [float(v) for v in vals]
            except ValueError as exc:
                raise ValueError(f"{where} {key}: {exc}") from None
            sizes = {"mu0": [d], "beta": sorted({1, d})}.get(key, [1])
            if len(vals) not in sizes:
                raise ValueError(f"{where} {key} has {len(vals)} values, expected "
                                 + " or ".join(map(str, sizes)))
            hyper[key] = np.array(vals) if len(vals) > 1 else vals[0]
            pos += 1
        missing = [key for key in _HYPER_KEYS if key not in hyper]
        if missing:
            raise ValueError(f"{path}:{pos + 1}: HYPER lacks "
                             f"{' '.join(missing)}")
        bayes = dict(vt_mean=vt_mean, vt_prec=prec.reshape(d, n_y + 1, n_y + 1),
                     a_prime=float(a_prime[0, 0]), b_prime=b_prime[0],
                     wishart_dof=float(dof[0, 0]), wishart_k=k, hyper=hyper)
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
