"""Every array a caller hands to the public API is checked by one table,
``linalg._ARRAYS``: its kind, its number of dimensions and its condition,
with a ``ValueError`` whose message starts with the argument's name."""

import numpy as np
import pytest

from spldavb import (Dataset, RunConfig, SpldaModel, clustering_metrics, fileio,
                     pairwise_llr, split_dataset, train_supervised)
from spldavb.linalg import _ARRAYS, check_array

D = 3


def _model(**arrays):
    """A valid d = 3, n_y = 2 model, with ``arrays`` in place of its own."""
    given = dict(mu=np.zeros(D), v=np.ones((D, 2)), w=np.eye(D))
    given.update(arrays)
    return SpldaModel(**given)


def _labelled(n=8):
    """``n`` supervised i-vectors of two speakers, and their labels."""
    return (np.random.default_rng(0).standard_normal((n, D)),
            np.arange(n) % 2)


def _with_nan(array, index):
    array = np.array(array, dtype=float)
    array[index] = np.nan
    return array


def _model_file_with_nan(path):
    fileio.write_model(path, _model())
    text = path.read_text().splitlines()
    text[text.index("MU") + 1] = "0 nan 0"
    path.write_text("\n".join(text) + "\n")
    return fileio.read_model(path)


# Each input was accepted before the table, read as other numbers or
# failed with a message that named no argument.
PROBES = {
    "train_supervised bool phi_d": (
        lambda tmp: train_supervised(_labelled()[0] > 0, _labelled()[1], n_y=1),
        "phi_d must hold real numbers"),
    "train_supervised string phi_d": (
        lambda tmp: train_supervised(_labelled()[0].astype(str), _labelled()[1],
                                     n_y=1),
        "phi_d must hold real numbers"),
    "train_supervised bool labels_d": (
        lambda tmp: train_supervised(_labelled()[0], _labelled()[1] == 1, n_y=1),
        "labels_d must hold real numbers"),
    "Dataset bool labels_d": (
        lambda tmp: Dataset(phi=np.zeros((0, 2)), phi_d=np.ones((2, 2)),
                            labels_d=np.array([True, False])),
        "labels_d must hold real numbers"),
    "Dataset string labels_d": (
        lambda tmp: Dataset(phi=np.zeros((0, 2)), phi_d=np.ones((2, 2)),
                            labels_d=np.array(["0", "1"])),
        "labels_d must hold real numbers"),
    "split_dataset bool labels": (
        lambda tmp: split_dataset(np.ones((4, 2)),
                                  np.array([True, False, True, False]), 0.5),
        "labels must hold real numbers"),
    "clustering_metrics bool labels": (
        lambda tmp: clustering_metrics(np.array([True, False, True]),
                                       np.array([0, 1, 0])),
        "pred_labels must hold real numbers"),
    "clustering_metrics string labels": (
        lambda tmp: clustering_metrics([0, 1, 0], np.array(["0", "1", "0"])),
        "true_labels must hold real numbers"),
    "write_labels bool": (
        lambda tmp: fileio.write_labels(tmp / "l.labels",
                                        np.array([True, False])),
        "labels must hold real numbers"),
    "write_matrix bool": (
        lambda tmp: fileio.write_matrix(tmp / "m.ivec", np.eye(2, dtype=bool)),
        "x must hold real numbers"),
    "write_matrix string": (
        lambda tmp: fileio.write_matrix(tmp / "m.ivec", np.array([["1", "2"]])),
        "x must hold real numbers"),
    "pairwise_llr bool": (
        lambda tmp: pairwise_llr(_model(), np.ones(D, bool), np.ones(D)),
        "phi_a must hold real numbers"),
    "pairwise_llr string": (
        lambda tmp: pairwise_llr(_model(), np.ones(D), np.array(["1"] * D)),
        "phi_b must hold real numbers"),
    "SpldaModel NaN mu": (
        lambda tmp: _model(mu=_with_nan(np.zeros(D), 1)),
        "mu must be finite, got nan"),
    "SpldaModel infinite v": (
        lambda tmp: _model(v=np.full((D, 2), np.inf)),
        "v must be finite, got inf"),
    "SpldaModel NaN w": (
        lambda tmp: _model(w=_with_nan(np.eye(D), (0, 1))),
        "w must be finite, got nan"),
    "SpldaModel (d, 1) mu": (
        lambda tmp: _model(mu=np.zeros((D, 1))),
        "mu must be 1-D, got shape (3, 1)"),
    "read_model NaN mu": (
        lambda tmp: _model_file_with_nan(tmp / "m.splda"),
        "mu must be finite, got nan"),
    "Dataset 3-D phi": (
        lambda tmp: Dataset(phi=np.ones((2, 2, 2)), phi_d=np.zeros((0, 2)),
                            labels_d=[]),
        "phi must be 1-D or 2-D, got shape (2, 2, 2)"),
    "RunConfig fractional oracle_labels": (
        lambda tmp: RunConfig(init_method="oracle", oracle_labels=[0.5, 1.0]),
        "oracle_labels must be integers, got 0.5"),
}


@pytest.mark.parametrize("probe", PROBES)
def test_caller_array_is_checked_by_the_table(tmp_path, probe):
    call, message = PROBES[probe]
    with pytest.raises(ValueError) as info:
        call(tmp_path)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("name, size", [("phi_a", D + 1), ("phi_b", D - 1)])
def test_pairwise_llr_names_a_vector_of_the_wrong_length(name, size):
    pair = {"phi_a": np.ones(D), "phi_b": np.ones(D)}
    pair[name] = np.ones(size)
    with pytest.raises(ValueError, match=rf"^{name} has {size} entries; "
                                         rf"expected the model's d = {D}"):
        pairwise_llr(_model(), **pair)


@pytest.mark.parametrize("name", sorted(_ARRAYS))
@pytest.mark.parametrize("dtype", [bool, str, object, complex])
def test_no_kind_takes_bools_strings_objects_or_complex(name, dtype):
    dims = _ARRAYS[name][1]
    with pytest.raises(ValueError, match=f"^{name} must hold real numbers"):
        check_array(np.ones((1,) * max(dims), dtype=dtype), name)
