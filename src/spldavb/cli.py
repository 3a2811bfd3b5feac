"""Command-line surface: synth | train | adapt | eval | elbo-audit.

Thin shell over the library; every command's behavior equals the
corresponding library call.
"""

import argparse
import functools
import sys
from dataclasses import fields

import numpy as np

from . import fileio
from .adapt import RunConfig, run_adaptation, train_supervised
from .linalg import freeze
from .model import Dataset
from .oracles import clustering_metrics
from .synth import SynthSpec, generate, split_dataset
from .vbpoint import Hyperparams

_BOOL_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def _bool(value):
    return _BOOL_VALUES[str(value).lower()]


_HYPER_KEYS = {"eta", "tau0"}  # Hyperparams fields; the rest are RunConfig
# The config keys with their value parsers: every RunConfig field of a
# scalar type, and the Hyperparams fields in _HYPER_KEYS.
_PARSERS = {
    **{f.name: _bool if f.type is bool else f.type for f in fields(RunConfig)
       if f.type in (bool, int, float, str)},
    **dict.fromkeys(_HYPER_KEYS, float),
}


def _config_from_file(path, overrides):
    """``(RunConfig, Hyperparams)`` from a config file plus overrides."""
    raw = fileio.read_config(path, _PARSERS) if path else {}
    raw.update({k: v for k, v in overrides.items() if v is not None})
    kwargs = {}
    for key, value in raw.items():
        parse = _PARSERS[key]
        try:
            kwargs[key] = parse(value)
        except (KeyError, ValueError):
            expected = "/".join(_BOOL_VALUES) if parse is _bool else parse.__name__
            raise ValueError(f"config key {key}: cannot read {value!r} "
                             f"as {expected}") from None
    hyper = {key: kwargs.pop(key) for key in _HYPER_KEYS & kwargs.keys()}
    return RunConfig(**kwargs), Hyperparams(**hyper)


def cmd_synth(args):
    spec = SynthSpec(d=args.d, n_y=args.ny, m_true=args.speakers,
                     per_speaker=args.per_speaker,
                     eigenvoice_scale=args.eigenvoice_scale,
                     noise_scale=args.noise_scale, seed=args.seed)
    phi, labels, model = generate(spec)
    dataset, true_unsup = split_dataset(phi, labels, args.sup_fraction,
                                        seed=args.seed)
    prefix = args.out_prefix
    fileio.write_matrix(prefix + ".phi", dataset.phi)
    fileio.write_matrix(prefix + ".phi_d", dataset.phi_d)
    fileio.write_labels(prefix + ".labels_d", dataset.labels_d)
    fileio.write_labels(prefix + ".true_labels", true_unsup)
    fileio.write_model(prefix + ".true_model", model)
    print(f"wrote {dataset.phi.shape[0]} unsupervised and "
          f"{dataset.phi_d.shape[0]} supervised i-vectors "
          f"(d={args.d}, {args.speakers} speakers) to {prefix}.*")
    return 0


def cmd_train(args):
    phi_d = freeze(fileio.read_matrix(args.ivectors))
    labels = fileio.read_labels(args.labels)
    report = train_supervised(phi_d, labels, args.ny, seed=args.seed)
    fileio.write_model(args.out_model, report.model)
    if args.trace:
        fileio.write_report(args.trace, report, header={"command": "train"})
    print(f"trained SPLDA (d={report.model.d}, n_y={report.model.n_y}) "
          f"in {len(report.elbo_trace)} iterations, "
          f"final ELBO {report.elbo_trace[-1]:.6f}"
          + ("" if report.converged else ", not converged"))
    return 0


def _adapt(args, **overrides):
    """``run_adaptation`` on the model and data named by the shared input
    options, with ``overrides`` added to their config overrides; returns
    ``(report, config, hyper)``."""
    model, _ = fileio.read_model(args.model)
    dataset = Dataset(phi=freeze(fileio.read_matrix(args.unsup_ivectors)),
                      phi_d=freeze(fileio.read_matrix(args.sup_ivectors)),
                      labels_d=fileio.read_labels(args.sup_labels))
    config, hyper = _config_from_file(args.config, {
        "m_init": args.m_init, "variant": args.variant, "seed": args.seed,
        **overrides})
    return run_adaptation(dataset, model, hyper, config), config, hyper


def cmd_adapt(args):
    report, config, hyper = _adapt(args, eta=args.eta)
    fileio.write_model(args.out_model, report.model,
                       bayes_state=report.bayes_state)
    fileio.write_labels(args.out_labels, report.labels)
    if args.out_report:
        fileio.write_report(args.out_report, report, header={
            "command": "adapt", "variant": config.variant,
            "eta": "%.17g" % hyper.eta, "m_init": config.m_init,
            "seed": config.seed, "converged": report.converged,
        })
    print(f"adapted model: M={report.m_trace[-1]}, "
          f"{len(report.elbo_trace)} iterations, "
          f"final ELBO {report.elbo_trace[-1]:.6f}"
          + ("" if report.converged else ", not converged"))
    return 0


def cmd_eval(args):
    pred = fileio.read_labels(args.pred_labels)
    true = fileio.read_labels(args.true_labels)
    if pred.shape != true.shape:
        print(f"error: label files differ in length "
              f"({pred.size} vs {true.size})", file=sys.stderr)
        return 1
    metrics = clustering_metrics(pred, true)
    print(f"ARI {metrics.ari:.6f}")
    print(f"purity {metrics.purity:.6f}")
    return 0


def cmd_elbo_audit(args):
    report, _, _ = _adapt(args, max_iter=args.sweeps)
    total = 0.0
    for name, value in report.elbo_terms.items():
        print(f"{name:24s} {value:.12f}")
        total += value
    print(f"{'total':24s} {total:.12f}")
    final = report.elbo_trace[-1]
    if not abs(total - final) < 1e-12 * max(1.0, abs(total)):
        print(f"error: the terms sum to {total!r}, the final ELBO is "
              f"{final!r}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="splda",
        description="Semi-supervised variational Bayes adaptation of SPLDA")
    sub = parser.add_subparsers(dest="command", required=True)

    # The options of `adapt` and `elbo-audit` that name the adaptation's inputs.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--model", required=True)
    inputs.add_argument("--sup-ivectors", required=True)
    inputs.add_argument("--sup-labels", required=True)
    inputs.add_argument("--unsup-ivectors", required=True)
    inputs.add_argument("--config")
    inputs.add_argument("--variant", choices=["point", "bayes"])
    inputs.add_argument("--m-init", type=int)
    inputs.add_argument("--seed", type=int)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--speakers", type=int, required=True)
    p.add_argument("--per-speaker", type=int, required=True)
    p.add_argument("--eigenvoice-scale", type=float, default=1.0)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--sup-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="supervised SPLDA training")
    p.add_argument("--ivectors", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-model", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("adapt", parents=[inputs],
                       help="adapt a model on unlabelled data")
    p.add_argument("--eta", type=float)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--out-report")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", help="clustering metrics of predicted labels")
    p.add_argument("--pred-labels", required=True)
    p.add_argument("--true-labels", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("elbo-audit", parents=[inputs],
                       help="per-term lower-bound table")
    p.add_argument("--sweeps", type=int, default=1)
    p.set_defaults(func=cmd_elbo_audit)
    return parser


# The parser is built once per process: building it costs far more than a
# parse, and each tree it builds is cyclic garbage.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
