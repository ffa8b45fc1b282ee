"""Command-line entry point: gen-corpus, train, recognize, eval, inspect."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .documents import CorpusError, DocumentInstance, load_corpus, save_corpus, write_json
from .evaluation import build_report, evaluate_tnn, render_report, report_to_dict, verdict
from .generator import CLASSES, GenSpec, Noise, generate
from .mlp import MlpModel, load_mlp, save_mlp, train_mlp
from .network import ModelFormatError, TnnModel, load_model, save_model, train_tnn
from .recognizer import RecognitionResult, RecognizerParams, recognize
from .topology import Hyperparams, NetworkConfig, TopologyError, default_config, load_config

ERROR_PREFIX = "error:"


def _fail(message: str) -> int:
    print(f"{ERROR_PREFIX} {message}", file=sys.stderr)
    return 1


def _counts(text: str) -> dict[str, int]:
    parts = text.split(",")
    if len(parts) != len(CLASSES):
        raise argparse.ArgumentTypeError(f"expected {len(CLASSES)} comma-separated counts")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"counts must be integers: {exc}") from exc
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("counts must be non-negative")
    return dict(zip(CLASSES, values))


def _load_config_arg(path: str | None) -> NetworkConfig:
    return load_config(path) if path else default_config()


def _recognizer_params(args: argparse.Namespace) -> RecognizerParams:
    return RecognizerParams(**{f.name: getattr(args, f.name) for f in fields(RecognizerParams)})


def _add_field_flags(parser: argparse.ArgumentParser, params: type,
                     keep_defaults: bool = True) -> None:
    # each field of the params dataclass has a flag of its name, typed by the field's
    # default and defaulting to it, or to None when the flag is only an override
    for f in fields(params):
        parser.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                            default=f.default if keep_defaults else None)


def _pick_document(docs: list[DocumentInstance], doc_id: str | None) -> DocumentInstance:
    if doc_id is not None:
        for doc in docs:
            if doc.id == doc_id:
                return doc
        raise CorpusError(f"document id '{doc_id}' not found")
    if len(docs) == 1:
        return docs[0]
    if not docs:
        raise CorpusError("corpus holds no documents")
    raise CorpusError(f"corpus holds {len(docs)} documents; pass --id to pick one")


def _recognize_picked(args: argparse.Namespace) -> tuple[DocumentInstance, RecognitionResult]:
    """Load the model and corpus, pick one document and recognize it."""
    params = _recognizer_params(args)
    model = load_model(args.model)
    doc = _pick_document(load_corpus(args.doc, model.topology), args.id)
    return doc, recognize(model, doc, params)


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    noise = Noise(jitter=args.jitter, drop_rate=args.drop, distort_rate=args.distort)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for split, counts, seed_offset in (
        ("train", args.train, 0),
        ("test", args.test, 1),
    ):
        spec = GenSpec(seed=args.seed + seed_offset, counts=counts, noise=noise)
        docs = generate(spec)
        path = out_dir / f"{split}.json"
        save_corpus(docs, path)
        summary = ", ".join(f"{counts[c]} {c}" for c in CLASSES)
        print(f"{split}: wrote {len(docs)} documents ({summary}) to {path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    # a Hyperparams flag left out keeps the config's value
    overrides = {f.name: getattr(args, f.name) for f in fields(Hyperparams)
                 if getattr(args, f.name) is not None}
    config = replace(config, hyperparams=replace(config.hyperparams, **overrides))
    docs = load_corpus(args.corpus, config.topology)
    if args.network == "tnn":
        model = TnnModel.create(config, seed=args.seed)
        summary = train_tnn(model, docs)
        save_model(model, args.out)
        stats = " ".join(
            f"nn1[{i}]: epochs={s.epochs} mse={s.final_mse:.5f}"
            for i, s in enumerate(summary.stats)
        )
        print(
            f"trained tnn on {len(docs)} documents; {stats}; "
            f"update passes={summary.total_update_passes}; wrote {args.out}"
        )
        # the trained cascade on its own corpus, with the default thresholds
        missed = [doc.id for doc, result in zip(docs, evaluate_tnn(model, docs), strict=True)
                  if verdict(result) != doc.labels.document_class]
        print(f"training corpus: {len(docs) - len(missed)}/{len(docs)} recognized; "
              f"missed: {', '.join(missed) if missed else 'none'}")
    else:
        model = MlpModel.create(config, seed=args.seed)
        stats = train_mlp(model, docs)
        save_mlp(model, args.out)
        print(
            f"trained mlp on {len(docs)} documents; epochs={stats.epochs} "
            f"mse={stats.final_mse:.5f} backward passes={stats.backward_passes}; "
            f"wrote {args.out}"
        )
    return 0


def cmd_recognize(args: argparse.Namespace) -> int:
    _, result = _recognize_picked(args)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    params = _recognizer_params(args)
    tnn_model = load_model(args.tnn)
    mlp_model = load_mlp(args.mlp) if args.mlp else None
    test_docs = load_corpus(args.test, tnn_model.topology)
    report = build_report(tnn_model, test_docs, params, mlp_model=mlp_model)
    print(render_report(report), end="")
    if args.json_out:
        write_json(report_to_dict(report), args.json_out)
        print(f"wrote {args.json_out}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    doc, result = _recognize_picked(args)
    print(f"document: {doc.id}")
    for number, record in enumerate(result.passes, start=1):
        print(f"pass {number}:")
        raised = {n: lvl for n, lvl in record.levels.items() if lvl > 1}
        print(f"  levels raised: {raised if raised else 'none'}")
        docs_ranked = sorted(record.trace.documents.items(), key=lambda kv: -kv[1])
        ranked = ", ".join(f"{n}={v:.3f}" for n, v in docs_ranked)
        print(f"  class votes: {ranked}")
        if record.blamed:
            print(f"  blamed for refinement: {', '.join(record.blamed)}")
    print(f"status: {result.status}")
    if result.winning_class:
        print(f"class: {result.winning_class} (confidence {result.confidence:.3f}, "
              f"margin {result.margin:.3f})")
    else:
        print(f"confidence {result.confidence:.3f}, margin {result.margin:.3f}")
    if result.structures:
        shown = ", ".join(
            f"{s.name}={s.activation:.3f}{'*' if s.linked_to_winner else ''}"
            for s in result.structures
        )
        print(f"structures (* = votes for winner): {shown}")
    else:
        print("structures: none above threshold")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doctnn",
        description="Recognize administrative document classes and structure "
        "from token layouts.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="write synthetic train/test corpus files",
                       allow_abbrev=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", type=_counts, default="40,36,26",
                   help=f"{','.join(CLASSES)} counts")
    p.add_argument("--test", type=_counts, default="120,90,40")
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--drop", type=float, default=0.0)
    p.add_argument("--distort", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="train a model on a labeled corpus",
                       allow_abbrev=False)
    p.add_argument("network", choices=("tnn", "mlp"))
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_field_flags(p, Hyperparams, keep_defaults=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("recognize", help="classify one document and print the result",
                       allow_abbrev=False)
    p.add_argument("--model", required=True)
    p.add_argument("--doc", required=True, help="corpus file holding the document")
    p.add_argument("--id", default=None)
    _add_field_flags(p, RecognizerParams)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("eval", help="evaluate trained models on a test corpus",
                       allow_abbrev=False)
    p.add_argument("--tnn", required=True)
    p.add_argument("--mlp", default=None)
    p.add_argument("--test", required=True)
    p.add_argument("--json-out", default=None)
    _add_field_flags(p, RecognizerParams)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="show the pass-by-pass trace for one document",
                       allow_abbrev=False)
    p.add_argument("--model", required=True)
    p.add_argument("--doc", required=True)
    p.add_argument("--id", default=None)
    _add_field_flags(p, RecognizerParams)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, TopologyError, ModelFormatError, ValueError) as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"{exc}")


if __name__ == "__main__":
    sys.exit(main())
