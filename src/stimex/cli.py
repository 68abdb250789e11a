"""Command-line interface for the full pipeline.

Subcommands: validate, stats, clauses extract, clauses eval, split, train,
predict, eval, errors, report.  Predictions are stored under ``pred_iob`` /
``pred_clauses`` and never overwrite gold fields.  All randomness is driven
by explicit seeds, so identical invocations produce identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path
from typing import Sequence

from stimex import models
from stimex.clause_extract import DEFAULT_CLAUSE_LABELS, extract_clauses
from stimex.corpus import (
    ClauseAnnotation,
    CorpusError,
    Instance,
    compute_stats,
    csv_text,
    format_stats_csv,
    iob_to_spans,
    load_corpus,
    read_text,
    save_corpus,
    split_corpus,
)
from stimex.error_analysis import classify_corpus, format_errors_csv
from stimex.evaluation import (
    MatchMode,
    SPAN_MODES,
    clause_alignment,
    clause_match_prf,
    clause_prf,
    format_eval_csv,
    span_prf,
)
from stimex.mapping import clauses_to_tokens, tokens_to_clauses
from stimex.parsetree import BracketParseError, ConstTree, parse_bracket


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _by_dataset(instances: Sequence[Instance]) -> dict[str, list[Instance]]:
    groups: dict[str, list[Instance]] = {}
    for inst in instances:
        groups.setdefault(inst.dataset, []).append(inst)
    return groups


def _trees_for(instances: Sequence[Instance], trees_path: str | None) -> list[ConstTree]:
    """One tree per instance, from a line-aligned sidecar file or the parse field."""
    if trees_path:
        lines = [ln for ln in read_text(trees_path).splitlines() if ln.strip()]
        if len(lines) != len(instances):
            raise CorpusError(
                f"{trees_path} holds {len(lines)} trees for {len(instances)} instances"
            )
        sources = lines
    else:
        sources = []
        for inst in instances:
            if inst.parse is None:
                raise CorpusError(f"instance {inst.id!r} has no parse and no --trees file given")
            sources.append(inst.parse)
    trees = []
    for inst, text in zip(instances, sources):
        try:
            tree = parse_bracket(text)
        except BracketParseError as exc:
            raise CorpusError(f"instance {inst.id!r}: {exc}") from None
        if tree.end != len(inst.tokens):
            raise CorpusError(
                f"instance {inst.id!r}: tree has {tree.end} leaves "
                f"but the instance has {len(inst.tokens)} tokens"
            )
        trees.append(tree)
    return trees


def _pred_iob(inst: Instance) -> list[str]:
    """Token-level predictions, mapped from clause predictions if needed."""
    if inst.pred_iob is not None:
        return inst.pred_iob
    if inst.pred_clauses is not None:
        return clauses_to_tokens(
            [c.is_stimulus for c in inst.pred_clauses],
            [c.span for c in inst.pred_clauses],
            len(inst.tokens),
        )
    raise CorpusError(f"instance {inst.id!r} has no predictions (pred_iob or pred_clauses)")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    instances = load_corpus(args.corpus)
    print(f"ok: {len(instances)} instances")
    return 0


def cmd_stats(args) -> int:
    instances = load_corpus(args.corpus)
    stats = {name: compute_stats(group) for name, group in _by_dataset(instances).items()}
    _emit(format_stats_csv(stats), args.out)
    return 0


def _clause_labels(args) -> frozenset[str]:
    if args.labels is None:
        return DEFAULT_CLAUSE_LABELS
    if labels := frozenset(lab.strip() for lab in args.labels.split(",")) - {""}:
        return labels
    raise ValueError(f"--labels {args.labels!r} names no clause label")


def cmd_clauses_extract(args) -> int:
    labels = _clause_labels(args)
    instances = load_corpus(args.corpus)
    trees = _trees_for(instances, args.trees)
    for inst, tree in zip(instances, trees):
        segs = extract_clauses(tree, labels, join=not args.no_join)
        inst.clauses = [ClauseAnnotation(sp, False) for sp in segs.segments]
    save_corpus(instances, args.out)
    print(f"wrote {len(instances)} instances with extracted clauses to {args.out}")
    return 0


CLAUSE_EVAL_COLUMNS = (
    "dataset", "stimuli", "anno_exact", "anno_left", "anno_right",
    "extract_precision", "extract_recall", "extract_f1",
    "extr_exact", "extr_left", "extr_right",
)


def cmd_clauses_eval(args) -> int:
    labels = _clause_labels(args)
    instances = load_corpus(args.corpus)
    pairs: dict[str, list[tuple[Instance, ConstTree]]] = {}
    for inst, tree in zip(instances, _trees_for(instances, args.trees)):
        pairs.setdefault(inst.dataset, []).append((inst, tree))
    rows = []
    for name, group in sorted(pairs.items()):
        stimuli = [inst.stimulus_spans() for inst, _ in group]
        annotated = [models.clause_spans(inst) for inst, _ in group]
        extracted = [list(extract_clauses(tree, labels).segments) for _, tree in group]
        anno = clause_alignment(stimuli, annotated)
        match = clause_match_prf(extracted, annotated)
        extr = clause_alignment(stimuli, extracted)
        rows.append(
            [name, anno.n_stimuli, anno.exact, anno.left, anno.right]
            + [match.precision, match.recall, match.f1, extr.exact, extr.left, extr.right]
        )
    _emit(csv_text(CLAUSE_EVAL_COLUMNS, rows), args.out)
    return 0


def cmd_split(args) -> int:
    instances = load_corpus(args.corpus)
    _by_id(instances, args.corpus)
    train, dev, test = split_corpus(instances, args.seed)
    payload = {
        "seed": args.seed,
        "train": [i.id for i in train],
        "dev": [i.id for i in dev],
        "test": [i.id for i in test],
    }
    Path(args.out).write_text(json.dumps(payload), encoding="utf-8")
    print(f"split {len(instances)} instances into {len(train)}/{len(dev)}/{len(test)}")
    return 0


def _read_json(path: str, what: str):
    text = read_text(path)  # before the try, so bytes that do not decode are named as such
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise CorpusError(f"{path}: {what} is not valid JSON: {exc}") from None


def _read_splits(path: str) -> dict:
    """The split file's id lists; an id may appear in only one place."""
    payload = _read_json(path, "split file")
    if not isinstance(payload, dict):
        raise CorpusError(f"{path}: split file must be a JSON object")
    seen: dict[str, str] = {}
    for key in ("train", "dev", "test"):
        if key not in payload:
            raise CorpusError(f"{path}: split file is missing the {key!r} id list")
        ids = payload[key]
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise CorpusError(f"{path}: {key!r} must be a list of instance id strings")
        for i in ids:
            if i in seen:
                raise CorpusError(
                    f"{path}: instance id {i!r} is listed twice (in {seen[i]!r} and {key!r})"
                )
            seen[i] = key
    return payload


def _by_id(instances: Sequence[Instance], path: str) -> dict[str, Instance]:
    """The corpus's instances by id; ids must be unique to select by them."""
    by_id: dict[str, Instance] = {}
    for inst in instances:
        if inst.id in by_id:
            raise CorpusError(f"{path}: instance id {inst.id!r} appears more than once")
        by_id[inst.id] = inst
    return by_id


def _select(by_id: dict[str, Instance], ids: Sequence[str], path: str) -> list[Instance]:
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise CorpusError(f"{path}: split references unknown instance ids: {missing[:5]}")
    return [by_id[i] for i in ids]


def _load_config(args, **defaults) -> models.TrainConfig:
    """The config file's values over ``defaults``, then ``--seed``."""
    values = _read_json(args.config, "training config") if args.config else {}
    if not isinstance(values, dict):
        raise CorpusError(f"{args.config}: training config must be a JSON object")
    try:
        config = models.TrainConfig.from_dict({**defaults, **values})
    except ValueError as exc:
        raise CorpusError(f"{args.config}: {exc}") from None
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)  # flags beat the config file
    return config


def cmd_train(args) -> int:
    by_id = _by_id(load_corpus(args.corpus), args.corpus)
    splits = _read_splits(args.splits)
    train_insts = _select(by_id, splits["train"], args.splits)
    dev_insts = _select(by_id, splits["dev"], args.splits)
    for key in ("train", "dev"):
        if not splits[key]:
            raise CorpusError(f"{args.splits}: the {key!r} id list is empty")
    if args.embeddings:
        embeddings = models.EmbeddingTable.load_text(args.embeddings)
        config = _load_config(args, embedding_dim=embeddings.dim)
        if config.embedding_dim != embeddings.dim:
            raise CorpusError(
                f"{args.config}: embedding_dim {config.embedding_dim} does not match the"
                f" {embeddings.dim} components per vector of {args.embeddings}"
            )
    else:
        config = _load_config(args)
        embeddings = models.EmbeddingTable.random(
            models.vocabulary(train_insts), config.embedding_dim, config.seed
        )
    trained = models.train(args.arch, train_insts, dev_insts, embeddings, config)
    models.save_checkpoint(trained, args.checkpoint)
    best = max(h["dev_metric"] for h in trained.history)
    print(
        f"trained {args.arch} for {len(trained.history)} epochs "
        f"(best dev {config.selection_metric} {best:.4f}); checkpoint at {args.checkpoint}"
    )
    return 0


def cmd_predict(args) -> int:
    if args.subset and not args.splits:
        raise CorpusError(f"{args.corpus}: --subset {args.subset} needs --splits")
    instances = load_corpus(args.corpus)
    if args.splits:
        splits = _read_splits(args.splits)
        if args.subset in (None, "all"):
            ids = splits["train"] + splits["dev"] + splits["test"]
        else:
            ids = splits[args.subset]
        instances = _select(_by_id(instances, args.corpus), ids, args.splits)
    model = models.load_checkpoint(args.checkpoint).model
    for inst, labels in zip(instances, model.predict(instances)):
        model.store_prediction(inst, labels)
    save_corpus(instances, args.out)
    print(f"wrote predictions for {len(instances)} instances to {args.out}")
    return 0


def cmd_eval(args) -> int:
    instances = load_corpus(args.corpus)
    modes = list(SPAN_MODES) + [MatchMode.CLAUSE] if args.mode == "all" else [MatchMode(args.mode)]
    rows = []
    for name, group in sorted(_by_dataset(instances).items()):
        gold_spans = [inst.stimulus_spans() for inst in group]
        pred_iob = [_pred_iob(inst) for inst in group]
        pred_spans = [iob_to_spans(iob) for iob in pred_iob]
        for mode in modes:
            if mode is MatchMode.CLAUSE:
                gold_flags = [models.clause_gold_flags(inst) for inst in group]
                pred_flags = [
                    tokens_to_clauses(iob, models.clause_spans(inst))
                    for inst, iob in zip(group, pred_iob)
                ]
                rows.append((name, args.model, mode, clause_prf(pred_flags, gold_flags)))
            else:
                rows.append((name, args.model, mode, span_prf(pred_spans, gold_spans, mode)))
    _emit(format_eval_csv(rows), args.out)
    return 0


def cmd_errors(args) -> int:
    instances = load_corpus(args.corpus)
    counts = {}
    for name, group in sorted(_by_dataset(instances).items()):
        gold = [inst.stimulus_spans() for inst in group]
        pred = [iob_to_spans(_pred_iob(inst)) for inst in group]
        counts[f"{args.model}/{name}"] = classify_corpus(gold, pred)
    _emit(format_errors_csv(counts), args.out)
    return 0


def _markdown_table(text: str, path: str) -> str:
    """The CSV ``text`` of ``path`` as a Markdown table, one line per row, with ``|``
    escaped and line breaks as spaces; a row the CSV reader refuses, or one whose
    cells differ in number from the header's, raises ``ValueError`` naming its line."""
    reader = csv.reader(io.StringIO(text))
    rows: list[list[str]] = []
    try:
        for row in filter(None, reader):  # blank lines are skipped
            if rows and len(row) != len(rows[0]):
                raise csv.Error(f"{len(row)} cells, but the header has {len(rows[0])}")
            rows.append([c.replace("|", r"\|").replace("\n", " ") for c in row])
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        return "(empty)\n"
    widths = [max(map(len, column)) for column in zip(*rows)]
    out = []
    for k, row in enumerate(rows):
        cells = [c.ljust(w) for c, w in zip(row, widths)]
        out.append("| " + " | ".join(cells) + " |")
        if k == 0:
            out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(out) + "\n"


def cmd_report(args) -> int:
    sections = []
    for title, path in (
        ("Corpus statistics", args.stats),
        ("Evaluation", args.eval),
        ("Error analysis", args.errors),
    ):
        if path:
            sections.append(f"## {title}\n\n{_markdown_table(read_text(path), path)}")
    report = "# Stimulus detection report\n\n" + "\n".join(sections)
    Path(args.out).write_text(report, encoding="utf-8")
    print(f"wrote report to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stimex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus file against the format")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="corpus statistics per dataset")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("clauses", help="clause extraction and its evaluation")
    clauses_sub = p.add_subparsers(dest="clauses_command", required=True)

    pe = clauses_sub.add_parser("extract", help="write extracted clause spans into the corpus")
    pe.add_argument("--corpus", required=True)
    pe.add_argument("--trees", help="line-aligned sidecar file of bracketed trees")
    pe.add_argument("--labels", help="comma-separated clause node labels")
    pe.add_argument("--no-join", action="store_true", help="skip the segment join loop")
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=cmd_clauses_extract)

    pv = clauses_sub.add_parser("eval", help="alignment of stimuli and extraction vs annotation")
    pv.add_argument("--corpus", required=True)
    pv.add_argument("--trees")
    pv.add_argument("--labels")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_clauses_eval)

    p = sub.add_parser("split", help="write a deterministic 80/10/10 split id file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--arch", choices=list(models.ARCHITECTURES), required=True)
    p.add_argument("--embeddings", help="text embedding file; random table when omitted")
    p.add_argument("--config", help="JSON file mirroring TrainConfig fields")
    p.add_argument("--seed", type=_seed, help="overrides the config file seed")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="store model predictions in a corpus copy")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--splits")
    p.add_argument("--subset", choices=["train", "dev", "test", "all"], help="which --splits list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate stored predictions")
    p.add_argument("--corpus", required=True)
    p.add_argument(
        "--mode",
        choices=[m.value for m in MatchMode] + ["all"],
        default="all",
    )
    p.add_argument("--model", default="model", help="model name written into the rows")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("errors", help="boundary-error taxonomy counts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", default="model")
    p.add_argument("--out")
    p.set_defaults(func=cmd_errors)

    p = sub.add_parser("report", help="combine CSV outputs into a Markdown report")
    p.add_argument("--stats")
    p.add_argument("--eval")
    p.add_argument("--errors")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # CorpusError and BracketParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
