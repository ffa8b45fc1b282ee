import json
from pathlib import Path

import pytest

from doctnn import GenSpec, Noise, generate, save_corpus
from doctnn.cli import main
from doctnn.generator import DESK_MODEL_SEED
from doctnn.topology import config_to_dict, default_config, save_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small end-to-end working directory: corpora plus trained models."""
    root = tmp_path_factory.mktemp("cli")
    (root / "list.json").write_text("[]")
    assert main([
        "gen-corpus", "--seed", "7", "--train", "6,6,6", "--test", "8,8,8",
        "--out", str(root),
    ]) == 0
    assert main([
        "train", "tnn", "--corpus", str(root / "train.json"),
        "--seed", "3", "--out", str(root / "tnn.model"),
    ]) == 0
    assert main([
        "train", "mlp", "--corpus", str(root / "train.json"),
        "--seed", "3", "--max-epochs", "200", "--out", str(root / "mlp.model"),
    ]) == 0
    write_broken_files(root)
    return root


DROP = object()


def write_broken_files(root):
    """Model and config files with a missing key or a bad value, for the error rows."""
    def broken(source, name, path, value=DROP):
        payload = json.loads((root / source).read_text())
        *parents, last = path
        node = payload
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
        # json.dumps writes NaN as a bare literal, which json.loads reads back
        (root / name).write_text(json.dumps(payload))

    nets = "layer_networks"
    broken("tnn.model", "no_config.json", ("config",))
    broken("tnn.model", "no_weights.json", (nets, 0, "weights"))
    broken("tnn.model", "no_inputs.json", (nets, 2, "inputs"))
    broken("tnn.model", "no_epochs.json", ("training", "stats", 0, "epochs"))
    broken("tnn.model", "no_kind.json", ("config", "extractors", "code_area", "kind"))
    broken("tnn.model", "nan_weight.json", (nets, 0, "weights", 0, 0), float("nan"))
    broken("tnn.model", "inf_threshold.json", (nets, 1, "thresholds", 0), float("inf"))
    broken("mlp.model", "mlp_no_biases.json", ("layers", 1, "biases"))
    broken("mlp.model", "mlp_nan_bias.json", ("layers", 2, "biases", 0), float("nan"))
    broken("mlp.model", "mlp_no_passes.json", ("training", "backward_passes"))
    (root / "config.json").write_text(json.dumps(config_to_dict(default_config())))
    align_tol = ("extractors", "horizontal_alignment", "params", "align_tol")
    broken("config.json", "tol_nan.json", align_tol, float("nan"))
    broken("config.json", "tol_negative.json", align_tol, -1)
    broken("config.json", "tol_text.json", align_tol, "abc")
    broken("config.json", "extractors_list.json", ("extractors",), [])
    broken("config.json", "kind_list.json", ("extractors", "code_area", "kind"), [])
    broken("config.json", "links_numbers.json", ("links",), [1, 2])
    broken("config.json", "layers_number.json", ("layers",), {"elements": 5})
    broken("config.json", "hyperparams_list.json", ("hyperparams",), [])
    broken("test.json", "id_list.json", ("documents", 0, "id"), [])
    broken("test.json", "text_object.json", ("documents", 0, "tokens", 0, "text"), {"a": 1})
    broken("tnn.model", "seed_fraction.json", ("seed",), 2.9)
    broken("tnn.model", "seed_negative.json", ("seed",), -1)
    broken("config.json", "epochs_fraction.json", ("hyperparams", "max_epochs"), 2.5)
    broken("tnn.model", "version_true.json", ("format_version",), True)
    broken("config.json", "extra_spec.json", ("extractors", "extra_one"),
           {"kind": "date_indicator"})
    (root / "empty.json").write_text(json.dumps({"documents": []}))
    # a baseline whose class layer names "notice" where the network has "letter"
    renamed = (root / "mlp.model").read_text().replace('"letter"', '"notice"')
    (root / "mlp_other_classes.json").write_text(renamed)
    broken("tnn.model", "no_stats.json", ("training", "stats"), [])
    broken("tnn.model", "counts_other_class.json", ("training", "class_counts"),
           {"receipt": 5, "invoice": -3})
    broken("tnn.model", "counts_negative.json", ("training", "class_counts", "invoice"), -3)
    broken("tnn.model", "epochs_negative.json", ("training", "stats", 0, "epochs"), -7)
    broken("tnn.model", "mse_negative.json", ("training", "stats", 2, "final_mse"), -0.5)
    broken("mlp.model", "mlp_epochs_negative.json", ("training", "epochs"), -7)
    broken("mlp.model", "mlp_counts_other_class.json", ("training", "class_counts"),
           {"receipt": 5})
    broken("tnn.model", "counts_short.json", ("training", "class_counts"),
           {"invoice": 1, "form": 0, "letter": 0})
    broken("tnn.model", "passes_short.json", ("training", "stats", 1, "update_passes"), 1)
    broken("tnn.model", "epochs_zero.json", ("training", "stats", 2, "epochs"), 0)
    broken("epochs_zero.json", "epochs_zero.json", ("training", "stats", 2, "update_passes"), 0)
    broken("mlp.model", "mlp_passes_long.json", ("training", "backward_passes"), 10**9)
    broken("mlp.model", "mlp_epochs_zero.json", ("training", "epochs"), 0)
    broken("mlp_epochs_zero.json", "mlp_epochs_zero.json", ("training", "backward_passes"),
           10**9)
    broken("tnn.model", "samples_zero.json", ("training", "stats", 1, "samples"), 0)
    broken("mlp.model", "mlp_samples_zero.json", ("training", "samples"), 0)
    broken("tnn.model", "weight_updates_seven.json", ("training", "stats", 0, "weight_updates"),
           7)
    broken("mlp.model", "mlp_counts_short.json", ("training", "class_counts"),
           {"invoice": 1, "form": 0, "letter": 0})
    # 5000 epochs under a cap of 1000, with pass counts that match them
    stats = json.loads((root / "tnn.model").read_text())["training"]["stats"][0]
    passes = 5000 * stats["samples"]
    linked = stats["weight_updates"] // stats["update_passes"]
    stats_0 = ("training", "stats", 0)
    broken("tnn.model", "epochs_over_cap.json", (*stats_0, "epochs"), 5000)
    broken("epochs_over_cap.json", "epochs_over_cap.json", (*stats_0, "update_passes"), passes)
    broken("epochs_over_cap.json", "epochs_over_cap.json", (*stats_0, "weight_updates"),
           passes * linked)
    # a run that stopped after 2 epochs, its error far above epsilon
    broken("mlp.model", "mlp_early_stop.json", ("training", "epochs"), 2)
    broken("mlp_early_stop.json", "mlp_early_stop.json", ("training", "backward_passes"),
           2 * 18)
    broken("mlp_early_stop.json", "mlp_early_stop.json", ("training", "final_mse"), 0.9)
    for kind in ("tnn", "mlp"):
        broken(f"{kind}.model", f"{kind}_training_list.json", ("training",), [])
        broken(f"{kind}.model", f"{kind}_training_number.json", ("training",), 3)
    (root / "deep.json").write_text("[" * 200_000 + "]" * 200_000)


def test_gen_corpus_writes_both_splits(tmp_path, capsys):
    code, out, _ = run(
        capsys, "gen-corpus", "--seed", "7", "--train", "2,1,1", "--test", "3,2,1",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "train.json").exists()
    assert (tmp_path / "test.json").exists()
    assert "2 invoice" in out and "3 invoice" in out


def test_gen_corpus_writes_what_generate_gives(tmp_path, capsys):
    # counts read in invoice,form,letter order; the test split takes the next seed
    code, _, _ = run(
        capsys, "gen-corpus", "--seed", "7", "--train", "2,1,3", "--test", "1,3,2",
        "--jitter", "0.01", "--drop", "0.3", "--distort", "0.3", "--out", str(tmp_path / "cli"),
    )
    assert code == 0
    noise = Noise(jitter=0.01, drop_rate=0.3, distort_rate=0.3)
    for split, seed, counts in (
        ("train", 7, {"invoice": 2, "form": 1, "letter": 3}),
        ("test", 8, {"invoice": 1, "form": 3, "letter": 2}),
    ):
        expected = tmp_path / f"{split}.json"
        save_corpus(generate(GenSpec(seed=seed, counts=counts, noise=noise)), expected)
        assert (tmp_path / "cli" / f"{split}.json").read_bytes() == expected.read_bytes()


def test_gen_corpus_zero_counts(tmp_path, capsys):
    code, out, _ = run(
        capsys, "gen-corpus", "--train", "0,0,0", "--test", "0,0,0", "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "train.json").read_text())
    assert payload == {"documents": []}


def test_gen_corpus_negative_count_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen-corpus", "--train", "-1,0,0", "--test", "0,0,0", "--out", str(tmp_path)])
    assert excinfo.value.code == 2


def test_flag_prefix_is_usage_error(workspace, tmp_path):
    # a prefix of a flag is not the flag: --json is not --json-out
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--tnn", str(workspace / "tnn.model"),
              "--test", str(workspace / "test.json"), "--json", str(tmp_path / "r.json")])
    assert excinfo.value.code == 2


def test_train_reports_stats_line(workspace, capsys, tmp_path):
    code, out, _ = run(
        capsys, "train", "tnn", "--corpus", str(workspace / "train.json"),
        "--seed", "3", "--out", str(tmp_path / "model.json"),
    )
    assert code == 0
    stats_line, corpus_line = out.splitlines()
    assert "update passes=" in stats_line
    assert corpus_line.startswith("training corpus: ")


def test_train_tnn_lists_the_desk_training_documents_it_misses(desk_corpora, tmp_path,
                                                               capsys):
    corpus = tmp_path / "train.json"
    save_corpus(desk_corpora[0], corpus)
    code, out, _ = run(capsys, "train", "tnn", "--corpus", str(corpus),
                       "--seed", str(DESK_MODEL_SEED), "--out", str(tmp_path / "tnn.model"))
    assert code == 0
    # four payment reminders, each accepted as an invoice
    assert out.splitlines()[1] == ("training corpus: 98/102 recognized; missed: letter-0076, "
                                   "letter-0079, letter-0096, letter-0099")


@pytest.mark.parametrize(
    "network, flags, message",
    [
        ("mlp", ("--max-epochs", "0"), "max_epochs"),
        ("tnn", ("--max-epochs", "0"), "max_epochs"),
        ("mlp", ("--epsilon", "inf"), "epsilon"),
        ("tnn", ("--epsilon", "inf"), "epsilon"),
        ("tnn", ("--epsilon", "-0.1"), "epsilon"),
        ("mlp", ("--mu", "-1"), "mu"),
        ("tnn", ("--mu", "-1"), "mu"),
        ("mlp", ("--mu", "0"), "mu"),
        ("mlp", ("--mu", "nan"), "mu"),
    ],
)
def test_train_rejects_bad_hyperparams(workspace, tmp_path, capsys, network, flags, message):
    out = tmp_path / "model.json"
    code, stdout, err = run(
        capsys, "train", network, "--corpus", str(workspace / "train.json"), *flags,
        "--out", str(out),
    )
    assert (code, stdout) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "hyperparams, message",
    [
        ('{"max_epochs": 0}', "max_epochs"),
        ('{"max_epochs": Infinity}', "hyperparams"),
        ('{"epsilon": Infinity}', "epsilon"),
        ('{"mu": -1}', "mu"),
        ('{"mu": null}', "hyperparams"),
        ('{"max_epoch": 10}', "param 'max_epoch' is unknown"),
        pytest.param('{"mu": 1%s}' % ("0" * 400), "mu", id="mu-beyond-float-range"),
    ],
)
def test_train_rejects_bad_hyperparams_in_config(workspace, tmp_path, capsys,
                                                 hyperparams, message):
    config = tmp_path / "config.json"
    save_config(default_config(), config)
    payload = json.loads(config.read_text())
    payload["hyperparams"] = json.loads(hyperparams)
    config.write_text(json.dumps(payload))
    out = tmp_path / "model.json"
    code, _, err = run(
        capsys, "train", "mlp", "--corpus", str(workspace / "train.json"),
        "--config", str(config), "--out", str(out),
    )
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_retraining_is_byte_identical(workspace, tmp_path, capsys):
    paths = [tmp_path / "a.model", tmp_path / "b.model"]
    for path in paths:
        code, _, _ = run(
            capsys, "train", "tnn", "--corpus", str(workspace / "train.json"),
            "--seed", "3", "--out", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_requires_labels(tmp_path, capsys):
    corpus = tmp_path / "unlabeled.json"
    corpus.write_text(json.dumps({"documents": [{"id": "anon", "tokens": []}]}))
    code, _, err = run(
        capsys, "train", "tnn", "--corpus", str(corpus), "--out", str(tmp_path / "m.json"),
    )
    assert code == 1
    assert err.startswith("error:")
    assert "anon" in err


@pytest.mark.parametrize("out, fault", [
    ("nodir/m.json", "[Errno 2] No such file or directory: 'nodir/m.json'"),
    ("adir", "[Errno 21] Is a directory: 'adir'"),
], ids=["missing-directory", "directory"])
def test_train_write_error_names_the_file_asked_for(workspace, tmp_path, monkeypatch, capsys,
                                                    out, fault):
    # the model goes to a sibling <out>.part first, which the error does not name
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "train", "tnn", "--corpus", str(workspace / "train.json"),
                       "--out", out)
    assert (code, err) == (1, f"error: {fault}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_train_leaves_a_sibling_directory_in_the_way_alone(workspace, tmp_path, monkeypatch,
                                                          capsys):
    # c/m.json.part is no sibling that train opened: it stays, and the error names c/m.json
    (tmp_path / "c" / "m.json.part").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "train", "tnn", "--corpus", str(workspace / "train.json"),
                       "--out", "c/m.json")
    assert (code, err) == (1, "error: [Errno 21] Is a directory: 'c/m.json'\n")
    assert sorted(p.name for p in (tmp_path / "c").iterdir()) == ["m.json.part"]
    assert list((tmp_path / "c" / "m.json.part").iterdir()) == []


def test_recognize_prints_result_json(workspace, capsys):
    code, out, _ = run(
        capsys, "recognize", "--model", str(workspace / "tnn.model"),
        "--doc", str(workspace / "test.json"), "--id", "invoice-0000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "recognized"
    assert payload["winning_class"] == "invoice"
    assert {h["name"] for h in payload["structures"]} >= {"table"}


def test_recognize_single_pass_flag(workspace, capsys):
    code, out, _ = run(
        capsys, "recognize", "--model", str(workspace / "tnn.model"),
        "--doc", str(workspace / "test.json"), "--id", "letter-0016", "--max-passes", "1",
    )
    assert code == 0
    assert len(json.loads(out)["passes"]) == 1


def test_recognize_missing_model_fails(workspace, capsys):
    code, _, err = run(
        capsys, "recognize", "--model", str(workspace / "nope.model"),
        "--doc", str(workspace / "test.json"),
    )
    assert code == 1
    assert err.startswith("error:")


def test_eval_prints_tables_and_writes_json(workspace, tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "eval", "--tnn", str(workspace / "tnn.model"),
        "--mlp", str(workspace / "mlp.model"), "--test", str(workspace / "test.json"),
        "--json-out", str(out_json),
    )
    assert code == 0
    assert "Document recognition" in out
    assert "dense baseline" in out
    payload = json.loads(out_json.read_text())
    assert payload["tnn"]["aggregate"]["tested"] == 24
    assert payload["mlp"]["aggregate"]["tested"] == 24
    assert payload["cost"]["mlp_epochs"] == 200
    assert len(payload["cost"]["tnn_epochs"]) == 3


def test_eval_empty_corpus_renders_na(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"documents": []}))
    code, out, _ = run(
        capsys, "eval", "--tnn", str(workspace / "tnn.model"), "--test", str(empty),
    )
    assert code == 0
    assert "n/a" in out


def test_eval_retired_reuse_flag_is_usage_error(workspace, capsys):
    # eval ranks both networks on the same test documents; no flag feeds the
    # baseline other documents
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--tnn", str(workspace / "tnn.model"), "--mlp", str(workspace / "mlp.model"),
              "--test", str(workspace / "test.json"),
              "--reuse-training-samples", str(workspace / "train.json")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --reuse-training-samples" in capsys.readouterr().err


def test_eval_baseline_extracts_only_documents_it_cannot_share(workspace, capsys, monkeypatch):
    from doctnn import evaluation

    calls = []
    real = evaluation.extract_all
    monkeypatch.setattr(evaluation, "extract_all",
                        lambda extractors, doc: calls.append(doc) or real(extractors, doc))
    code, out, _ = run(
        capsys, "eval", "--tnn", str(workspace / "tnn.model"),
        "--mlp", str(workspace / "mlp.model"), "--test", str(workspace / "test.json"),
    )
    assert code == 0
    assert "dense baseline" in out
    assert calls == []


def test_inspect_shows_passes(workspace, capsys):
    code, out, _ = run(
        capsys, "inspect", "--model", str(workspace / "tnn.model"),
        "--doc", str(workspace / "test.json"), "--id", "form-0010",
    )
    assert code == 0
    assert "pass 1:" in out
    assert "class votes:" in out


# the committed desk model (tests/data) on the desk test corpus: the README's
# recognize and inspect lines, letter-0225, whose pass 2 confirms every value
# it raised, and invoice-0004, refined once and then accepted, each byte for
# byte as its golden file
GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("command, doc_id, golden", [
    ("recognize", "invoice-0000", "desk_recognize_v1.json"),
    ("recognize", "letter-0225", "desk_recognize_letter-0225_v1.json"),
    ("inspect", "letter-0216", "desk_inspect_v1.txt"),
    ("inspect", "invoice-0004", "desk_inspect_invoice-0004_v1.txt"),
])
def test_desk_output_matches_golden_files(desk_corpora, tmp_path, capsys, command, doc_id,
                                          golden):
    save_corpus(desk_corpora[1], tmp_path / "test.json")
    code, out, err = run(capsys, command, "--model", str(GOLDEN / "desk_tnn_v1.json"),
                         "--doc", str(tmp_path / "test.json"), "--id", doc_id)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


RECOGNIZE = ("--model", "{ws}/tnn.model", "--doc", "{ws}/test.json", "--id", "invoice-0000")
EVAL = ("--tnn", "{ws}/tnn.model", "--test", "{ws}/test.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("recognize", *RECOGNIZE, "--max-passes", "0"), "max_passes"),
        (("recognize", *RECOGNIZE, "--tau-accept", "nan"), "tau_accept"),
        (("recognize", *RECOGNIZE, "--tau-struct=-inf"), "tau_struct"),
        (("recognize", "--model", "{ws}/mlp.model", "--doc", "{ws}/test.json"), "kind 'tnn'"),
        (("eval", *EVAL, "--max-passes", "-1"), "max_passes"),
        (("eval", *EVAL, "--tau-margin", "inf"), "tau_margin"),
        (("eval", "--tnn", "{ws}/mlp.model", "--test", "{ws}/test.json"), "kind 'tnn'"),
        (("eval", *EVAL, "--mlp", "{ws}/tnn.model"), "kind 'mlp'"),
        (("inspect", *RECOGNIZE, "--max-passes", "0"), "max_passes"),
        (("inspect", *RECOGNIZE, "--tau-accept", "nan"), "tau_accept"),
        (("gen-corpus", "--jitter", "nan", "--out", "{tmp}/corpus"), "jitter"),
        (("gen-corpus", "--jitter", "inf", "--out", "{tmp}/corpus"), "jitter"),
        (("train", "tnn", "--corpus", "{ws}/train.json", "--config", "{tmp}/absent.json",
          "--out", "{tmp}/m.json"), "cannot read"),
        (("recognize", "--model", "{ws}/list.json", "--doc", "{ws}/test.json"), "JSON object"),
        (("recognize", "--model", "{ws}/no_config.json", "--doc", "{ws}/test.json"),
         "missing 'config'"),
        (("recognize", "--model", "{ws}/no_weights.json", "--doc", "{ws}/test.json"),
         "missing 'weights'"),
        (("recognize", "--model", "{ws}/no_inputs.json", "--doc", "{ws}/test.json"),
         "missing 'inputs'"),
        (("recognize", "--model", "{ws}/no_epochs.json", "--doc", "{ws}/test.json"),
         "missing 'epochs'"),
        (("recognize", "--model", "{ws}/no_kind.json", "--doc", "{ws}/test.json"),
         "'code_area' missing 'kind'"),
        (("recognize", "--model", "{ws}/nan_weight.json", "--doc", "{ws}/test.json"),
         "'weights' holds a value that is not finite"),
        (("eval", "--tnn", "{ws}/inf_threshold.json", "--test", "{ws}/test.json"),
         "'thresholds' holds a value that is not finite"),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_no_biases.json"), "missing 'biases'"),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_nan_bias.json"),
         "'biases' holds a value that is not finite"),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_no_passes.json"), "missing 'backward_passes'"),
        (("train", "tnn", "--corpus", "{ws}/train.json", "--config", "{ws}/tol_nan.json",
          "--out", "{tmp}/m.json"), "'horizontal_alignment': param 'align_tol'"),
        (("train", "mlp", "--corpus", "{ws}/train.json", "--config", "{ws}/tol_negative.json",
          "--out", "{tmp}/m.json"), "'horizontal_alignment': param 'align_tol'"),
        (("train", "tnn", "--corpus", "{ws}/train.json", "--config", "{ws}/tol_text.json",
          "--out", "{tmp}/m.json"), "'horizontal_alignment': param 'align_tol'"),
        (("train", "tnn", "--corpus", "{ws}/train.json", "--config", "{ws}/extractors_list.json",
          "--out", "{tmp}/m.json"), "'extractors' must be an object"),
        (("train", "tnn", "--corpus", "{ws}/train.json", "--config", "{ws}/kind_list.json",
          "--out", "{tmp}/m.json"), "'code_area': 'kind' must be a string"),
        (("train", "tnn", "--corpus", "{ws}/train.json", "--config", "{ws}/links_numbers.json",
          "--out", "{tmp}/m.json"), "'links' entry must be a list of names"),
        (("train", "mlp", "--corpus", "{ws}/train.json", "--config", "{ws}/layers_number.json",
          "--out", "{tmp}/m.json"), "layer 'elements' must be a list of names"),
        (("train", "tnn", "--corpus", "{ws}/train.json", "--config",
          "{ws}/hyperparams_list.json", "--out", "{tmp}/m.json"),
         "'hyperparams' must be an object"),
        (("recognize", "--model", "{ws}/tnn.model", "--doc", "{ws}/id_list.json"),
         "'id' must be a string"),
        (("eval", "--tnn", "{ws}/tnn.model", "--test", "{ws}/text_object.json"),
         "field 'text' must be a string"),
        (("recognize", "--model", "{ws}/seed_fraction.json", "--doc", "{ws}/test.json"),
         "'seed' must be an integer"),
        (("train", "tnn", "--corpus", "{ws}/train.json", "--config",
          "{ws}/epochs_fraction.json", "--out", "{tmp}/m.json"),
         "max_epochs must be an integer"),
        (("eval", "--tnn", "{ws}/version_true.json", "--test", "{ws}/test.json"),
         "format_version True"),
        (("train", "tnn", "--corpus", "{ws}/train.json", "--config", "{ws}/extra_spec.json",
          "--out", "{tmp}/m.json"), "non-element name(s): ['extra_one']"),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_other_classes.json"),
         "baseline classes ['invoice', 'form', 'notice'] differ from the transparent "
         "network's ['invoice', 'form', 'letter']"),
        (("recognize", "--model", "{ws}/tnn.model", "--doc", "{ws}/empty.json"),
         "corpus holds no documents"),
        (("inspect", "--model", "{ws}/tnn.model", "--doc", "{ws}/empty.json"),
         "corpus holds no documents"),
        (("eval", "--tnn", "{ws}/no_stats.json", "--test", "{ws}/test.json"),
         "expected 3 training stats, found 0"),
        (("eval", "--tnn", "{ws}/counts_other_class.json", "--test", "{ws}/test.json"),
         "'class_counts' names classes the topology does not have: ['receipt']"),
        (("eval", "--tnn", "{ws}/counts_negative.json", "--test", "{ws}/test.json"),
         "'invoice' must be >= 0, got -3"),
        (("recognize", "--model", "{ws}/epochs_negative.json", "--doc", "{ws}/test.json"),
         "training stats 0 'epochs' must be >= 0, got -7"),
        (("eval", "--tnn", "{ws}/mse_negative.json", "--test", "{ws}/test.json"),
         "training stats 2 'final_mse' must be >= 0, got -0.5"),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_epochs_negative.json"),
         "model training 'epochs' must be >= 0, got -7"),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_counts_other_class.json"),
         "'class_counts' names classes the topology does not have: ['receipt']"),
        (("eval", "--tnn", "{ws}/counts_short.json", "--test", "{ws}/test.json"),
         "'class_counts' total 1 documents, but training stats 0 has 18 samples"),
        (("recognize", "--model", "{ws}/deep.json", "--doc", "{ws}/deep.json"),
         "deep.json: maximum recursion depth exceeded"),
        (("recognize", "--model", "{ws}/seed_negative.json", "--doc", "{ws}/test.json"),
         "model file 'seed' must be >= 0, got -1"),
        (("train", "tnn", "--corpus", "{ws}/train.json", "--seed", "-1", "--out",
          "{tmp}/m.json"), "seed must be >= 0, got -1"),
        (("train", "mlp", "--corpus", "{ws}/train.json", "--seed", "-1", "--out",
          "{tmp}/m.json"), "seed must be >= 0, got -1"),
        (("eval", "--tnn", "{ws}/passes_short.json", "--test", "{ws}/test.json"),
         "training stats 1 'update_passes' is 1, but "),
        (("recognize", "--model", "{ws}/epochs_zero.json", "--doc", "{ws}/test.json"),
         "training stats 2 'epochs' must be >= 1, got 0"),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_passes_long.json"),
         "model training 'backward_passes' is 1000000000, but "),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_epochs_zero.json"),
         "model training 'epochs' must be >= 1, got 0"),
        (("recognize", "--model", "{ws}/samples_zero.json", "--doc", "{ws}/test.json"),
         "training stats 1 'samples' must be >= 1, got 0"),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_samples_zero.json"),
         "model training 'samples' must be >= 1, got 0"),
        (("eval", "--tnn", "{ws}/weight_updates_seven.json", "--test", "{ws}/test.json"),
         "training stats 0 'weight_updates' is 7, but "),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_counts_short.json"),
         "model training 'class_counts' total 1 documents, but model training has 18 samples"),
        (("eval", "--tnn", "{ws}/epochs_over_cap.json", "--test", "{ws}/test.json"),
         "training stats 0 'epochs' is 5000, but 'max_epochs' is 1000"),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_early_stop.json"),
         "model training stopped after 2 of 200 epochs, but its 'final_mse' 0.9 is not "
         "below 'epsilon' 0.01"),
        (("recognize", "--model", "{ws}/tnn_training_list.json", "--doc", "{ws}/test.json"),
         "model file 'training' must be an object, got []"),
        (("eval", "--tnn", "{ws}/tnn_training_number.json", "--test", "{ws}/test.json"),
         "model file 'training' must be an object, got 3"),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_training_list.json"),
         "model file 'training' must be an object, got []"),
        (("eval", *EVAL, "--mlp", "{ws}/mlp_training_number.json"),
         "model file 'training' must be an object, got 3"),
    ],
)
def test_bad_input_gives_one_error_line(workspace, tmp_path, capsys, argv, message):
    argv = [arg.format(ws=workspace, tmp=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_eval_json_out_refuses_non_finite_values(workspace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("doctnn.cli.report_to_dict", lambda report: {"rate": float("nan")})
    out_json = tmp_path / "report.json"
    code, _, err = run(
        capsys, "eval", "--tnn", str(workspace / "tnn.model"),
        "--test", str(workspace / "test.json"), "--json-out", str(out_json),
    )
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not JSON compliant" in err
    assert not out_json.exists()
