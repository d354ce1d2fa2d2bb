"""Manifest parsing, config hashing, pipeline caching, sweep correlations."""

import configparser
import csv
import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from doss import BLAS_THREAD_VARS, EXTENSION_MODES, STAGES, cli, evaluation, masks, training
from doss.cli import Pipeline, artifact_valid, main, sweep_correlation, write_meta
from doss.errors import ConfigError, FormatError, NumericsError, RegistryMismatchError
from doss.evaluation import decode_dataset, trim_eos
from doss.manifest import load_manifest
from doss.masks import overlap_stats
from doss.model import load_checkpoint

TINY = """
[meta]
seed = 7

[model]
vocab_content = 12
d_model = 32
ffn_dim = 64
enc_layers = 1
dec_layers = 1
heads = 2
max_len = 20

[domain copy]
kind = copy
train_pairs = 120
eval_pairs = 16
min_len = 3
max_len = 5
seed = 11

[domain reverse]
kind = reverse
train_pairs = 120
eval_pairs = 16
min_len = 3
max_len = 5
seed = 22

[extension sort]
kind = sort
train_pairs = 120
eval_pairs = 16
min_len = 3
max_len = 5
seed = 44

[pretrain]
steps = 40

[masks]
alpha = 0.6
beta = 0.6
ft_epochs = 1

[doss]
steps = 24

[finetune]
steps = 12

[extend]
domain = sort
mode = new_only_disjoint
steps = 12

[eval]
max_decode_len = 7
batch_size = 32

[sweep]
alphas = 0.5
betas = 0.5
steps = 10
"""


@pytest.fixture()
def tiny_manifest(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY, encoding="utf-8")
    return path


def test_manifest_parsing(tiny_manifest):
    man = load_manifest(tiny_manifest)
    assert man.seed == 7
    assert man.model.vocab_size == 16
    assert [d.name for d in man.domains] == ["copy", "reverse"]
    assert man.extension.name == "sort"
    assert man.prune.alpha == 0.6
    assert man.train["masks"].epochs == 1 and man.train["masks"].max_steps is None
    assert man.train["extend_mask"] == dataclasses.replace(man.train["masks"], epochs=5)
    assert man.train["pretrain"].max_steps == 40
    assert man.train["pretrain"].learning_rate == pytest.approx(2e-3)
    assert man.train["finetune"].dropout == pytest.approx(0.3)
    assert man.extend_mode == "new_only_disjoint"
    assert man.sweep_alphas == [0.5]


def test_manifest_stage_seeds_stable(tiny_manifest):
    a = load_manifest(tiny_manifest)
    b = load_manifest(tiny_manifest)
    for stage in ("pretrain", "train_doss", "eval"):
        assert a.stage_seed(stage) == b.stage_seed(stage)
    assert a.stage_seed("pretrain") != a.stage_seed("train_doss")


def test_each_train_section_is_seeded_by_its_stage(tiny_manifest):
    # a mis-paired row of the stage table would change every bit of a stage
    man = load_manifest(tiny_manifest)
    pairs = {"pretrain": "pretrain", "masks": "make_masks", "doss": "train_doss",
             "finetune": "finetune", "extend": "extend"}
    assert {s.train: s.name for s in STAGES.values() if s.train} == pairs
    for section, stage in pairs.items():
        assert man.train[section].seed == man.stage_seed(stage), section
    # the extension mask's finetune is a [masks] finetune, with its seed
    assert man.train["extend_mask"].seed == man.stage_seed("make_masks")


def test_manifest_stage_keys_depend_on_seed(tiny_manifest, tmp_path):
    other = tmp_path / "other.ini"
    other.write_text(TINY.replace("seed = 7", "seed = 8", 1), encoding="utf-8")
    out = tmp_path / "out"
    assert Pipeline(load_manifest(tiny_manifest), out).pretrain() is True
    assert Pipeline(load_manifest(other), out).pretrain() is True
    assert Pipeline(load_manifest(other), out).pretrain() is False


def test_manifest_errors(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[meta]\nseed = 1\n[model]\nbogus_key = 3\n[domain a]\nkind = copy\n")
    with pytest.raises(ConfigError):
        load_manifest(bad)
    with pytest.raises(ConfigError):
        load_manifest(tmp_path / "missing.ini")
    nodomains = tmp_path / "nd.ini"
    nodomains.write_text("[meta]\nseed = 1\n")
    with pytest.raises(ConfigError):
        load_manifest(nodomains)
    dangling = tmp_path / "d.ini"
    dangling.write_text("[meta]\nseed = 1\n[domain a]\nkind = copy\n"
                        "[extend]\ndomain = ghost\nsteps = 5\n")
    with pytest.raises(ConfigError):
        load_manifest(dangling)
    # a train section takes the train keys only, not those of [masks]/[extend]/[sweep]
    foreign = tmp_path / "f.ini"
    foreign.write_text("[meta]\nseed = 1\n[domain a]\nkind = copy\n[pretrain]\nalpha = 0.5\n")
    with pytest.raises(ConfigError):
        load_manifest(foreign)
    badgrid = tmp_path / "g.ini"
    badgrid.write_text("[meta]\nseed = 1\n[domain a]\nkind = copy\n[sweep]\nalphas = 0.5 x\n")
    with pytest.raises(ConfigError):
        load_manifest(badgrid)
    # configparser syntax errors and an unknown extension mode fail at load
    dup = tmp_path / "dup.ini"
    dup.write_text("[meta]\nseed = 1\nseed = 2\n[domain a]\nkind = copy\n")
    noheader = tmp_path / "nh.ini"
    noheader.write_text("seed = 1\n[meta]\n[domain a]\nkind = copy\n")
    badmode = tmp_path / "bm.ini"
    badmode.write_text(TINY.replace("mode = new_only_disjoint", "mode = bogus"))
    for path in (dup, noheader, badmode):
        with pytest.raises(ConfigError):
            load_manifest(path)
    assert main(["run", "--config", str(dup), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("path", ["configs/desk.ini", "configs/micro.ini",
                                  "benchmarks/desk.ini", "benchmarks/pipeline.ini"])
def test_shipped_manifests_train_masks_for_ft_epochs(path):
    path = Path(__file__).resolve().parent.parent / path
    raw = configparser.ConfigParser(interpolation=None)
    raw.read(path)
    man = load_manifest(path)
    for name, section in (("masks", "masks"), ("extend_mask", "extend")):
        cfg = man.train[name]
        assert cfg.epochs == int(raw[section]["ft_epochs"]) and cfg.max_steps is None, name
        assert cfg.seed == man.stage_seed("make_masks"), name
    assert man.train["extend_mask"] == dataclasses.replace(
        man.train["masks"], epochs=man.train["extend_mask"].epochs)


@pytest.mark.parametrize("old,new", [
    ("batch_size = 32", "batch_size = 0"),
    ("batch_size = 32", "batch_size = -1"),
    ("max_decode_len = 7", "max_decode_len = 0"),
    ("steps = 10", "steps = -3"),
    ("alphas = 0.5", "alphas = 0.5 1.5"),
    ("betas = 0.5", "betas = -0.1"),
    pytest.param("kind = copy\ntrain_pairs = 120", "kind = copy\ntrain_pairs = -5",
                 id="domain_train_pairs_negative"),
    pytest.param("kind = reverse\ntrain_pairs = 120\neval_pairs = 16",
                 "kind = reverse\ntrain_pairs = 120\neval_pairs = 0", id="domain_eval_pairs_zero"),
    pytest.param("kind = sort\ntrain_pairs = 120", "kind = sort\ntrain_pairs = 0",
                 id="extension_train_pairs_zero"),
    pytest.param("steps = 40", "steps = 40\nlearning_rate = nan", id="learning_rate_nan"),
    pytest.param("steps = 40", "steps = 40\nlearning_rate = inf", id="learning_rate_inf"),
    pytest.param("mode = new_only_disjoint", "mode = new_only_disjoint\nft_epochs = 0",
                 id="extend_ft_epochs_zero"),
])
def test_manifest_rejects_bad_eval_and_sweep_values(tmp_path, old, new):
    # and pair counts below 1 in a [domain ...] or [extension ...] section,
    # a learning rate that is not finite in a train section, and no
    # extension-mask finetune epochs
    path = tmp_path / "v.ini"
    path.write_text(TINY.replace(old, new), encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=r"\[(eval|sweep|pretrain|extend|domain \w+|extension \w+)\]"):
        load_manifest(path)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()  # rejected before any stage ran


@pytest.mark.parametrize("edits", [
    pytest.param([("[pretrain]", "[pretrian]")], id="unknown"),
    pytest.param([("[extension sort]", "[extension rev]\nkind = reverse\n[extension sort]")],
                 id="two_extensions"),
    pytest.param([("[extension sort]", "[extension copy]"), ("domain = sort", "domain = copy")],
                 id="extension_named_as_domain"),
])
def test_manifest_rejects_bad_sections(tmp_path, edits):
    text = TINY
    for old, new in edits:
        text = text.replace(old, new)
    path = tmp_path / "s.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError):
        load_manifest(path)


@pytest.mark.parametrize("section,key", [
    ("pretrain", "epochs"), ("doss", "epochs"), ("finetune", "epochs"),
    ("masks", "epochs"), ("extend", "epochs"), ("pretrain", "mixing"),
    ("finetune", "mixing"), ("masks", "mixing"), ("masks", "steps")])
def test_manifest_rejects_train_keys_no_stage_reads(tmp_path, section, key):
    path = tmp_path / "k.ini"
    value = "proportional" if key == "mixing" else "2"
    path.write_text(f"[meta]\nseed = 1\n[domain a]\nkind = copy\n[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        load_manifest(path)


def test_cli_seed_reaches_stage_seeds(tiny_manifest, tmp_path, monkeypatch):
    other = tmp_path / "seed3.ini"
    other.write_text(TINY.replace("seed = 7", "seed = 3", 1), encoding="utf-8")
    seen = []
    monkeypatch.setattr(Pipeline, "pretrain", lambda self: seen.append(self.man) or True)
    rc = main(["pretrain", "--config", str(other), "--out", str(tmp_path / "o"),
               "--seed", "7"])
    assert rc == 0
    assert seen[0] == load_manifest(tiny_manifest)


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--threads=2"]])
def test_cli_threads_overrides_blas_env(flag, tiny_manifest, tmp_path, monkeypatch):
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "8")
    monkeypatch.setattr(Pipeline, "pretrain", lambda self: True)
    rc = main(["pretrain", "--config", str(tiny_manifest), "--out", str(tmp_path / "o"), *flag])
    assert rc == 0
    assert [os.environ[var] for var in BLAS_THREAD_VARS] == ["2"] * len(BLAS_THREAD_VARS)


def test_cli_threads_sets_what_blas_threads_reads(tiny_manifest, tmp_path, monkeypatch):
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "8")
    monkeypatch.setattr(Pipeline, "pretrain", lambda self: True)
    assert main(["pretrain", "--config", str(tiny_manifest), "--out", str(tmp_path / "o"),
                 "--threads", "3"]) == 0
    assert evaluation.blas_threads() == 3


def test_one_tuple_names_the_extension_modes(tmp_path):
    # extend_domain's side: test_training's test_extend_takes_exactly_the_extension_modes
    extend = cli._build_parser()._subparsers._group_actions[0].choices["extend"]
    assert next(a for a in extend._actions if a.dest == "mode").choices == EXTENSION_MODES
    for mode in EXTENSION_MODES:
        path = tmp_path / f"{mode}.ini"
        path.write_text(TINY.replace("mode = new_only_disjoint", f"mode = {mode}"))
        assert load_manifest(path).extend_mode == mode


def test_cli_parses_its_arguments_before_numpy_is_imported():
    # `--threads` must set the BLAS thread variables before numpy reads them
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; from doss import cli; cli._build_parser().parse_args(['extend', "
            "'--config', 'x', '--mode', 'ft_all_ones']); print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_unknown_extension_mode_fails_before_any_directory(tiny_manifest, tmp_path):
    pipe = Pipeline(load_manifest(tiny_manifest), tmp_path / "o")
    with pytest.raises(ConfigError, match="unknown extension mode 'bogus'"):
        pipe.extend(mode="bogus")
    assert not pipe.extend_dir("bogus").exists()


def test_make_masks_has_no_disjoint_flag(tiny_manifest, tmp_path, monkeypatch, capsys):
    # [masks] disjoint is the one switch, the one `doss run` reads
    monkeypatch.setattr(Pipeline, "make_masks", lambda self: pytest.fail("a stage ran"))
    with pytest.raises(SystemExit) as exc:
        main(["make-masks", "--config", str(tiny_manifest), "--out", str(tmp_path / "o"),
              "--disjoint"])
    assert exc.value.code == 2
    assert "--disjoint" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_cli_threads_below_one_is_a_usage_error(threads, tiny_manifest, tmp_path, monkeypatch,
                                                capsys):
    # BLAS reads a count below 1 as no cap, so it must never be exported
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "8")
    monkeypatch.setattr(Pipeline, "pretrain", lambda self: pytest.fail("a stage ran"))
    with pytest.raises(SystemExit) as exc:
        main(["pretrain", "--config", str(tiny_manifest), "--out", str(tmp_path / "o"),
              "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert [os.environ[var] for var in BLAS_THREAD_VARS] == ["8"] * len(BLAS_THREAD_VARS)


def test_parallel_extension_shares_base_vocabulary(tmp_path):
    def files(name, lines):
        for side in ("src", "tgt"):
            (tmp_path / f"{name}.{side}").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return (f"kind = parallel\nsrc_file = {tmp_path / name}.src\n"
                f"tgt_file = {tmp_path / name}.tgt\ntrain_pairs = 2\neval_pairs = 1\n")

    base = files("base", ["the the cat", "the the the", "the cat the"])
    ext = files("ext", ["cat dog", "cat cat", "dog cat"])
    path = tmp_path / "p.ini"
    path.write_text(f"[meta]\nseed = 1\n[domain base]\n{base}[extension new]\n{ext}")
    pipe = Pipeline(load_manifest(path), tmp_path / "out")
    base_src = pipe.train_sets()[0].pairs[0][0]     # the the cat
    ext_src = pipe.ext_sets()[0].pairs[0][0]        # cat dog
    assert ext_src[0] == base_src[2]
    synthetic_base = tmp_path / "s.ini"
    synthetic_base.write_text(f"[meta]\nseed = 1\n[domain a]\nkind = copy\n[extension new]\n{ext}")
    with pytest.raises(ConfigError):
        Pipeline(load_manifest(synthetic_base), tmp_path / "out2").ext_sets()


def test_non_utf8_manifest_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[meta]\nseed = 1\n# caf\xe9\n[domain a]\nkind = copy\n")
    with pytest.raises(ConfigError, match="latin1.ini"):
        load_manifest(path)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_non_utf8_parallel_text_is_a_format_error(tmp_path, caplog):
    (tmp_path / "text.src").write_bytes(b"a b\ncaf\xe9 b\n")
    (tmp_path / "text.tgt").write_text("b a\nb a\n", encoding="utf-8")
    path = tmp_path / "p.ini"
    path.write_text(f"[meta]\nseed = 1\n[domain text]\nkind = parallel\n"
                    f"src_file = {tmp_path / 'text.src'}\ntgt_file = {tmp_path / 'text.tgt'}\n"
                    f"train_pairs = 1\neval_pairs = 1\n", encoding="utf-8")
    with pytest.raises(FormatError, match="text.src"):
        Pipeline(load_manifest(path), tmp_path / "out").train_sets()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "text.src is not UTF-8" in caplog.text


def test_too_few_usable_pairs_error_names_the_filter_counts(tmp_path):
    # 2 pairs pass, 3 are longer than filter_max_len and 5 are 4:1 in length
    src = ["a b"] * 2 + ["a b c d e f"] * 3 + ["a b c d"] * 5
    tgt = ["b a"] * 2 + ["f e d c b a"] * 3 + ["a"] * 5
    for side, lines in (("src", src), ("tgt", tgt)):
        (tmp_path / f"text.{side}").write_text("\n".join(lines) + "\n", encoding="utf-8")
    path = tmp_path / "p.ini"
    path.write_text(f"[meta]\nseed = 1\n[domain text]\nkind = parallel\n"
                    f"src_file = {tmp_path / 'text.src'}\ntgt_file = {tmp_path / 'text.tgt'}\n"
                    f"filter_max_len = 4\ntrain_pairs = 4\neval_pairs = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"has 2 usable pairs, needs 5; filter: "
                       r"FilterStats\(kept=2, dropped_length=3, dropped_ratio=5\)"):
        Pipeline(load_manifest(path), tmp_path / "out").train_sets()


def test_artifact_meta_roundtrip(tmp_path):
    art = tmp_path / "x.bin"
    art.write_bytes(b"payload")
    write_meta(art, "k123", "stage", 5)
    assert artifact_valid(art, "k123")
    assert not artifact_valid(art, "other")
    art.write_bytes(b"tampered")
    assert not artifact_valid(art, "k123")
    # a sidecar that is not UTF-8 is corrupted: invalid, not an exception
    art.write_bytes(b"payload")
    meta = tmp_path / "x.bin.meta"
    assert artifact_valid(art, "k123")
    meta.write_bytes(meta.read_bytes().replace(b"stage=stage", b"stage=\xe9"))
    assert not artifact_valid(art, "k123")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    man_path = out / "tiny.ini"
    man_path.write_text(TINY, encoding="utf-8")
    pipe = Pipeline(load_manifest(man_path), out / "run")
    pipe.run()
    return man_path, pipe


def test_pipeline_produces_artifacts(tiny_run):
    _, pipe = tiny_run
    store = load_checkpoint(pipe.base_ckpt)
    assert len(store) > 0
    assert pipe.mask_path("copy").exists()
    assert (pipe.out / "report.md").exists()
    ext = pipe.extend_dir("new_only_disjoint")
    assert (ext / "extended.ckpt").exists()
    # disjoint extension preserves old domains: the diff file is empty
    assert (ext / "preservation_diff.txt").read_bytes() == b""


def test_metrics_csv_monotone_steps(tiny_run):
    _, pipe = tiny_run
    with open(pipe.out / "pretrain_metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    steps = [int(r["step"]) for r in rows]
    assert steps == sorted(steps)
    assert steps[0] == 1 and steps[-1] == 40


def test_reports_embed_config_hash(tiny_run):
    _, pipe = tiny_run
    text = (pipe.out / "report.md").read_text()
    assert text.startswith("<!-- config_hash=")
    assert (pipe.out / "report.csv").read_text().startswith("# config_hash=")


def test_rerun_hits_cache_everywhere(tiny_run):
    man_path, pipe = tiny_run
    before = {p.name: p.read_bytes() for p in pipe.out.rglob("*") if p.is_file()}
    pipe2 = Pipeline(load_manifest(man_path), pipe.out)
    assert pipe2.pretrain() is False
    assert pipe2.make_masks() is False
    assert pipe2.train_doss() is False
    assert pipe2.finetune() is False
    assert pipe2.extend() is False
    assert pipe2.evaluate() is False
    after = {p.name: p.read_bytes() for p in pipe.out.rglob("*") if p.is_file()}
    assert before == after


def test_corrupted_artifact_reruns_only_its_stage(tiny_run):
    man_path, pipe = tiny_run
    base_bytes = pipe.base_ckpt.read_bytes()
    doss_bytes = pipe.doss_ckpt.read_bytes()
    raw = bytearray(doss_bytes)
    raw[-1] ^= 0xFF
    pipe.doss_ckpt.write_bytes(bytes(raw))
    pipe2 = Pipeline(load_manifest(man_path), pipe.out)
    assert pipe2.pretrain() is False          # upstream untouched
    assert pipe2.make_masks() is False
    assert pipe2.train_doss() is True         # producing stage reruns
    assert pipe.doss_ckpt.read_bytes() == doss_bytes  # bit-identical regeneration
    assert pipe2.evaluate() is False          # inputs identical again: cache hit
    assert pipe.base_ckpt.read_bytes() == base_bytes


def test_undecodable_sidecar_reruns_its_stage(tiny_run):
    man_path, pipe = tiny_run
    meta = pipe.doss_ckpt.with_name("doss.ckpt.meta")
    doss_bytes, meta_bytes = pipe.doss_ckpt.read_bytes(), meta.read_bytes()
    meta.write_bytes(meta_bytes.replace(b"stage=", b"stage=\xe9", 1))
    pipe2 = Pipeline(load_manifest(man_path), pipe.out)
    assert pipe2.make_masks() is False
    assert pipe2.train_doss() is True
    assert pipe.doss_ckpt.read_bytes() == doss_bytes
    assert meta.read_bytes() == meta_bytes
    assert pipe2.evaluate() is False


def test_rerun_into_fresh_dir_is_bit_identical(tiny_run):
    man_path, pipe = tiny_run
    out2 = pipe.out.parent / "run_b"
    pipe2 = Pipeline(load_manifest(man_path), out2)
    pipe2.run()
    files1 = sorted(p.relative_to(pipe.out) for p in pipe.out.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (pipe.out / rel).read_bytes() == (out2 / rel).read_bytes(), rel


@pytest.mark.parametrize("edit,error,message", [
    (lambda raw: b"\xff" + raw, FormatError, "is not UTF-8"),
    (lambda raw: raw.replace(b"enc.embed encoder 1", b"enc.embed encoder 0", 1),
     RegistryMismatchError, "differs from the rule"),
], ids=["not_utf8", "flag_flipped"])
def test_edited_registry_record_fails_make_masks(tiny_run, tmp_path, caplog, edit, error,
                                                message):
    # base.reg is a record of the region and maskability rule, not an input:
    # an edit must fail the stage before it writes a mask
    man_path, pipe = tiny_run
    out = shutil.copytree(pipe.out, tmp_path / "run")
    reg = out / "base.reg"
    assert reg.read_bytes().startswith(b"enc.embed encoder 1\n")
    reg.write_bytes(edit(reg.read_bytes()))
    (out / "mask_copy.mask").unlink()
    other = (out / "mask_reverse.mask").read_bytes()
    assert main(["make-masks", "--config", str(man_path), "--out", str(out)]) == 2
    assert message in caplog.text
    with pytest.raises(error, match=message):
        Pipeline(load_manifest(man_path), out).make_masks()
    assert not (out / "mask_copy.mask").exists()
    assert (out / "mask_reverse.mask").read_bytes() == other


@pytest.mark.parametrize("edit,stage", [
    (("[doss]", "[doss]\nlearning_rate = 5e-3"), "sweep"),
    (("[masks]", "[masks]\nlearning_rate = 5e-3"), "sweep"),
    (("max_decode_len = 7", "max_decode_len = 3"), "extend"),
    (("max_decode_len = 7", "max_decode_len = 3"), "sweep"),
    (("[masks]", "[masks]\ndisjoint = true"), "sweep"),
])
def test_config_a_stage_reads_reruns_it(tiny_run, tmp_path, edit, stage):
    man_path, pipe = tiny_run
    out = shutil.copytree(pipe.out, tmp_path / "run")
    getattr(Pipeline(load_manifest(man_path), out), stage)()
    assert getattr(Pipeline(load_manifest(man_path), out), stage)() is False
    edited = tmp_path / "edited.ini"
    edited.write_text(TINY.replace(*edit), encoding="utf-8")
    assert getattr(Pipeline(load_manifest(edited), out), stage)() is True


def test_code_change_reruns_a_warm_stage(tiny_run, tmp_path, monkeypatch):
    man_path, pipe = tiny_run
    out = shutil.copytree(pipe.out, tmp_path / "run")
    assert Pipeline(load_manifest(man_path), out).pretrain() is False
    monkeypatch.setattr(cli, "_code_fingerprint", lambda: "other code")
    assert Pipeline(load_manifest(man_path), out).pretrain() is True
    assert (out / "base.ckpt").read_bytes() == pipe.base_ckpt.read_bytes()


@pytest.mark.parametrize("edit", ["min_ratio", "source file"])
def test_parallel_domain_filter_and_text_rerun_pretrain(tmp_path, edit):
    lines = [f"w{i % 5} w{i % 3} w{i % 4}" for i in range(12)]
    for side in ("src", "tgt"):
        (tmp_path / f"text.{side}").write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = (f"[meta]\nseed = 1\n[model]\nvocab_content = 8\nd_model = 16\nffn_dim = 16\n"
            f"enc_layers = 1\ndec_layers = 1\nheads = 2\n[domain text]\nkind = parallel\n"
            f"src_file = {tmp_path / 'text.src'}\ntgt_file = {tmp_path / 'text.tgt'}\n"
            f"train_pairs = 8\neval_pairs = 2\n[pretrain]\nsteps = 2\n")
    path = tmp_path / "p.ini"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert Pipeline(load_manifest(path), out).pretrain() is True
    assert Pipeline(load_manifest(path), out).pretrain() is False
    if edit == "min_ratio":
        path.write_text(text.replace("[pretrain]", "min_ratio = 0.9\n[pretrain]"),
                        encoding="utf-8")
    else:
        lines[0] = "w4 w4 w4"
        (tmp_path / "text.src").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert Pipeline(load_manifest(path), out).pretrain() is True


def test_extend_cache_hit_reads_no_data(tiny_run, monkeypatch):
    man_path, pipe = tiny_run

    def ext_sets(self):
        raise AssertionError("a cache hit must not load the extension data")

    monkeypatch.setattr(Pipeline, "ext_sets", ext_sets)
    assert Pipeline(load_manifest(man_path), pipe.out).extend() is False


def test_extend_bad_steps_fails_before_any_training(tiny_run, tmp_path, monkeypatch):
    man_path, pipe = tiny_run
    for name in ("base.ckpt", "base.reg", "doss.ckpt", "mask_copy.mask", "mask_reverse.mask"):
        (tmp_path / name).write_bytes((pipe.out / name).read_bytes())
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = training.train_full
    monkeypatch.setattr(training, "train_full", spy)
    rc = main(["extend", "--config", str(man_path), "--out", str(tmp_path), "--steps", "-3"])
    assert rc == 2
    assert calls == []
    with pytest.raises(ConfigError, match="max_steps"):
        Pipeline(load_manifest(man_path), tmp_path).extend(steps=-3)
    assert calls == []


def test_run_skips_extend_only_in_its_default_stages(tmp_path, monkeypatch):
    # without an [extension] section, the default `run` leaves extend out, but
    # asking for extend is the same ConfigError as `doss extend`
    text = TINY[:TINY.index("[extension sort]")] + TINY[TINY.index("[pretrain]"):]
    path = tmp_path / "no_ext.ini"
    path.write_text(text.replace("domain = sort\n", ""), encoding="utf-8")
    ran = []
    for stage in STAGES.values():
        if stage.name != "extend":
            monkeypatch.setattr(Pipeline, stage.method, lambda self, s=stage.name: ran.append(s))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert ran == ["pretrain", "make_masks", "train_doss", "finetune", "eval"]
    for argv in (["run", "--stages", "extend"], ["extend"]):
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
    assert not list(out.glob("extend_*"))


def test_run_stages_run_in_pipeline_order(tiny_manifest, tmp_path):
    # finetune loads the base model, so it can only run after pretrain
    out = tmp_path / "out"
    argv = ["run", "--stages", "finetune", "pretrain", "--config", str(tiny_manifest)]
    assert main(argv + ["--out", str(out)]) == 0
    assert (out / "base.ckpt").exists() and (out / "ft_all.ckpt").exists()


def test_ft_all_ones_preservation_diff_matches_fresh_decodes(tiny_run, tmp_path, monkeypatch):
    man_path, pipe = tiny_run
    for name in ("base.ckpt", "base.reg", "doss.ckpt", "mask_copy.mask", "mask_reverse.mask"):
        (tmp_path / name).write_bytes((pipe.out / name).read_bytes())
    pipe2 = Pipeline(load_manifest(man_path), tmp_path)
    calls = []

    def spy(lam, base, maskset, *args, **kwargs):
        out = real(lam, base, maskset, *args, **kwargs)
        calls.append((lam, base, maskset, out[0]))
        return out

    real = training.extend_domain
    monkeypatch.setattr(training, "extend_domain", spy)
    assert pipe2.extend(mode="ft_all_ones") is True
    [(lam, base, maskset, lam2)] = calls
    man = pipe2.man
    expect = []
    for ds in pipe2.eval_sets():
        mask = maskset.get(ds.domain_id)
        pre, post = (decode_dataset(masks.overlay(base, p, mask), man.model, ds,
                                    man.eval_max_len, man.eval_batch) for p in (lam, lam2))
        expect += [f"{ds.domain_id}\t{i}\t{trim_eos(a)}\t{trim_eos(b)}"
                   for i, (a, b) in enumerate(zip(pre, post)) if trim_eos(a) != trim_eos(b)]
    lines = (pipe2.extend_dir("ft_all_ones") / "preservation_diff.txt").read_text().splitlines()
    assert lines and lines == expect


def test_extend_report_scores_the_checkpoint_on_disk(tiny_run, tmp_path, monkeypatch):
    man_path, pipe = tiny_run
    for name in ("base.ckpt", "base.reg", "doss.ckpt", "mask_copy.mask", "mask_reverse.mask"):
        (tmp_path / name).write_bytes((pipe.out / name).read_bytes())
    pipe2 = Pipeline(load_manifest(man_path), tmp_path)
    scored = []

    def spy(variants, *args, **kwargs):
        scored.extend(v for v in variants if v.name.startswith("extended["))
        return real(variants, *args, **kwargs)

    real = evaluation.eval_matrix
    monkeypatch.setattr(evaluation, "eval_matrix", spy)
    assert pipe2.extend(mode="ft_all_ones") is True
    on_disk = load_checkpoint(pipe2.extend_dir("ft_all_ones") / "extended.ckpt").checksum()
    assert len(scored) == 2  # old domains, then the new one
    assert all(v.params.checksum() == on_disk for v in scored)


def test_disjoint_mask_stage_emits_zero_overlaps(tiny_run):
    man_path, pipe = tiny_run
    disjoint = man_path.with_name("tiny_disjoint.ini")
    disjoint.write_text(TINY.replace("[masks]\n", "[masks]\ndisjoint = true\n"))
    out2 = pipe.out.parent / "run_disjoint"
    pipe2 = Pipeline(load_manifest(disjoint), out2)
    assert pipe2.man.masks_disjoint
    pipe2.pretrain()
    pipe2.make_masks()
    stats = (out2 / "mask_stats.csv").read_text().splitlines()
    header = stats[1].split(",")
    for line in stats[2:]:
        row = dict(zip(header, line.split(",")))
        if row["domain_a"] != row["domain_b"]:
            assert row["shared_ones"] == "0"


def test_sweep_single_point_and_sorted_rows(tiny_run):
    man_path, pipe = tiny_run
    pipe2 = Pipeline(load_manifest(man_path), pipe.out)
    pipe2.sweep()
    lines = (pipe.out / "sweep.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 1  # 1x1 grid -> a single row
    assert data[0].startswith("0.5,0.5,ok")


def test_sweep_records_dosserrors_and_reraises_bugs(tiny_run, tmp_path, monkeypatch):
    man_path, pipe = tiny_run
    for name in ("base.ckpt", "base.reg"):
        (tmp_path / name).write_bytes((pipe.out / name).read_bytes())
    pipe2 = Pipeline(load_manifest(man_path), tmp_path)

    def raising(exc):
        def train_full(*args, **kwargs):
            raise exc
        return train_full

    monkeypatch.setattr(training, "train_full", raising(TypeError("bug")))
    with pytest.raises(TypeError):
        pipe2.sweep()
    monkeypatch.setattr(training, "train_full", raising(NumericsError("diverged")))
    assert pipe2.sweep() is True
    data = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    assert len(data) == 1 and data[0].startswith("0.5,0.5,failed")


def test_sweep_finetunes_each_domain_once(tmp_path, monkeypatch):
    # the mask finetune does not depend on (alpha, beta): one per domain
    # serves the whole grid
    text = TINY.replace("alphas = 0.5", "alphas = 0.5 0.6").replace("steps = 10", "steps = 4")
    man_path = tmp_path / "m.ini"
    man_path.write_text(text, encoding="utf-8")
    pipe = Pipeline(load_manifest(man_path), tmp_path / "out")
    pipe.pretrain()
    calls = []
    train_full = training.train_full

    def counting(start, data, *args, **kwargs):
        calls.append(data.domain_id)
        return train_full(start, data, *args, **kwargs)

    monkeypatch.setattr(training, "train_full", counting)
    assert pipe.sweep() is True
    assert sorted(calls) == ["copy", "reverse"]
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
    assert [r.split(",")[2] for r in rows] == ["ok", "ok"]


@pytest.mark.parametrize("disjoint", ["false", "true"])
def test_sweep_at_the_masks_fractions_trains_the_masks_make_masks_writes(tmp_path, monkeypatch,
                                                                         disjoint):
    text = (TINY.replace("alphas = 0.5", "alphas = 0.6").replace("betas = 0.5", "betas = 0.6")
            .replace("steps = 10", "steps = 2")
            .replace("[masks]\n", f"[masks]\ndisjoint = {disjoint}\n"))
    man_path = tmp_path / "m.ini"
    man_path.write_text(text, encoding="utf-8")
    pipe = Pipeline(load_manifest(man_path), tmp_path / "out")
    assert (pipe.man.prune.alpha, pipe.man.prune.beta) == (0.6, 0.6)
    pipe.pretrain()
    pipe.make_masks()
    trained = []
    train_doss = training.train_doss

    def spy(lam0, maskset, *args, **kwargs):
        trained.append(maskset)
        return train_doss(lam0, maskset, *args, **kwargs)

    monkeypatch.setattr(training, "train_doss", spy)
    assert pipe.sweep() is True
    [swept] = trained
    assert list(swept) == list(pipe.load_masks())
    assert (overlap_stats(swept).shared_ones[0, 1] == 0) == (disjoint == "true")


def test_sweep_rows_sorted_by_alpha_beta(tmp_path):
    text = TINY.replace("alphas = 0.5", "alphas = 0.6 0.4").replace(
        "betas = 0.5", "betas = 0.5").replace("steps = 10", "steps = 4")
    man_path = tmp_path / "m.ini"
    man_path.write_text(text, encoding="utf-8")
    pipe = Pipeline(load_manifest(man_path), tmp_path / "out")
    pipe.pretrain()
    pipe.sweep()
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")][1:]
    pairs = [tuple(map(float, l.split(",")[:2])) for l in data]
    assert pairs == sorted(pairs)


def test_sweep_correlation_matches_reference_fixture():
    fixture = Path(__file__).parent / "fixtures" / "sweep_reference.csv"
    with open(fixture) as fh:
        rows = list(csv.DictReader(fh))
    alphas = [(float(r["alpha"]), float(r["avg_bleu"])) for r in rows]
    betas = [(float(r["beta"]), float(r["avg_bleu"])) for r in rows]
    assert sweep_correlation(alphas) == pytest.approx(-0.74, abs=0.05)
    assert sweep_correlation(betas) == pytest.approx(-0.54, abs=0.05)


def test_sweep_correlation_degenerate_is_nan():
    assert np.isnan(sweep_correlation([(0.5, 1.0), (0.5, 2.0)]))
    assert np.isnan(sweep_correlation([]))


def test_cli_main_smoke(tiny_manifest, tmp_path):
    rc = main(["pretrain", "--config", str(tiny_manifest),
               "--out", str(tmp_path / "o"), "--threads", "1"])
    assert rc == 0
    assert (tmp_path / "o" / "base.ckpt").exists()
    rc = main(["pretrain", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "o2")])
    assert rc == 2
