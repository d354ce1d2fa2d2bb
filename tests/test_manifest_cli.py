"""Manifest parsing, config hashing, pipeline caching, sweep correlations."""

import csv
import os
from pathlib import Path

import numpy as np
import pytest

from doss import evaluation, masks, training
from doss.cli import _THREAD_VARS, Pipeline, artifact_valid, main, sweep_correlation, write_meta
from doss.errors import ConfigError, NumericsError
from doss.evaluation import decode_dataset, trim_eos
from doss.manifest import load_manifest
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
    assert man.prune.alpha == 0.6 and man.prune.ft_epochs == 1
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


def test_manifest_stage_keys_depend_on_seed(tiny_manifest, tmp_path):
    a = load_manifest(tiny_manifest)
    other = tmp_path / "other.ini"
    other.write_text(TINY.replace("seed = 7", "seed = 8", 1), encoding="utf-8")
    b = load_manifest(other)
    assert a.stage_key("pretrain") != b.stage_key("pretrain")
    assert a.stage_key("pretrain") == load_manifest(tiny_manifest).stage_key("pretrain")


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
    want = load_manifest(tiny_manifest)
    assert seen[0].train == want.train
    for stage in ("pretrain", "make_masks", "train_doss", "finetune", "extend", "eval"):
        assert seen[0].stage_key(stage) == want.stage_key(stage)


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--threads=2"]])
def test_cli_threads_overrides_blas_env(flag, tiny_manifest, tmp_path, monkeypatch):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "8")
    monkeypatch.setattr(Pipeline, "pretrain", lambda self: True)
    rc = main(["pretrain", "--config", str(tiny_manifest), "--out", str(tmp_path / "o"), *flag])
    assert rc == 0
    assert [os.environ[var] for var in _THREAD_VARS] == ["2"] * len(_THREAD_VARS)


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


def test_artifact_meta_roundtrip(tmp_path):
    art = tmp_path / "x.bin"
    art.write_bytes(b"payload")
    write_meta(art, "k123", "stage", 5)
    assert artifact_valid(art, "k123")
    assert not artifact_valid(art, "other")
    art.write_bytes(b"tampered")
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


def test_extend_cache_hit_reads_no_data(tiny_run, monkeypatch):
    man_path, pipe = tiny_run

    def ext_sets(self):
        raise AssertionError("a cache hit must not load the extension data")

    monkeypatch.setattr(Pipeline, "ext_sets", ext_sets)
    assert Pipeline(load_manifest(man_path), pipe.out).extend() is False


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
    out2 = pipe.out.parent / "run_disjoint"
    pipe2 = Pipeline(load_manifest(man_path), out2)
    pipe2.pretrain()
    pipe2.make_masks(disjoint=True)
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
        def create_domain_mask(*args, **kwargs):
            raise exc
        return create_domain_mask

    monkeypatch.setattr(masks, "create_domain_mask", raising(TypeError("bug")))
    with pytest.raises(TypeError):
        pipe2.sweep()
    monkeypatch.setattr(masks, "create_domain_mask", raising(NumericsError("diverged")))
    assert pipe2.sweep() is True
    data = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    assert len(data) == 1 and data[0].startswith("0.5,0.5,failed")


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
