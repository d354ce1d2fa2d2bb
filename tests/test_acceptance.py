"""Acceptance suite: every criterion at its stated tolerance, one line each.

The expensive criteria share one pipeline built from configs/desk.ini. Its
working directory defaults to .cache/acceptance under the repo root so that
repeated runs validate against cached stages; set DOSS_ACCEPT_DIR to move it,
or delete the directory to recompute from scratch.
"""

import csv
import dataclasses
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from doss import autograd as ag
from doss.data import SyntheticTask, gen_domain
from doss.errors import ConfigError
from doss.evaluation import corpus_bleu
from doss.manifest import load_manifest
from doss.masks import PruneSpec, load_mask, magnitude_prune
from doss.model import (ModelConfig, PAD_ID, build_model, count_params, forward,
                        load_checkpoint)
from doss.training import TrainConfig
from support import capacity, is_pairwise_disjoint, pool_size, region_ones, region_pool

REPO = Path(__file__).resolve().parent.parent
MANIFEST = REPO / "configs" / "desk.ini"

H = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def rounded(scores: dict) -> dict:
    """`scores` with each value rounded to 3 places, for a readable report line."""
    return {k: round(v, 3) for k, v in scores.items()}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def pipe():
    from doss.cli import Pipeline

    out = Path(os.environ.get("DOSS_ACCEPT_DIR", REPO / ".cache" / "acceptance"))
    return Pipeline(load_manifest(MANIFEST), out)


@pytest.fixture(scope="session")
def trained(pipe):
    pipe.pretrain()
    pipe.make_masks()
    pipe.train_doss()
    return pipe


def read_report(path: Path) -> dict[tuple[str, str], dict]:
    rows = {}
    with open(path) as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        for row in reader:
            rows[(row["variant"], row["domain"])] = row
    return rows


# --------------------------------------------------------------------------
# 1. gradient correctness (ops are covered coordinate-by-coordinate in
#    test_autograd; here the full mini-transformer loss gets the same check)
# --------------------------------------------------------------------------


def test_criterion_1_gradients_match_finite_differences():
    cfg = ModelConfig(vocab_size=12, d_model=8, ffn_dim=16, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=8)
    store, _ = build_model(cfg, seed=21)
    src = np.array([[5, 6, 7], [8, 9, 0]])
    tgt_in = np.array([[1, 5, 6], [1, 8, 9]])
    tgt_out = np.array([[5, 6, 2], [8, 9, 2]])

    def loss_value() -> float:
        with ag.no_grad():
            logits = forward(store, cfg, src, tgt_in)
            return float(ag.cross_entropy(logits, tgt_out[tgt_in != PAD_ID]).data)

    loss = ag.cross_entropy(forward(store, cfg, src, tgt_in), tgt_out[tgt_in != PAD_ID])
    grads = ag.backward(loss)

    worst = 0.0
    checked = 0
    for name, tensor in store.items():
        arr = tensor.data
        ana = grads.get(name, np.zeros_like(arr))
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + H
            fp = loss_value()
            arr[i] = orig - H
            fm = loss_value()
            arr[i] = orig
            num = (fp - fm) / (2 * H)
            err = abs(ana[i] - num)
            bound = REL_TOL * max(abs(ana[i]), abs(num)) + ABS_FLOOR
            worst = max(worst, err / max(bound, 1e-300))
            checked += 1
            assert err <= bound, f"{name}[{i}]: analytic {ana[i]:.3e} vs fd {num:.3e}"
    report(1, True, f"full transformer loss: {checked} coordinates, "
                    f"worst err/bound {worst:.3f} (rel tol {REL_TOL}, h={H})")


# --------------------------------------------------------------------------
# 2. mask density on the standard fraction grid, against a full sort oracle
# --------------------------------------------------------------------------


def test_criterion_2_mask_density_grid():
    from doss.model import ParamStore

    r = np.random.default_rng(2024)
    # every tensor is a matrix, so maskable; its region follows its prefix
    tensors = {"enc.a": (17, 9), "enc.b": (31,  7), "dec.a": (23, 5), "dec.b": (13, 11)}
    store = ParamStore({n: ag.Tensor(r.normal(size=s), name=n) for n, s in tensors.items()})
    layout = store.layout

    def oracle(region, frac):
        entries = []
        for name, _ in sorted(region_pool(layout, region)):
            for idx, v in enumerate(np.abs(store.array(name)).ravel()):
                entries.append((-v, name, idx))
        entries.sort()
        return {(n, i) for _, n, i in entries[:int(round((1 - frac) * len(entries)))]}

    grid = [0.4, 0.5, 0.6, 0.8, 0.9]
    checked = 0
    for alpha in grid:
        for beta in grid:
            mask = magnitude_prune(store, layout, PruneSpec(alpha, beta), "d")
            for region, frac in (("encoder", alpha), ("decoder", beta)):
                pool = pool_size(layout, region)
                ones = region_ones(mask, layout, region)
                assert abs(ones - round((1 - frac) * pool)) <= 1
                got = {(name, int(j)) for name, _ in region_pool(layout, region)
                       for j in np.flatnonzero(mask.bits[name])}
                assert got == oracle(region, frac)
                checked += 1
    report(2, True, f"{checked} region/fraction cells match round((1-f)*pool) "
                    f"within 1 and equal the full-sort oracle")


# --------------------------------------------------------------------------
# 3. disjoint construction and unconstrained overlap (the cached mask finetunes)
# --------------------------------------------------------------------------


def test_criterion_3_disjointness(trained):
    from doss.cli import Pipeline
    from doss.masks import overlap_stats

    # make_masks' own code under [masks] disjoint, over the cached mask finetunes
    man = trained.man
    disjoint = Pipeline(dataclasses.replace(man, masks_disjoint=True), trained.out)
    built = disjoint._domain_masks(trained.load_base(), man.prune)
    assert is_pairwise_disjoint(built)
    inter = [int((a.bits[n] & b.bits[n]).sum())
             for i, a in enumerate(built) for b in list(built)[i + 1:] for n in a.bits]
    assert max(inter) == 0

    unconstrained = trained.load_masks()
    assert built.ids() == unconstrained.ids()
    subsets = all(not np.any(d.vector & ~u.vector) for d, u in zip(built, unconstrained))
    assert subsets
    stats = overlap_stats(unconstrained)
    n = len(unconstrained)
    off_diag = [(stats.shared_ones[i, j], stats.jaccard[i, j])
                for i in range(n) for j in range(i + 1, n)]
    assert all(shared > 0 for shared, _ in off_diag)
    assert all(0.0 < jac < 1.0 for _, jac in off_diag)
    report(3, True, f"3 disjoint masks, popcounts {[m.popcount() for m in built]}: all "
                    f"pairwise intersections 0, each within its domain's unconstrained mask: "
                    f"{subsets}; unconstrained overlaps nonzero with jaccard "
                    f"{[round(float(j), 3) for _, j in off_diag]} (each strictly < 1)")


# --------------------------------------------------------------------------
# 4. frozen-share invariant after joint training
# --------------------------------------------------------------------------


def test_criterion_4_frozen_share_bit_identical(trained):
    lam0 = trained.load_base()
    lam = load_checkpoint(trained.doss_ckpt)
    union = trained.load_masks().union_bits()
    frozen_elems = 0
    for name, t in lam0.items():
        if name in union:
            never = ~union[name].reshape(t.data.shape)
            assert t.data[never].tobytes() == lam.array(name)[never].tobytes(), name
            frozen_elems += int(never.sum())
        else:
            assert t.data.tobytes() == lam.array(name).tobytes(), name
            frozen_elems += t.data.size
    report(4, True, f"{frozen_elems} never-masked elements bit-identical to the base "
                    f"(checksum equality per tensor)")


# --------------------------------------------------------------------------
# 5. exact preservation under disjoint extension
# --------------------------------------------------------------------------


def test_criterion_5_disjoint_extension_preserves_decodes(trained):
    trained.finetune()  # not needed for this criterion but keeps stage order
    trained.extend(mode="new_only_disjoint")
    diff = trained.extend_dir("new_only_disjoint") / "preservation_diff.txt"
    size = diff.stat().st_size
    report(5, size == 0, f"pre/post greedy decodes on all pre-existing domains "
                         f"token-for-token identical (diff file {size} bytes)")


# --------------------------------------------------------------------------
# 6. multi-domain separation pattern
# --------------------------------------------------------------------------


def test_criterion_6_multi_domain_separation(trained):
    man = trained.man
    total = count_params(trained.load_base().layout)["total"]
    assert 100_000 <= total <= 1_000_000
    assert man.prune.alpha == 0.6 and man.prune.beta == 0.6
    trained.finetune()
    trained.evaluate()
    rows = read_report(trained.out / "report.csv")
    domains = [d.name for d in man.domains]

    doss = {d: float(rows[("doss", d)]["exact_match"]) for d in domains}
    ok_a = all(v >= 0.8 for v in doss.values())

    allft_avg = float(rows[("ft_all", "average")]["exact_match"])
    ok_b = allft_avg <= 0.5

    ft_own = {d: float(rows[(f"ft_{d}", d)]["exact_match"]) for d in domains}
    ft_cross = {(v, d): float(rows[(f"ft_{v}", d)]["exact_match"])
                for v in domains for d in domains if v != d}
    ok_c = all(v >= 0.9 for v in ft_own.values()) and all(v <= 0.2 for v in ft_cross.values())

    detail = (f"doss EM {rounded(doss)} (all >= 0.8: {ok_a}); "
              f"all-FT avg EM {allft_avg:.3f} (<= 0.5: {ok_b}); "
              f"per-domain FT own {rounded(ft_own)} >= 0.9 and cross max "
              f"{max(ft_cross.values()):.3f} <= 0.2: {ok_c}")
    report(6, ok_a and ok_b and ok_c, detail)


# --------------------------------------------------------------------------
# 7. extension quality pattern
# --------------------------------------------------------------------------


def test_criterion_7_extension_quality(trained):
    from doss.cli import Pipeline

    man = trained.man
    trained.extend(mode="new_only_disjoint")
    trained.extend(mode="new_only_unconstrained")
    # ft_all_ones trains 1,500 steps: a manifest copy whose [extend] says so
    ext_1500 = dataclasses.replace(man.train["extend"], max_steps=1500)
    Pipeline(dataclasses.replace(man, train={**man.train, "extend": ext_1500}),
             trained.out).extend(mode="ft_all_ones")
    new_dom = man.extension.name
    domains = [d.name for d in man.domains]

    def em(mode, domain):
        rows = read_report(trained.extend_dir(mode) / "report.csv")
        return float(rows[(f"extended[{mode}]", domain)]["exact_match"])

    em_dis = em("new_only_disjoint", new_dom)
    em_unc = em("new_only_unconstrained", new_dom)
    gap = abs(em_unc - em_dis)
    ok_gap = gap <= 0.05

    rows_ft = read_report(trained.extend_dir("ft_all_ones") / "report.csv")
    drops = {}
    for d in domains:
        before = float(rows_ft[("doss", d)]["exact_match"])
        after = float(rows_ft[(f"extended[ft_all_ones]", d)]["exact_match"])
        drops[d] = before - after
    ok_drop = max(drops.values()) >= 0.2

    report(7, ok_gap and ok_drop,
           f"new-domain EM disjoint {em_dis:.3f} vs unconstrained {em_unc:.3f} "
           f"(gap {gap:.3f} <= 0.05: {ok_gap}); ft_all_ones EM drops {rounded(drops)} "
           f"(max >= 0.2: {ok_drop})")


# --------------------------------------------------------------------------
# 8. trainable-parameter accounting
# --------------------------------------------------------------------------


def test_criterion_8_trainable_counts(trained):
    layout = trained.load_base().layout
    man = trained.man
    new_dom = man.extension.name

    mismatches = []
    popcounts = {}
    for mode in ("new_only_disjoint", "new_only_unconstrained", "ft_all_ones"):
        mask = load_mask(trained.extend_dir(mode) / f"mask_{new_dom}.mask")
        # independent popcount: sum of per-bitset integer sums
        independent = int(sum(int(b.astype(np.int64).sum()) for b in mask.bits.values()))
        counted = count_params(layout, mask)["masked_ones"]
        reported = int(read_report(trained.extend_dir(mode) / "report.csv")
                       [(f"extended[{mode}]", new_dom)]["trainable"])
        popcounts[mode] = independent
        if not independent == counted == reported:
            mismatches.append((mode, independent, counted, reported))
    ok_eq = not mismatches
    ok_less = popcounts["new_only_disjoint"] < popcounts["new_only_unconstrained"]
    report(8, ok_eq and ok_less,
           f"reported trainable counts equal mask popcounts {popcounts} "
           f"(exact integers); disjoint < unconstrained: {ok_less}")


# --------------------------------------------------------------------------
# 9. BLEU oracle agreement
# --------------------------------------------------------------------------


def test_criterion_9_bleu_oracle():
    rng = np.random.default_rng(5)
    corpora = [[list(rng.integers(0, 9, size=rng.integers(1, 9)))
                for _ in range(rng.integers(1, 7))] for _ in range(25)]
    for corpus in corpora:
        assert corpus_bleu(corpus, [list(s) for s in corpus]) == pytest.approx(100.0)
    hyp, ref = [["the", "the", "the"]], [["the", "cat"]]
    got = corpus_bleu(hyp, ref)
    # independent hand count: clipped p1 = 1/3, smoothed p2 = 1/3, p3 = 1/2,
    # p4 = 1, brevity penalty 1
    expect = 100.0 * (1 / 3 * 1 / 3 * 1 / 2 * 1.0) ** 0.25
    ok = abs(got - expect) <= 1e-9
    report(9, ok, f"corpus_bleu(h,h)=100 on 25 random corpora; hand-counted "
                  f"example {got:.9f} vs oracle {expect:.9f} (|diff| <= 1e-9)")


# --------------------------------------------------------------------------
# 10. determinism of pipeline stages
# --------------------------------------------------------------------------


def test_criterion_10_stage_reruns_bit_identical(tmp_path, trained):
    from doss.cli import Pipeline

    micro = REPO / "configs" / "micro.ini"
    outs = []
    for sub in ("a", "b"):
        p = Pipeline(load_manifest(micro), tmp_path / sub)
        p.run()
        p.sweep()
        outs.append(tmp_path / sub)
    files_a = sorted(x.relative_to(outs[0]) for x in outs[0].rglob("*") if x.is_file())
    files_b = sorted(x.relative_to(outs[1]) for x in outs[1].rglob("*") if x.is_file())
    assert files_a == files_b
    diffs = [str(rel) for rel in files_a
             if (outs[0] / rel).read_bytes() != (outs[1] / rel).read_bytes()]
    ok_tiny = not diffs

    # one desk-scale stage rerun: masks regenerated from the cached base
    redo = tmp_path / "masks_redo"
    redo.mkdir()
    for name in ("base.ckpt", "base.ckpt.meta", "base.reg", "base.reg.meta"):
        (redo / name).write_bytes((trained.out / name).read_bytes())
    p = Pipeline(load_manifest(MANIFEST), redo)
    p.make_masks()
    same_mask = all(
        (redo / f"mask_{d.name}.mask").read_bytes()
        == (trained.out / f"mask_{d.name}.mask").read_bytes()
        for d in trained.man.domains)
    report(10, ok_tiny and same_mask,
           f"full micro pipeline rerun: {len(files_a)} artifacts bit-identical "
           f"(diffs: {diffs}); desk-scale mask stage rerun bit-identical: {same_mask}")


# --------------------------------------------------------------------------
# 11. capacity formula over the standard grid
# --------------------------------------------------------------------------


def test_criterion_11_capacity_formula():
    grid = [0.4, 0.5, 0.6, 0.8, 0.9]
    checked = []
    for alpha in grid:
        for beta in grid:
            got = capacity(PruneSpec(alpha, beta))
            expect = math.floor(min(Fraction(1) / (1 - Fraction(alpha)),
                                    Fraction(1) / (1 - Fraction(beta))))
            assert got == expect, (alpha, beta, got, expect)
            checked.append(got)
    with pytest.raises(ConfigError):
        capacity(PruneSpec(1.0, 0.6))
    report(11, True, f"floor(min(1/(1-a), 1/(1-b))) matches exact rational "
                     f"arithmetic on the 5x5 grid: {sorted(set(checked))}")
