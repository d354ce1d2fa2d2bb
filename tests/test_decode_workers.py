"""Decoding an eval set across worker processes: the same bits for every
participant count, typed errors, and no worker left behind."""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import doss
from doss import evaluation
from doss.data import DomainDataset, SyntheticTask, gen_domain
from doss.errors import DossError, NumericsError, WorkerError
from doss.evaluation import Variant, close_decoders, decode_dataset, eval_matrix
from doss.masks import DomainMask, MaskSet, PruneSpec
from doss.model import EOS_ID, ModelConfig, build_model
from support import region_pool

SRC_ROOT = str(Path(doss.__file__).resolve().parents[1])


def _mini():
    cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=16)
    store, layout = build_model(cfg, seed=11)
    return cfg, store, layout


@pytest.fixture(scope="module")
def trained():
    from doss.training import TrainConfig, train_full

    cfg, store, layout = _mini()
    ds = gen_domain(SyntheticTask("copy", content_hi=14, min_len=2, max_len=4, seed=5),
                    120, domain_id="copy")
    lam = train_full(store, ds, TrainConfig(3e-3, 30, 96, 0.1, max_steps=600, seed=7), cfg)
    other = gen_domain(SyntheticTask("reverse", content_hi=14, min_len=1, max_len=6, seed=6),
                       45, domain_id="reverse")
    return cfg, store, layout, lam, [ds, other]


ONE_BLAS_THREAD = {var: "1" for var in doss.BLAS_THREAD_VARS}


@pytest.fixture
def cpus(monkeypatch):
    """Set the participant count P: `cpus(P)` gives P CPUs and one BLAS thread."""
    def set_cpus(n):
        monkeypatch.setattr(evaluation, "usable_cpus", lambda: n)
        for var, value in ONE_BLAS_THREAD.items():
            monkeypatch.setenv(var, value)
    return set_cpus


def test_pool_decodes_equal_one_participant_bit_for_bit(trained, cpus):
    # 120 and 45 sentences in batches of 24: 5 and 2 batches
    cfg, _, _, lam, sets = trained
    cpus(1)
    serial = [decode_dataset(lam, cfg, ds, max_len=8, batch_size=24) for ds in sets]
    assert len({len(h) for h in serial[0]}) > 1  # rows end at different steps
    for n in (2, 3, 4):
        cpus(n)
        assert [decode_dataset(lam, cfg, ds, max_len=8, batch_size=24) for ds in sets] == serial
    assert len(evaluation._DECODERS) == 3


def test_eval_matrix_reports_equal_one_participant_in_every_field(trained, cpus):
    cfg, base, layout, lam, sets = trained
    r = np.random.default_rng(3)
    masks = MaskSet([DomainMask(ds.domain_id,
                                {name: r.random(int(np.prod(shape))) < 0.5
                                 for name, shape in region_pool(layout)},
                                PruneSpec(0.5, 0.5)) for ds in sets])
    variants = [Variant("ft", lam, trainable=7),
                Variant("doss", lam, base=base, masks=masks, trainable=5)]
    reports = []
    for n in (1, 3):
        cpus(n)
        reports.append(eval_matrix(variants, sets, cfg, max_len=8, batch_size=24))
    one, pool = reports
    assert pool.domain_ids == one.domain_ids
    assert pool.rows == one.rows  # every cell's bleu, exact_match, n_sentences and hyps
    for (_, cells, _), (_, ref, _) in zip(pool.rows, one.rows):
        for d in one.domain_ids:
            assert repr(cells[d].bleu) == repr(ref[d].bleu)
            assert repr(cells[d].exact_match) == repr(ref[d].exact_match)
    assert pool.to_csv() == one.to_csv() and pool.to_markdown() == one.to_markdown()


def _random_masks(layout, domains, seed):
    r = np.random.default_rng(seed)
    return MaskSet([DomainMask(d, {name: r.random(int(np.prod(shape))) < 0.5
                                   for name, shape in region_pool(layout)},
                               PruneSpec(0.5, 0.5)) for d in domains])


def test_a_matrix_of_one_batch_cells_equals_one_participant(trained, cpus):
    # as in the micro manifest: several variants, each eval set one batch
    cfg, base, layout, lam, sets = trained
    small = [DomainDataset(ds.domain_id, ds.pairs[:20]) for ds in sets]
    small.append(DomainDataset("copy_b", sets[0].pairs[20:44]))
    variants = [Variant("base", base, trainable=9), Variant("ft", lam, trainable=7),
                Variant("doss", lam, base=base,
                        masks=_random_masks(layout, [ds.domain_id for ds in small], 4),
                        trainable=5)]
    reports = []
    for n in (1, 2, 3):
        close_decoders()
        cpus(n)
        reports.append(eval_matrix(variants, small, cfg, max_len=8, batch_size=24))
        assert len(evaluation._DECODERS) == n - 1
    one = reports[0]
    for pool in reports[1:]:
        assert pool.domain_ids == one.domain_ids
        assert pool.rows == one.rows
        for (_, cells, _), (_, ref, _) in zip(pool.rows, one.rows):
            for d in one.domain_ids:
                assert repr(cells[d].bleu) == repr(ref[d].bleu)
                assert repr(cells[d].exact_match) == repr(ref[d].exact_match)
        assert pool.to_csv() == one.to_csv() and pool.to_markdown() == one.to_markdown()


def test_the_caller_decodes_batch_j_mod_p_of_the_flat_matrix(monkeypatch, cpus):
    # a caller-side patch marks the batches that the caller decodes
    cfg, store, _ = _mini()
    sets = [_five_batches(domain=d) for d in ("c", "d")]
    variants = [Variant("a", store), Variant("b", store)]
    cpus(1)
    want = eval_matrix(variants, sets, cfg, max_len=4, batch_size=2)
    monkeypatch.setattr(evaluation, "greedy_decode",
                        lambda p, c, src, n: [[EOS_ID]] * src.shape[0])

    def callers_batches(report):
        return [[i for i in range(5)
                 if cells[ds.domain_id].hyps[2 * i:2 * i + 2]
                 != want.cell(name, ds.domain_id).hyps[2 * i:2 * i + 2]]
                for name, cells, _ in report.rows for ds in sets]

    # 4 cells of 5 batches: flat batch j = 5 * cell + batch goes to j mod P
    cpus(3)
    assert callers_batches(eval_matrix(variants, sets, cfg, max_len=4, batch_size=2)) \
        == [[0, 3], [1, 4], [2], [0, 3]]
    cpus(2)
    assert callers_batches(eval_matrix(variants, sets, cfg, max_len=4, batch_size=2)) \
        == [[0, 2, 4], [1, 3], [0, 2, 4], [1, 3]]
    # one-batch cells: the caller decodes cells 0, 2, 4 ... of the grid
    one_batch = [DomainDataset(d, _five_batches().pairs[:2]) for d in ("c", "d", "e")]
    got = eval_matrix(variants, one_batch, cfg, max_len=4, batch_size=2)
    assert [cells[ds.domain_id].hyps == [[], []] for _, cells, _ in got.rows
            for ds in one_batch] == [True, False, True, False, True, False]


def test_a_deal_merges_only_its_own_next_cell(cpus):
    cfg, store, _ = _mini()
    sets = [_five_batches(domain=d) for d in ("c", "d")]
    cpus(2)
    deal = evaluation._Deal([(store, ds, evaluation._batches(ds, 2)) for ds in sets], cfg, 4)
    with pytest.raises(DossError, match="the deal's next cell is another store or set"):
        decode_dataset(store, cfg, sets[1], max_len=4, batch_size=2, deal=deal)
    assert evaluation._DECODERS == []  # the worker owed replies for both cells


def test_a_failure_mid_matrix_raises_the_lowest_and_leaves_no_stale_reply(cpus):
    # the broken variant's cell (broken, d) has non-finite embeddings in
    # batches 1 and 3; cells after it still owe replies when it raises
    cfg, store, _ = _mini()
    sets = [_five_batches(domain="c"), _five_batches({1: 9, 3: 9}, domain="d")]
    broken = store.copy()
    broken.array("enc.embed")[9] = np.nan
    clean = [Variant("clean", store), Variant("after", store)]
    cpus(1)
    want = eval_matrix(clean, sets, cfg, max_len=4, batch_size=2)
    for n in (1, 2, 3):
        close_decoders()
        cpus(n)
        assert eval_matrix(clean, sets, cfg, max_len=4, batch_size=2).rows == want.rows
        pids = [w.proc.pid for w in evaluation._DECODERS]
        variants = [clean[0], Variant("broken", broken), clean[1]]
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError) as caught:
            eval_matrix(variants, sets, cfg, max_len=4, batch_size=2)
        # flat batch 16 = cell 3, batch 1: the caller for P = 1 and 2,
        # the first worker for P = 3 (where the caller fails at batch 3)
        where = f"decode worker {pids[0]}" if n == 3 else "the calling process"
        assert str(caught.value) == "non-finite logits at decode step 0"
        assert caught.value.__notes__[-2:] == [
            f"decode_dataset: batch 1 of 5, decoded in {where}",
            "eval_matrix: variant 'broken', domain 'd'"]
        if n > 1:  # the replies owed for cells 4 and 5 went with their workers
            assert evaluation._DECODERS == []
        assert eval_matrix(clean, sets, cfg, max_len=4, batch_size=2).rows == want.rows


def test_a_worker_killed_mid_matrix_raises_worker_error(monkeypatch, cpus):
    # the worker is stopped before the matrix is dealt and killed while the
    # caller decodes its first batch, so it dies owing every reply
    cfg = ModelConfig(vocab_size=14, d_model=8, ffn_dim=16, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=16)
    store, _ = build_model(cfg, seed=11)  # small enough that a task fits in a pipe
    sets = [_five_batches(domain=d) for d in ("c", "d")]
    variants = [Variant("a", store)]
    cpus(1)
    want = eval_matrix(variants, sets, cfg, max_len=4, batch_size=2)
    cpus(3)
    assert eval_matrix(variants, sets, cfg, max_len=4, batch_size=2).rows == want.rows
    dead = evaluation._DECODERS[1].proc
    os.kill(dead.pid, signal.SIGSTOP)
    real = evaluation.greedy_decode

    def kill_first(p, c, src, n):
        if dead.poll() is None:
            dead.kill()
            dead.wait()
        return real(p, c, src, n)

    monkeypatch.setattr(evaluation, "greedy_decode", kill_first)
    with pytest.raises(WorkerError, match=f"decode worker {dead.pid} stopped"):
        eval_matrix(variants, sets, cfg, max_len=4, batch_size=2)
    assert evaluation._DECODERS == []
    assert eval_matrix(variants, sets, cfg, max_len=4, batch_size=2).rows == want.rows


@pytest.fixture
def sent(monkeypatch):
    """The tasks sent to decode workers, in order."""
    tasks = []
    real = evaluation._Decoder.send

    def record(self, task):
        tasks.append(task)
        return real(self, task)

    monkeypatch.setattr(evaluation._Decoder, "send", record)
    return tasks


def test_each_distinct_vector_crosses_once_per_matrix(trained, sent, cpus):
    cfg, _, _, lam, sets = trained
    three = sets + [DomainDataset("copy_b", sets[0].pairs[:40])]
    cpus(2)
    eval_matrix([Variant("ft", lam)], three, cfg, max_len=8, batch_size=24)
    assert len(sent) == 1  # one task for the one worker
    assert len(pickle.dumps(sent[0], pickle.HIGHEST_PROTOCOL)) < 2 * lam.vector.nbytes


def test_a_worker_is_sent_only_the_vectors_of_its_cells(trained, sent, cpus):
    # 3 variants x 1 one-batch set: the caller decodes cells 0 and 2, the worker cell 1
    cfg, base, _, lam, sets = trained
    other = lam.copy()
    other.vector[0] += 1.0
    one_batch = [DomainDataset("copy", sets[0].pairs[:20])]
    variants = [Variant("base", base), Variant("ft", lam), Variant("other", other)]
    cpus(1)
    want = eval_matrix(variants, one_batch, cfg, max_len=8, batch_size=24)
    cpus(2)
    assert eval_matrix(variants, one_batch, cfg, max_len=8, batch_size=24).rows == want.rows
    assert [batches != [] for *_, batches in sent[0][2]] == [False, True, False]
    assert len(pickle.dumps(sent[0], pickle.HIGHEST_PROTOCOL)) < 2 * lam.vector.nbytes


def test_one_batch_or_one_cpu_starts_no_worker(cpus):
    cfg, store, _ = _mini()
    ds = gen_domain(SyntheticTask("copy", content_hi=14, min_len=1, max_len=6, seed=4),
                    9, domain_id="c")
    close_decoders()
    cpus(4)
    decode_dataset(store, cfg, ds, max_len=4, batch_size=9)
    cpus(1)
    decode_dataset(store, cfg, ds, max_len=4, batch_size=2)
    assert evaluation._DECODERS == []
    cpus(4)
    decode_dataset(store, cfg, ds, max_len=4, batch_size=3)  # 3 batches: 2 workers
    assert len(evaluation._DECODERS) == 2


@pytest.mark.parametrize("threads, want", [
    ({}, 1),  # BLAS sizes its pool to the CPUs: no worker
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": "x"}, 1),
    (ONE_BLAS_THREAD, 4),  # capped by the batch count
])
def test_participants_times_blas_threads_never_exceed_the_cpus(monkeypatch, threads, want):
    cfg, store, _ = _mini()
    ds = gen_domain(SyntheticTask("copy", content_hi=14, min_len=1, max_len=6, seed=4),
                    8, domain_id="c")
    close_decoders()
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 5)
    for var in doss.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in threads.items():
        monkeypatch.setenv(var, value)
    try:
        decode_dataset(store, cfg, ds, max_len=4, batch_size=2)  # 4 batches
        assert len(evaluation._DECODERS) == want - 1
    finally:
        close_decoders()


def _five_batches(marks=None, domain="c"):
    """Ten pairs of domain `domain` in batches of two; the first source of
    batch i starts with token marks[i] where `marks` has one."""
    a, b = np.array([5, 6]), np.array([6, 5, 7])
    marks = marks or {}
    pairs = []
    for i in range(5):
        pairs += [(np.array([marks[i], 5]) if i in marks else a, a), (b, b)]
    return DomainDataset(domain, pairs)


def test_a_workers_numerics_error_reaches_the_caller(cpus):
    # batch 1 goes to the first worker whenever P > 1
    cfg, store, _ = _mini()
    ds = _five_batches({1: 9})
    cpus(1)
    clean = decode_dataset(store, cfg, ds, max_len=4, batch_size=2)
    broken = store.copy()
    broken.array("enc.embed")[9] = np.nan
    for n in (1, 2, 3):
        cpus(n)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericsError) as caught:
            decode_dataset(broken, cfg, ds, max_len=4, batch_size=2)
        assert str(caught.value) == "non-finite logits at decode step 0"
        where = (f"decode worker {evaluation._DECODERS[0].proc.pid}" if n > 1
                 else "the calling process")
        notes = caught.value.__notes__
        assert notes[-1] == f"decode_dataset: batch 1 of 5, decoded in {where}"
        if n > 1:  # the worker's own frames come back as text
            assert notes[0].startswith("worker traceback") and "greedy_decode" in notes[0]
        assert decode_dataset(store, cfg, ds, max_len=4, batch_size=2) == clean


def test_the_lowest_failing_batch_raises_for_every_participant_count(monkeypatch, cpus):
    # batch 1 has a non-finite embedding; batch 2 fails in the caller's own
    # greedy_decode only. One loop stops at batch 1, and so does the merge
    # for every P, although with P = 2 the caller fails at batch 2 as well
    cfg, store, _ = _mini()
    ds = _five_batches({1: 9, 2: 10})
    broken = store.copy()
    broken.array("enc.embed")[9] = np.nan
    real = evaluation.greedy_decode

    def failing(p, c, src, n):
        if (src == 10).any():
            raise DossError("the caller's batch 2")
        return real(p, c, src, n)

    monkeypatch.setattr(evaluation, "greedy_decode", failing)
    for n in (1, 2, 3):
        cpus(n)
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
            decode_dataset(broken, cfg, ds, max_len=4, batch_size=2)
    cpus(2)
    with pytest.raises(DossError, match="the caller's batch 2"):
        decode_dataset(store, cfg, ds, max_len=4, batch_size=2)


def test_a_dead_worker_raises_worker_error_and_the_next_call_starts_anew(cpus):
    cfg, store, _ = _mini()
    ds = _five_batches()
    cpus(1)
    want = decode_dataset(store, cfg, ds, max_len=4, batch_size=2)
    cpus(3)
    assert decode_dataset(store, cfg, ds, max_len=4, batch_size=2) == want
    dead = evaluation._DECODERS[1].proc
    dead.kill()
    dead.wait()
    with pytest.raises(WorkerError, match=f"decode worker {dead.pid} stopped"):
        decode_dataset(store, cfg, ds, max_len=4, batch_size=2)
    assert evaluation._DECODERS == []
    assert decode_dataset(store, cfg, ds, max_len=4, batch_size=2) == want
    assert dead.pid not in [w.proc.pid for w in evaluation._DECODERS]


@pytest.mark.parametrize("started", ["before", "after"])
def test_a_monkeypatch_in_the_caller_never_reaches_a_worker(monkeypatch, cpus, started):
    # workers are new interpreters, not forks: a patch in the caller, made
    # before or after they start, changes only the caller's own batches
    cfg, store, _ = _mini()
    ds = _five_batches()
    cpus(1)
    want = decode_dataset(store, cfg, ds, max_len=4, batch_size=2)
    cpus(3)
    if started == "before":
        decode_dataset(store, cfg, ds, max_len=4, batch_size=2)
    else:
        close_decoders()
    monkeypatch.setattr(evaluation, "greedy_decode",
                        lambda p, c, src, n: [[EOS_ID]] * src.shape[0])
    got = decode_dataset(store, cfg, ds, max_len=4, batch_size=2)
    same = [got[i:i + 2] == want[i:i + 2] for i in range(0, 10, 2)]
    assert same == [False, True, True, False, True]  # the caller's are batches 0 and 3
    assert got[0:2] == got[6:8] == [[EOS_ID]] * 2


def test_workers_inherit_the_callers_blas_thread_settings(monkeypatch, cpus):
    # `doss --threads N` sets these variables in the caller's environment
    if not Path("/proc/self/environ").exists():
        pytest.skip("needs /proc")
    cfg, store, _ = _mini()
    close_decoders()
    cpus(4)
    for var in doss.BLAS_THREAD_VARS:  # 4 CPUs // 2 BLAS threads: 2 participants
        monkeypatch.setenv(var, "2")
    try:
        decode_dataset(store, cfg, _five_batches(), max_len=4, batch_size=2)
        environ = Path(f"/proc/{evaluation._DECODERS[0].proc.pid}/environ").read_bytes()
    finally:
        close_decoders()
    want = {f"{k}={v}".encode() for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    assert {f"{var}=2".encode() for var in doss.BLAS_THREAD_VARS} <= want
    assert want <= set(environ.split(b"\0"))


_PARENT = """
import os, signal, sys
import numpy as np
from doss import evaluation
from doss.data import DomainDataset
from doss.model import ModelConfig, build_model

evaluation.usable_cpus = lambda: 3
cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                  n_dec_layers=1, n_heads=2, max_len=16)
store, _ = build_model(cfg, seed=11)
pair = (np.array([5, 6]), np.array([5, 6]))
evaluation.decode_dataset(store, cfg, DomainDataset("c", [pair] * 6), 4, 2)
print(*[w.proc.pid for w in evaluation._DECODERS], flush=True)
if sys.stdin.readline().strip() == "stop workers":  # or it is killed while it waits
    # a stopped worker does not see its stdin end: only the parent stops it
    for worker in evaluation._DECODERS:
        os.kill(worker.proc.pid, signal.SIGSTOP)
"""


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has exited


@pytest.mark.parametrize("end", ["exit", "sigkill"])
def test_no_worker_outlives_its_parent(end):
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc")
    env = dict(os.environ, **ONE_BLAS_THREAD,
               PYTHONPATH=os.pathsep.join([SRC_ROOT, os.environ.get("PYTHONPATH", "")]))
    parent = subprocess.Popen([sys.executable, "-c", _PARENT], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, env=env, text=True)
    try:
        pids = [int(p) for p in parent.stdout.readline().split()]
        assert len(pids) == 2 and all(_running(p) for p in pids)
        if end == "sigkill":
            parent.send_signal(signal.SIGKILL)
        else:
            parent.stdin.write("stop workers\n")
        parent.stdin.close()
        assert parent.wait(timeout=60) == (-signal.SIGKILL if end == "sigkill" else 0)
        if end == "sigkill":  # each worker sees its stdin end and exits
            deadline = time.monotonic() + 20
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        parent.stdout.close()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
