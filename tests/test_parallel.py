"""parallel_map: the pooled path against the serial one, and its failure
modes; partner in the caller and in a forked process.

Each test fixes the CPU count these see by patching os.sched_getaffinity,
so both paths run on any host: {0} gives the in-process loop and {0, 1}
two forked workers, or partner's forked process.
"""

import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import lungfuse
from lungfuse import classify as cl
from lungfuse import parallel
from lungfuse import pipeline as pl
from lungfuse import tabular as tb
from lungfuse.cli import main
from lungfuse.errors import NumericalError, WorkerError
from lungfuse.images import write_pgm
from lungfuse.parallel import parallel_map, partner, shared_array
from lungfuse.phantom import PhantomConfig, generate
from tabular_cells import decode, encode

SERIAL, POOLED = {0}, {0, 1}


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def _tree_bytes(root) -> dict:
    root = pathlib.Path(root)
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_parallel_map_keeps_order_and_forks_only_with_two_cpus(monkeypatch):
    _cpus(monkeypatch, SERIAL)
    assert parallel_map(lambda x: (x * x, os.getpid()), range(5)) == [
        (x * x, os.getpid()) for x in range(5)
    ]
    _cpus(monkeypatch, POOLED)
    out = parallel_map(lambda x: (x * x, os.getpid()), range(5))
    assert [v for v, _ in out] == [x * x for x in range(5)]
    assert os.getpid() not in {pid for _, pid in out}
    # a map inside a worker runs in that worker
    inner = parallel_map(lambda x: parallel_map(lambda _: os.getpid(), range(3)), range(2))
    assert all(len(set(pids)) == 1 for pids in inner)
    assert multiprocessing.active_children() == []


def test_first_failure_raises_and_cancels_tasks_not_started(monkeypatch, tmp_path):
    _cpus(monkeypatch, POOLED)

    def task(i):
        if i == 0:
            raise NumericalError("task 0 failed")
        time.sleep(0.1)
        (tmp_path / str(i)).touch()

    with pytest.raises(NumericalError, match="task 0 failed"):
        parallel_map(task, range(20))
    assert len(list(tmp_path.iterdir())) < 10
    assert multiprocessing.active_children() == []


def test_an_idle_worker_takes_the_next_task(monkeypatch):
    _cpus(monkeypatch, POOLED)

    def task(i):
        if i == 0:
            time.sleep(0.5)
        return i, os.getpid()

    out = parallel_map(task, range(8))
    assert [i for i, _ in out] == list(range(8))
    slow, rest = out[0][1], {pid for _, pid in out[1:]}
    assert len(rest) == 1 and slow not in rest  # the other worker ran tasks 1-7 meanwhile
    assert multiprocessing.active_children() == []


def test_killed_worker_raises_worker_error(monkeypatch):
    _cpus(monkeypatch, POOLED)

    def task(i):
        if i == 3:
            os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer would
        return i

    with pytest.raises(WorkerError, match="a worker process died before its task finished"):
        parallel_map(task, range(8))
    assert multiprocessing.active_children() == []


def test_fused_dir_and_comparison_are_identical_serial_and_pooled(monkeypatch, tmp_path):
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=18, image_size=32, seed=3), ds)
    doc = pl.resolve_config({"classify": {"model": "logreg"}, "evaluate": {"k": 3}})
    assert doc["fusion"]["register"]
    trees, comparisons = [], []
    for cpus in (SERIAL, POOLED):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"fused-{len(cpus)}"
        out.mkdir()
        pl.compute_fused_dir(ds, out, doc)
        trees.append(_tree_bytes(out))
        comp = pl.evaluate_dataset(ds, out, doc)
        comparisons.append({name: rep.to_dict() for name, rep in comp.items()})
    assert len(trees[0]) == 19  # 18 fused images and transforms.json
    assert trees[0] == trees[1]
    assert comparisons[0] == comparisons[1]
    assert multiprocessing.active_children() == []


def test_fold_tasks_are_identical_serial_and_pooled(monkeypatch):
    ds = _table_with_rare_category(40)
    cfg = cl.ClassifyConfig()  # the default mlp head
    seen = []
    for cpus in (SERIAL, POOLED):
        _cpus(monkeypatch, cpus)
        comp = cl.compare_modalities(ds, seed=2, k=5, cfg=cfg)
        one = cl.kfold_evaluate(ds, inputs=("fused", "tabular"), k=5, cfg=cfg, seed=2)
        seen.append([json.dumps(rep.to_dict(), sort_keys=True) for rep in [*comp.values(), one]])
    assert seen[0] == seen[1]
    assert seen[0][3] == seen[0][4]  # kfold_evaluate's folds are the comparison's multimodal ones
    assert multiprocessing.active_children() == []


def test_reports_do_not_depend_on_how_heads_are_stacked(monkeypatch):
    # top_k 6: the multimodal heads keep 6 columns, the others all 4 they
    # have, so the heads fall into stacks of two widths
    ds = _table_with_rare_category(40)
    cfg = cl.ClassifyConfig(top_k=6, boost=tb.BoostConfig(n_estimators=5), epochs=20,
                            batch_size=16)
    split, train = cl._stacks, cl.train_mlp
    seen, runs, planned, trained = [], [], [], []

    def recorded(shapes):
        seen.append(sorted(set(shapes)))
        chunks = split(shapes)
        planned.extend((len(chunk), *shapes[chunk[0]]) for chunk in chunks)
        return chunks

    def train_recorded(x, labels, cfg):
        trained.append(np.shape(x))  # in forked workers this list is the worker's
        return train(x, labels, cfg)

    def by_shape_last_first(shapes):
        groups = {}
        for i, shape in enumerate(shapes):
            groups.setdefault(shape, []).append(i)
        return [idx[::-1] for idx in reversed(groups.values())]

    monkeypatch.setattr(cl, "_stacks", recorded)
    monkeypatch.setattr(cl, "train_mlp", train_recorded)
    for cpus, stack in ((SERIAL, cl._STACK), (POOLED, cl._STACK), (SERIAL, 1), (POOLED, 2),
                        (SERIAL, 20)):
        _cpus(monkeypatch, cpus)
        monkeypatch.setattr(cl, "_STACK", stack)
        planned.clear()
        trained.clear()
        runs.append(cl.compare_modalities(ds, seed=2, k=5, cfg=cfg))
        if cpus == SERIAL:
            # the planned (heads, rows, columns) of each stack are the matrix train_mlp trains
            assert trained == planned and sum(n for n, _, _ in planned) == 20
    monkeypatch.setattr(cl, "_stacks", by_shape_last_first)
    runs.append(cl.compare_modalities(ds, seed=2, k=5, cfg=cfg))
    assert {d for _, d in seen[0]} == {4, 6}
    docs = [{name: rep.to_dict() for name, rep in comp.items()} for comp in runs]
    assert all(doc == docs[0] for doc in docs[1:])
    assert multiprocessing.active_children() == []


def test_each_head_is_fitted_once_in_one_map(monkeypatch):
    _cpus(monkeypatch, SERIAL)
    calls = {}

    def counted(name):
        real = getattr(cl, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cl, name, wrapper)

    for name in ("fit_preprocess", "smote", "boosted_importance", "parallel_map"):
        counted(name)
    cl.compare_modalities(_table_with_rare_category(40), k=5)
    # 4 input sets x 5 folds
    assert calls == {"fit_preprocess": 20, "smote": 20, "boosted_importance": 20,
                     "parallel_map": 1}


@pytest.mark.parametrize("cpus", [SERIAL, POOLED], ids=["serial", "forked"])
def test_partner_returns_both_and_raises_the_callers_error_first(monkeypatch, children, cpus):
    _cpus(monkeypatch, cpus)
    before = children(os.getpid())

    def g(x, fail=False):
        if fail:
            raise NumericalError("from g")
        return x * 10, os.getpid()

    with partner(g) as pair:
        assert [(a, b) for a, (b, _) in (pair(lambda: i, i) for i in range(3))] == [
            (0, 0), (1, 10), (2, 20)
        ]
        assert (pair(lambda: 1, 2)[1][1] == os.getpid()) == (cpus == SERIAL)
        with pytest.raises(NumericalError, match="from g"):
            pair(lambda: 1, 2, True)
        with pytest.raises(ZeroDivisionError):  # the caller's error comes first
            pair(lambda: 1 / 0, 2, True)
        assert pair(lambda: 3, 4)[1][0] == 40  # each call still gets its own reply
    assert children(os.getpid()) == before
    with pytest.raises(ZeroDivisionError):
        with partner(g) as pair:
            pair(lambda: 1 / 0, 2)
    assert children(os.getpid()) == before


@pytest.mark.parametrize("found", [True, False], ids=["openblas", "other-blas"])
def test_partner_forks_with_two_cpus_and_an_openblas_found(monkeypatch, found):
    # another BLAS's threads could compete with the partner for the CPUs
    _cpus(monkeypatch, POOLED)
    if found and parallel._blas() is None:
        pytest.skip("numpy's BLAS here is not an OpenBLAS")
    if not found:
        monkeypatch.setattr(parallel, "_blas", lambda: None)
    with partner(os.getpid) as pair:
        mine, theirs = pair(os.getpid)
    assert mine == os.getpid()
    assert (theirs != mine) == found
    assert os.getpid() not in parallel_map(lambda _: os.getpid(), range(2))  # forks either way


_PARTNER_AT_LOADED_COUNT = """
import json, os
from lungfuse import parallel

get = parallel._blas()[0]
seen = {"loaded": get()}
with parallel.partner(lambda: (os.getpid(), get())) as pair:
    (mine, a), (theirs, b) = pair(lambda: (os.getpid(), get()))
seen.update(forked=mine != theirs, pair=[a, b], after=get())
print(json.dumps(seen))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
@pytest.mark.parametrize(
    "openblas,omp,at_one",
    [(None, None, False), ("1", None, True), (None, "1", True), ("2", "1", False), ("4", None, False)],
)
def test_partner_forks_only_with_blas_at_one_thread(openblas, omp, at_one):
    # whatever count the variables load BLAS at, the partner forks and both
    # halves run at one thread; the caller's count is put back after the block
    if parallel._blas() is None:
        pytest.skip("numpy's BLAS here is not an OpenBLAS")
    src = pathlib.Path(lungfuse.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is not None:
            env[var] = value
    out = subprocess.run(
        [sys.executable, "-c", _PARTNER_AT_LOADED_COUNT], env={**env, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    seen = json.loads(out.stdout)
    assert (seen["loaded"] == 1) == at_one
    assert seen == {"loaded": seen["loaded"], "forked": True, "pair": [1, 1], "after": seen["loaded"]}


_BLAS_REGIONS = """
import json, os
from lungfuse import parallel

get = parallel._blas()[0]
seen = {"loaded": get(), "map": parallel.parallel_map(lambda _: get(), range(2))}
seen["after map"] = get()
try:
    parallel.parallel_map(lambda _: 1 / 0, range(2))
except ZeroDivisionError:
    seen["after failed map"] = get()
with parallel.partner(get) as pair:
    seen["pair"] = pair(get)
seen["after partner"] = get()
try:
    with parallel.partner(get) as pair:
        pair(lambda: 1 / 0)
except ZeroDivisionError:
    seen["after failed partner"] = get()
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
with parallel.partner(get) as pair:  # in this process, at one thread too
    seen["serial pair"] = pair(get)
seen["after serial partner"] = get()
print(json.dumps(seen))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_forked_maps_and_partner_blocks_hold_openblas_at_one_thread():
    if parallel._blas() is None:
        pytest.skip("numpy's BLAS here is not an OpenBLAS")
    src = pathlib.Path(lungfuse.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _BLAS_REGIONS],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "2"},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(out.stdout) == {
        "loaded": 2, "map": [1, 1], "after map": 2, "after failed map": 2,
        "pair": [1, 1], "after partner": 2, "after failed partner": 2,
        "serial pair": [1, 1], "after serial partner": 2,
    }


def test_killed_partner_raises_worker_error(monkeypatch, children):
    _cpus(monkeypatch, POOLED)
    before = children(os.getpid())

    def killed():
        os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer would

    with pytest.raises(WorkerError, match="the partner process died before its half finished"):
        with partner(killed) as pair:
            pair(lambda: 1)
    assert children(os.getpid()) == before


def test_shared_array_carries_writes_both_ways(monkeypatch):
    _cpus(monkeypatch, POOLED)
    a = shared_array((2, 3))
    assert a.dtype == np.float64 and not a.any()

    def g(i):
        a[1, i] = a[0, i] + 1.0

    with partner(g) as pair:
        for i in range(3):
            a[0, i] = 10.0 * i
            pair(lambda: None, i)
    assert a.tolist() == [[0.0, 10.0, 20.0], [1.0, 11.0, 21.0]]


def _table_with_rare_category(n=24):
    rng = np.random.default_rng(4)
    y = np.array([0, 1] * (n // 2))
    labels = ["adeno" if v == 0 else "squam" for v in y]
    cols = [
        tb.ColumnSpec("age", "numeric"),
        tb.ColumnSpec("site", "categorical", ("upper", "lower", "hilar")),
    ]
    rows = [[50.0 + 5.0 * y[i] + rng.normal(), "upper" if i % 3 else "lower"] for i in range(n)]
    rows[7][1] = "hilar"  # once only: the fold that tests this row never trains on it
    tab = encode(cols, rows, labels)
    images = {m: rng.normal(0, 1, (n, 4)) + y[:, None] for m in ("ct", "fused")}
    return cl.MMDataset(labels, tab, images)


def _fit_seen_categories_only(train):
    """fit_preprocess with each category set cut to the values the split holds."""
    rows = decode(train)
    seen = {v for row in rows for v in row}
    cols = [
        tb.ColumnSpec(c.name, c.kind, tuple(v for v in c.categories if v in seen))
        for c in train.columns
    ]
    return tb.fit_preprocess(encode(cols, rows, train.labels))


def test_worker_warnings_reach_the_caller_in_task_order(monkeypatch, recwarn):
    monkeypatch.setattr(cl, "fit_preprocess", _fit_seen_categories_only)
    ds = _table_with_rare_category()
    cfg = cl.ClassifyConfig(model="logreg", top_k=4, boost=tb.BoostConfig(n_estimators=5))
    shown = {}
    for action in ("always", "default"):
        seen = []
        for cpus in (SERIAL, POOLED):
            _cpus(monkeypatch, cpus)
            warnings.simplefilter(action)  # a filter change also forgets what was shown
            recwarn.clear()
            cl.compare_modalities(ds, seed=1, k=3, cfg=cfg)
            seen.append([(w.category, str(w.message), w.filename, w.lineno) for w in recwarn])
        assert seen[1] == seen[0]
        shown[action] = sum("unseen category 'hilar'" in s[1] for s in seen[0])
    # tabular-only and multimodal each warn; "default" shows the repeat once
    assert shown == {"always": 2, "default": 1}


def test_worker_error_reaches_the_cli_with_its_type(monkeypatch, capsys, tmp_path):
    _cpus(monkeypatch, POOLED)
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=20, image_size=32, seed=1), ds)  # enough for 2 folds
    write_pgm(np.full((32, 32), 0.5), ds / "images" / "pt0002_pet.pgm")
    # the constant PET must reach registration as it is, not through the denoiser
    rc = main(["compare", "--dataset", str(ds), "--out-dir", str(tmp_path / "cmp"),
               "--set", "denoise.enabled=false", "--set", "evaluate.k=2"])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_worker_error_in_run_names_the_stage(monkeypatch, capsys, tmp_path):
    _cpus(monkeypatch, POOLED)

    def flat(fixed, moving):
        raise NumericalError("no correlation signal")

    monkeypatch.setattr(pl, "align", flat)
    rc = main(["run", "--out", str(tmp_path / "w"), "--set", "phantom.n_patients=20",
               "--set", "denoise.enabled=false", "--set", "evaluate.k=2"])
    err = capsys.readouterr().err
    assert rc == 4
    assert "error: stage fuse: no correlation signal" in err
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["compare", "run"])
def test_killed_worker_exits_3_with_one_error_line(monkeypatch, capfd, tmp_path, command):
    _cpus(monkeypatch, POOLED)
    caller = os.getpid()

    def killed(fixed, moving):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer would
        raise AssertionError("the registration ran in the calling process")

    monkeypatch.setattr(pl, "align", killed)
    ds = tmp_path / "ds"
    generate(PhantomConfig(n_patients=20, image_size=32, seed=1), ds)  # enough for 2 folds
    args = {
        "compare": ["compare", "--dataset", str(ds), "--out-dir", str(tmp_path / "cmp")],
        "run": ["run", "--out", str(tmp_path / "w"), "--set", "phantom.n_patients=20",
                "--set", "denoise.enabled=false"],
    }[command]
    rc = main(args + ["--set", "evaluate.k=2"])
    err = capfd.readouterr().err
    assert rc == 3
    errors = [line for line in err.splitlines() if not line.startswith("[")]  # not stage logs
    assert len(errors) == 1
    assert errors[0].startswith("error: stage fuse: a worker process died before its task finished")
    assert "(hint:" not in err
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigint_during_fuse_exits_2_and_leaves_no_workers(tmp_path, children):
    src = pathlib.Path(lungfuse.__file__).resolve().parents[1]
    cpus = sorted(os.sched_getaffinity(0))[:2]  # at most 2 workers: the stage lasts seconds
    proc = subprocess.Popen(
        [sys.executable, "-m", "lungfuse.cli", "run", "--out", str(tmp_path / "w"),
         "--set", "phantom.n_patients=60", "--set", "denoise.enabled=false"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    try:
        assert proc.stderr.readline().startswith("[phantom]")
        # the fuse stage runs next; wait for its workers where there are CPUs for them
        workers, deadline = set(), time.monotonic() + 10
        while len(cpus) > 1 and not workers and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = children(proc.pid)
        time.sleep(0.3)
        assert proc.poll() is None, "the fuse stage ended before the interrupt"
        proc.send_signal(signal.SIGINT)
        rc = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stderr.close()
    assert rc == 2
    assert "Traceback" not in err
    assert "[fuse]" not in err  # interrupted before the stage finished
    assert not [pid for pid in workers if pathlib.Path(f"/proc/{pid}").exists()]
