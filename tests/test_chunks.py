"""The row-chunk passes on worker threads: every output bitwise the one a
single thread gives, errors named as a single thread names them, and workers
that survive fork, CPU pinning and interpreter exit."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import screenkhorn
from screenkhorn import (
    CostMatrix,
    DiscreteMeasure,
    GibbsKernel,
    InputError,
    NumericRangeError,
    SolverConfig,
    decimation_to_budget,
    divergence,
    DualPotentials,
    generate_gaussian_pair,
    gibbs_kernel,
    pairwise_euclidean,
    screenkhorn as solve,
    sinkhorn,
)
from screenkhorn import core
from screenkhorn.cli import write_matrix
from screenkhorn.core import _CHUNK_ENTRIES, _EXP_UNDERFLOW, _marginals, _row_chunks
from screenkhorn.screened import _FULL_LAYOUT_SHARE, build_problem
from screenkhorn.screening import Budget, active_sets, epsilon_kappa, ratio_vectors

from conftest import write_measures

ROWS_PER_CHUNK = _CHUNK_ENTRIES // 1000
SHAPES = {
    "one chunk": (5, 7),
    "odd chunk count": (5 * ROWS_PER_CHUNK, 1000),
    "partial last chunk": (4 * ROWS_PER_CHUNK + 7, 1000),
    "one row per chunk": (3, _CHUNK_ENTRIES + 3),
}
# inline: no worker thread, as in a process pinned to one CPU. racing: up to
# three workers, more than this host's cores, and every pass of two chunks or
# more on several threads. workers first: the caller starts late, so the
# workers take most chunks and the caller folds their stored results
MODES = ("inline", "racing", "workers first")


@contextmanager
def chunk_workers(mode, monkeypatch, cpus=4):
    """Passes as on a process with `cpus` usable CPUs (one when inline), from
    a pool with no worker started, which is stopped again afterwards."""
    core._stop_workers()
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1 if mode == "inline" else cpus)
    # Sinkhorn's passes too take chunks of _CHUNK_ENTRIES, so every mode
    # splits them alike
    monkeypatch.setattr(core, "_SCALING_CHUNK_ENTRIES", _CHUNK_ENTRIES)
    if mode != "inline":
        monkeypatch.setattr(core, "_CHUNKS_PER_THREAD", 1)
    if mode == "workers first":
        run_front = core._Pass._run_front

        def late(self, fold):
            time.sleep(0.005)
            run_front(self, fold)

        monkeypatch.setattr(core._Pass, "_run_front", late)
    try:
        yield
    finally:
        monkeypatch.undo()
        core._stop_workers()


def run_in(mode, monkeypatch, fn, *args):
    with chunk_workers(mode, monkeypatch):
        return fn(*args)


def bits(*arrays) -> list[bytes]:
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


def cost(shape, seed=0):
    n, m = shape
    return np.random.default_rng(seed).uniform(0.0, 3.0, size=(n, m))


class TestChunkPass:
    def test_fold_order_and_one_run_per_chunk_under_stress(self, monkeypatch):
        # eight workers on this host's cores and a switch interval of a
        # microsecond: a chunk run twice, skipped or folded out of order
        # breaks the sequence
        n = 500
        ran = np.zeros(n, dtype=int)
        folded = []

        def step(rows):
            np.add.at(ran, np.arange(rows.start, rows.stop), 1)
            return rows.start

        interval = sys.getswitchinterval()
        with chunk_workers("racing", monkeypatch, cpus=9):
            try:
                sys.setswitchinterval(1e-6)
                deadline = time.monotonic() + 20.0
                for _ in range(50):
                    core._chunk_pass(n, _CHUNK_ENTRIES, step, folded.append)
                    assert time.monotonic() < deadline
            finally:
                sys.setswitchinterval(interval)
            assert len(core._threads) == 8
        assert folded == list(range(n)) * 50
        assert np.all(ran == 50)

    def test_workers_take_chunks_from_the_back(self, monkeypatch):
        # the caller's first chunk waits until a worker has run one. The pool
        # is started by a pass before: workers that the measured pass had to
        # start could claim every chunk, chunk 0 too, while the caller starts
        # the next one
        threads = {}
        worker_ran = threading.Event()

        def step(rows):
            name = threading.current_thread().name
            if name.startswith("screenkhorn-chunks-"):
                worker_ran.set()
            else:
                assert worker_ran.wait(30)
            threads[rows.start] = name
            return rows.start

        folded = []
        with chunk_workers("racing", monkeypatch):
            core._chunk_pass(40, _CHUNK_ENTRIES, lambda rows: None)
            core._chunk_pass(40, _CHUNK_ENTRIES, step, folded.append)
        assert folded == list(range(40))
        assert threads[0] == threading.current_thread().name
        assert threads[39].startswith("screenkhorn-chunks-")

    def test_workers_run_under_the_callers_error_state(self, monkeypatch):
        # only workers divide by zero; the caller waits until one has
        worker_ran = threading.Event()

        def step(rows):
            if threading.current_thread().name.startswith("screenkhorn-chunks-"):
                worker_ran.set()
                return np.float64(1.0) / np.zeros(1)
            assert worker_ran.wait(30)

        with chunk_workers("racing", monkeypatch):
            with np.errstate(divide="raise"):
                with pytest.raises(FloatingPointError):
                    core._chunk_pass(8, _CHUNK_ENTRIES, step)
            worker_ran.clear()
            with np.errstate(divide="ignore"):
                core._chunk_pass(8, _CHUNK_ENTRIES, step)

    def test_pass_drops_its_arrays(self, monkeypatch):
        # a worker job still queued after the pass must not keep the pass's
        # arrays alive
        with chunk_workers("racing", monkeypatch):
            one_pass = core._Pass(list(_row_chunks(4, 10)), lambda rows: rows)
            one_pass.run(None)
        assert one_pass.step is None and one_pass.results is None

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_each_thread_gets_a_full_share_of_chunks(self, threads, monkeypatch):
        # a pass of k shares of _CHUNKS_PER_THREAD chunks, and one chunk short
        # of k + 1, is handed to k - 1 workers only, and starts no more. The
        # pass runs as on four usable CPUs, so the CPUs do not bound it
        share = core._CHUNKS_PER_THREAD
        handed = []
        help_ = core._Pass.help

        def recording_help(one_pass):
            handed.append(one_pass)
            help_(one_pass)

        monkeypatch.setattr(core._Pass, "help", recording_help)
        folded = []
        with chunk_workers("racing", monkeypatch):
            monkeypatch.setattr(core, "_CHUNKS_PER_THREAD", share)
            core._chunk_pass(
                (threads + 1) * share - 1, _CHUNK_ENTRIES, lambda rows: rows.start,
                folded.append,
            )
            started = len(core._threads)
        # stopping the workers runs every job still queued
        assert folded == list(range((threads + 1) * share - 1))
        assert (len(handed), started) == (threads - 1, threads - 1)

    @pytest.mark.parametrize(
        "factor, chunks, threads", [(16, 3, 1), (16, 4, 2), (64, 1, 1), (64, 2, 2)]
    )
    def test_larger_chunks_share_by_entries(self, factor, chunks, threads, monkeypatch):
        # chunks of `factor` default chunks' entries, as Sinkhorn's passes
        # take: a thread gets the entries of _CHUNKS_PER_THREAD default
        # chunks and at least one chunk, so a one-chunk pass runs inline
        handed = []
        help_ = core._Pass.help

        def recording_help(one_pass):
            handed.append(one_pass)
            help_(one_pass)

        monkeypatch.setattr(core._Pass, "help", recording_help)
        folded = []
        with chunk_workers("racing", monkeypatch):
            monkeypatch.setattr(core, "_CHUNKS_PER_THREAD", 32)
            core._chunk_pass(
                chunks * factor, _CHUNK_ENTRIES, lambda rows: rows.start,
                folded.append, factor * _CHUNK_ENTRIES,
            )
            started = len(core._threads)
        assert folded == list(range(0, chunks * factor, factor))
        assert (len(handed), started) == (threads - 1, threads - 1)

    @pytest.mark.skipif(core._usable_cpus() < 2, reason="needs two usable CPUs")
    def test_a_64_chunk_pass_starts_one_worker(self):
        # one chunk short of two threads' shares starts none
        def workers():
            return [t.name for t in threading.enumerate() if t.name.startswith("screenkhorn-")]

        core._stop_workers()
        try:
            core._chunk_pass(63, _CHUNK_ENTRIES, lambda rows: None)
            assert workers() == []
            core._chunk_pass(64, _CHUNK_ENTRIES, lambda rows: None)
            assert workers() == ["screenkhorn-chunks-0"]
        finally:
            core._stop_workers()


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("mode", MODES[1:])
class TestBitwiseAcrossWorkers:
    """Each pass, run on several workers, against the same pass inline."""

    def test_gibbs_kernel(self, shape, mode, monkeypatch):
        C = CostMatrix(cost(shape))
        want = run_in("inline", monkeypatch, gibbs_kernel, C, 0.7)
        got = run_in(mode, monkeypatch, gibbs_kernel, C, 0.7)
        assert bits(got.entries, got.row_sums, got.col_sums) == bits(
            want.entries, want.row_sums, want.col_sums
        )

    def test_kernel_and_cost_checks(self, shape, mode, monkeypatch):
        c = cost(shape, 1)
        k = np.exp(-c)
        want = run_in("inline", monkeypatch, GibbsKernel, k, 1.0)
        got = run_in(mode, monkeypatch, GibbsKernel, k, 1.0)
        assert bits(got.row_sums, got.col_sums) == bits(want.row_sums, want.col_sums)
        assert run_in(mode, monkeypatch, CostMatrix, c).max_norm == c.max()

    def test_marginals_and_divergence(self, shape, mode, monkeypatch):
        C = CostMatrix(cost(shape, 2))
        K = gibbs_kernel(C, 0.5)
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=shape[0]), rng.normal(size=shape[1])
        a, b = np.exp(u), np.exp(v)
        want = run_in("inline", monkeypatch, _marginals, K, a, b)
        assert bits(*run_in(mode, monkeypatch, _marginals, K, a, b)) == bits(*want)
        pot = DualPotentials(u, v)
        want = run_in("inline", monkeypatch, divergence, pot, K, C)
        assert bits(run_in(mode, monkeypatch, divergence, pot, K, C)) == bits(want)

    def test_sinkhorn(self, shape, mode, monkeypatch):
        K = gibbs_kernel(CostMatrix(cost(shape, 5)), 0.5)
        rng = np.random.default_rng(6)
        mu = DiscreteMeasure(rng.exponential(size=shape[0]))
        nu = DiscreteMeasure(rng.exponential(size=shape[1]))
        want = run_in("inline", monkeypatch, sinkhorn, mu, nu, K)
        got = run_in(mode, monkeypatch, sinkhorn, mu, nu, K)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert bits(got.potentials.u, got.potentials.v, got.marginal_violation) == bits(
            want.potentials.u, want.potentials.v, want.marginal_violation
        )

    @pytest.mark.parametrize("normalize", [True, False])
    def test_pairwise_euclidean(self, shape, mode, normalize, monkeypatch):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(shape[0], 2)), rng.normal(size=(shape[1], 2))
        got = run_in(mode, monkeypatch, pairwise_euclidean, x, y, normalize)
        # the whole-array formula the chunked build replaced, bit for bit
        diff = x[:, None, :] - y[None, :, :]
        want = np.sqrt((diff * diff).sum(axis=2))
        if normalize:
            want /= want.max()
        assert bits(got.entries) == bits(want)
        assert got.max_norm == want.max()


def screened_problem(n, budget):
    x, y = generate_gaussian_pair(n, n, 6)
    C = pairwise_euclidean(x, y, True)
    mu = DiscreteMeasure(np.full(n, 1.0 / n))
    K = gibbs_kernel(C, 1.0)
    xi, zeta = ratio_vectors(mu, mu, K)
    eps, kap = epsilon_kappa(xi, zeta, Budget(*decimation_to_budget(n, n, budget)))
    return C, mu, K, active_sets(mu, mu, K, eps, kap)


@pytest.mark.parametrize("mode", MODES[1:])
class TestScreenedAcrossWorkers:
    @pytest.mark.parametrize("budget, full", [(0.3, False), (0.99, True)])
    def test_build_problem(self, mode, budget, full, monkeypatch):
        _, mu, K, sr = screened_problem(1000, budget)
        want = run_in("inline", monkeypatch, build_problem, mu, mu, K, sr)
        got = run_in(mode, monkeypatch, build_problem, mu, mu, K, sr)
        assert (got.matrix is K.entries) is full
        assert (sr.n_active * sr.m_active >= _FULL_LAYOUT_SHARE * 1000 * 1000) is full
        assert bits(got.matrix) == bits(want.matrix)
        assert got.k_min == want.k_min

    def test_full_layout_k_min_off_the_block(self, mode, monkeypatch):
        # K's smallest entry sits in a screened row, so k_min comes from the
        # block; ties of K's minimum in two chunks change nothing
        _, mu, K, sr = screened_problem(1000, 0.99)
        k = K.entries.copy()
        off = np.setdiff1d(np.arange(1000), sr.active_rows)[0]
        k[off, 0] = k[-1, -1] = k.min() / 2.0
        K2 = GibbsKernel(k, 1.0)
        got = run_in(mode, monkeypatch, build_problem, mu, mu, K2, sr)
        assert got.k_min == k[np.ix_(sr.active_rows, sr.active_cols)].min()

    def test_whole_screenkhorn_result(self, mode, monkeypatch):
        C, mu, _, _ = screened_problem(1000, 0.3)
        args = (C, 1.0, mu, mu, 300, 300, SolverConfig(pg_tolerance=1e-6))
        want = run_in("inline", monkeypatch, solve, *args)
        got = run_in(mode, monkeypatch, solve, *args)
        assert bits(
            got.potentials.u, got.potentials.v, got.row_marginal, got.col_marginal,
            got.plan.entries, got.solver_report.solution,
        ) == bits(
            want.potentials.u, want.potentials.v, want.row_marginal, want.col_marginal,
            want.plan.entries, want.solver_report.solution,
        )
        assert (got.k_min, got.bounds, got.solver_report.iterations) == (
            want.k_min, want.bounds, want.solver_report.iterations
        )


@pytest.mark.parametrize("mode", MODES)
class TestErrorPrecedence:
    """With a bad entry in the first chunk and in the last, the first is named;
    with one only in the last, it is named by its global index."""

    SHAPE = SHAPES["partial last chunk"]

    @pytest.mark.parametrize("both", [True, False])
    def test_kernel_check(self, mode, both, monkeypatch):
        n, m = self.SHAPE
        k = np.full((n, m), 0.5)
        k[n - 1, m - 2] = 1.5
        i, j = (1, 3) if both else (n - 1, m - 2)
        k[i, j] = 1.5
        with pytest.raises(InputError, match=rf"kernel entry \({i}, {j}\) = 1.5 "):
            run_in(mode, monkeypatch, GibbsKernel, k, 1.0)

    @pytest.mark.parametrize("both", [True, False])
    def test_kernel_underflow(self, mode, both, monkeypatch):
        n, m = self.SHAPE
        eta = 0.25
        c = np.ones((n, m))
        c[n - 1, m - 2] = eta * 1e6
        i, j = (2, 5) if both else (n - 1, m - 2)
        c[i, j] = eta * 1e6
        assert c.max() / eta >= _EXP_UNDERFLOW
        with pytest.raises(
            NumericRangeError, match=rf"kernel entry \({i}, {j}\) underflowed to zero"
        ):
            run_in(mode, monkeypatch, gibbs_kernel, CostMatrix(c), eta)

    def test_cost_check(self, mode, monkeypatch):
        n, m = self.SHAPE
        c = np.ones((n, m))
        c[0, 1] = -1.0
        c[n - 1, 3] = np.nan
        with pytest.raises(InputError, match=rf"cost entry \({n - 1}, 3\) is not finite"):
            run_in(mode, monkeypatch, CostMatrix, c)
        c[n - 1, 3] = -2.0
        with pytest.raises(InputError, match=r"cost entry \(0, 1\) = -1.0 is negative"):
            run_in(mode, monkeypatch, CostMatrix, c)


SRC = Path(screenkhorn.__file__).resolve().parent.parent
KERNEL_DIGEST = (
    "import hashlib\n"
    "import numpy as np\n"
    "from screenkhorn import gibbs_kernel, generate_gaussian_pair, pairwise_euclidean\n"
    "def kernel_digest():\n"
    "    x, y = generate_gaussian_pair(300, 400, 8)\n"
    "    K = gibbs_kernel(pairwise_euclidean(x, y, True), 0.3)\n"
    "    h = hashlib.sha256()\n"
    "    for a in (K.entries, K.row_sums, K.col_sums):\n"
    "        h.update(a.tobytes())\n"
    "    return h.hexdigest()\n"
)
# one source for the digest, run here and in each fresh interpreter
scope = {}
exec(KERNEL_DIGEST, scope)
kernel_digest = scope["kernel_digest"]


def fresh_interpreter(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def child_report(conn):
    """In a forked child: the kernel's digest and the child's workers, alive
    or not."""
    digest = kernel_digest()
    conn.send((digest, [t.is_alive() for t in core._threads]))
    conn.close()


class TestProcesses:
    def test_forked_child_starts_its_own_workers(self, monkeypatch):
        with chunk_workers("racing", monkeypatch):
            want = kernel_digest()
            ctx = multiprocessing.get_context("fork")
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=child_report, args=(send,))
            child.start()
            send.close()
            assert recv.poll(60), "the forked child sent nothing"
            digest, alive = recv.recv()
            child.join(60)
            assert not child.is_alive()
            assert child.exitcode == 0
        assert digest == want
        # the digest's two chunks, one per thread, need one worker
        assert alive == [True]

    def test_os_fork_child_computes_the_same_bits(self, monkeypatch):
        with chunk_workers("racing", monkeypatch):
            want = kernel_digest()
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: never return into pytest
                try:
                    os.close(read_end)
                    os.write(write_end, kernel_digest().encode())
                finally:
                    os._exit(0)
            os.close(write_end)
            deadline = time.monotonic() + 60
            while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(pid, 9)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child hung")
                time.sleep(0.01)
            with os.fdopen(read_end) as pipe:
                got = pipe.read()
        assert os.waitstatus_to_exitcode(done[1]) == 0
        assert got == want

    def test_pinned_process_runs_inline_with_the_same_bits(self):
        out = fresh_interpreter(
            "import os, threading\n"
            "os.sched_setaffinity(0, {0})\n"
            + KERNEL_DIGEST
            + "from screenkhorn import core\n"
            "print(kernel_digest())\n"
            "print(core._usable_cpus(), threading.active_count())\n"
        )
        assert out == [kernel_digest(), "1 1"]

    def test_workers_are_gone_at_exit(self):
        # atexit runs handlers last in, first out, so this one, registered
        # before the library is imported, runs after the library's
        out = fresh_interpreter(
            "import atexit, threading\n"
            "atexit.register(lambda: print(sorted(t.name for t in threading.enumerate())))\n"
            "from screenkhorn import core\n"
            "core._chunk_pass(64, core._CHUNK_ENTRIES, lambda rows: None)\n"
            "print(len(core._threads) == min(2, core._usable_cpus()) - 1)\n"
        )
        assert out == ["True", "['MainThread']"]

    def test_solves_at_n_1000_start_no_thread(self):
        # every pass of a 1000 x 1000 solve is too short to hand a worker
        # chunks, so none is started
        out = fresh_interpreter(
            "import threading\n"
            "import numpy as np\n"
            "from screenkhorn import (DiscreteMeasure, generate_gaussian_pair,\n"
            "    gibbs_kernel, pairwise_euclidean, screenkhorn, sinkhorn)\n"
            "x, y = generate_gaussian_pair(1000, 1000, 3)\n"
            "C = pairwise_euclidean(x, y, True)\n"
            "mu = DiscreteMeasure(np.full(1000, 1e-3))\n"
            "screenkhorn(C, 1.0, mu, mu, 100, 100)\n"
            "sinkhorn(mu, mu, gibbs_kernel(C, 1.0))\n"
            "print(threading.active_count())\n"
        )
        assert out == ["1"]

    def test_cli_solve_of_a_small_instance_starts_no_thread(self, tmp_path):
        measures, cost = str(tmp_path / "measures.csv"), str(tmp_path / "cost.csv")
        mu = DiscreteMeasure(np.arange(1.0, 21.0))
        write_measures(measures, mu, mu)
        write_matrix(cost, np.random.default_rng(0).uniform(size=(20, 20)))
        out = fresh_interpreter(
            "import threading\n"
            "from screenkhorn.cli import main\n"
            f"main(['solve', '--measures', {measures!r}, '--cost', {cost!r},\n"
            "      '--eta', '1.0'], standalone_mode=False)\n"
            "print(threading.active_count())\n"
        )
        assert out[-1] == "1"

    def test_import_starts_no_thread_and_loads_no_executor(self):
        out = fresh_interpreter(
            "import sys, threading\n"
            "import screenkhorn, screenkhorn.cli\n"
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
        )
        assert out == ["1 False"]
