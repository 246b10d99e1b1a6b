import errno
import functools
import hashlib
import itertools
import math
import multiprocessing
import os
import random
import signal
import time

import pytest

from braidcovers import groups, perm, search, words
from conftest import collected, full_orbit_check, plain_loop, reversed_pool

EXPECTED_FIXED = {2: 16, 3: 80, 4: 480, 5: 0, 6: 2880}
EXPECTED_ORBITS = {2: 16, 3: 40, 4: 240}


def _keys(solutions):
    return {sol.sort_key() for sol in solutions}


@pytest.mark.parametrize("n,expected", sorted(EXPECTED_FIXED.items()))
def test_fixed_sigma_counts(n, expected):
    res = search.enumerate_fixed_sigma(n)
    assert res.fixed_count == expected
    assert res.transpositions == n * (n - 1) // 2
    assert res.total_count == expected * res.transpositions
    assert res.sigma == perm.transposition(n, 1, 2)


def test_collected_solutions_are_consistent(n4_result):
    res, sols = n4_result
    assert len(sols) == res.fixed_count == 480
    assert len(_keys(sols)) == 480
    for sol in sols[:50]:
        assert sol.sigma == perm.transposition(4, 1, 2)
        assert words.satisfies_all_relations(sol)
        assert groups.is_transitive(
            (sol.sigma, sol.a1, sol.a2, sol.b1, sol.b2), 4)


def test_every_n3_solution_satisfies_relations(n3_result):
    _, sols = n3_result
    assert len(sols) == 80
    for sol in sols:
        assert words.satisfies_all_relations(sol)
        assert groups.is_transitive(
            (sol.sigma, sol.a1, sol.a2, sol.b1, sol.b2), 3)


def test_deterministic_repeat(n4_result):
    again, again_sols = collected(4)
    assert again_sols == n4_result[1]
    assert again.fixed_count == n4_result[0].fixed_count


def test_parallel_matches_single(n6_result):
    for workers in (2, 8):
        par, par_sols = collected(6, workers=workers)
        assert par.fixed_count == n6_result[0].fixed_count == 2880
        assert par_sols == n6_result[1]


@pytest.fixture
def inline_pool(monkeypatch):
    """An in-process stand-in for the forked workers (search._forked),
    which records each pool's requested size and the jobs handed to it,
    so no process is started."""
    requested = []
    submitted = []

    def inline_forked(jobs, size, oom):
        requested.append(size)
        for i, job in enumerate(jobs[1:], 1):
            submitted.append(job)
            yield i, search._search_chunk(job)

    monkeypatch.setattr(search, "_forked", inline_forked)
    return requested, submitted


def test_pool_capped_at_slice_count(inline_pool):
    # every a1 representative is one job; the first, a1 = (), runs in
    # process, and the pool asks for no more worker processes than there
    # are jobs that walk: all the others
    requested, submitted = inline_pool
    s = perm.transposition(4, 1, 2)
    reps = [(a1, size) for _, _, a1, size, _ in _factored_jobs(4, s)]
    res = search.enumerate_fixed_sigma(4, workers=64)
    assert res.fixed_count == 480
    assert reps[0][0] == perm.identity(4)
    assert [(a1, size) for _, _, a1, size, _ in submitted] == reps[1:]
    assert requested == [len(reps) - 1] == [3]
    # each job carries the stabilizer its walk is factored by
    for _, _, a1, _, stab in submitted:
        assert sorted(stab) == _stab(4, s, a1)


def test_single_job_runs_in_process(inline_pool):
    # counts and classes at n = 5 and 7 are one job, and a pool of one
    # worker would only pay for its start-up
    requested, submitted = inline_pool
    for n in (5, 7):
        assert len(_factored_jobs(n, perm.transposition(n, 1, 2))) == 1
    assert search.enumerate_fixed_sigma(5, workers=2).fixed_count == 0
    res, orbits = search.classify(7, workers=2)
    assert res.fixed_count == 0 and orbits == []
    assert requested == [] and submitted == []


def test_list_without_solutions_submits_only_the_count_jobs(
        inline_pool, monkeypatch):
    # degree 9 has no solution: a streaming run runs the two factored
    # jobs of a count in process, as only one of them walks, reports
    # their slices and hands the sink nothing
    requested, submitted = inline_pool
    ran = []
    chunk = search._search_chunk
    monkeypatch.setattr(search, "_search_chunk",
                        lambda job: ran.append(job) or chunk(job))
    ticks = []
    res = search.enumerate_fixed_sigma(9, sink=_refuse, workers=2,
                                       progress=lambda i, m: ticks.append(i))
    assert res.fixed_count == 0
    assert ran == _factored_jobs(9, perm.transposition(9, 1, 2))
    assert requested == [] and submitted == []
    assert ticks == [1, 2]


def test_one_walking_job_starts_no_pool(inline_pool):
    # at degrees 3 and 9 there are two jobs, and a1 = () walks nothing,
    # so counts, classes and streaming runs on two workers stay in process
    requested, submitted = inline_pool
    for n in (3, 9):
        assert len(_factored_jobs(n, perm.transposition(n, 1, 2))) == 2
    res, orbits = search.classify(9, workers=2)
    assert res.fixed_count == 0 and orbits == []
    assert search.enumerate_fixed_sigma(
        9, workers=2, sink=_refuse).fixed_count == 0
    assert search.enumerate_fixed_sigma(3, workers=2).fixed_count == 80
    assert requested == [] and submitted == []


@pytest.mark.parametrize("n", range(2, 8))
def test_plain_jobs_are_the_solution_a1(n, monkeypatch):
    # the plain order is written one a1 block at a time: a run that keeps
    # solutions writes one block per a1 of its solutions, in order, and
    # no block is empty
    blocks = []
    block = search._block

    def spy(n, s, a1, entries):
        out = list(block(n, s, a1, entries))
        blocks.append((a1, len(out)))
        return out

    monkeypatch.setattr(search, "_block", spy)
    _, sols = collected(n)
    a1s = [a1 for a1, _ in blocks]
    assert a1s == sorted({sol.a1 for sol in sols})
    assert all(size for _, size in blocks)
    if n == 6:
        assert len(a1s) == 29


def test_sink_streams_same_solutions(n3_result):
    # for any worker count the sink runs in this process, in the order
    # of the plain loop
    for workers in (1, 2):
        streamed = []
        res = search.enumerate_fixed_sigma(
            3, workers=workers, sink=lambda sol, origin: streamed.append(sol))
        assert res.fixed_count == 80
        assert tuple(streamed) == n3_result[1]


def test_sink_error_stops_pooled_search():
    # the sink's exception reaches the caller
    def refuse(sol, origin):
        raise RuntimeError("sink refused")

    with pytest.raises(RuntimeError, match="sink refused"):
        search.enumerate_fixed_sigma(6, workers=2, sink=refuse)


class _Refused(Exception):
    pass


def _refuse(*args):
    raise _Refused


def _refuse_pooled(done, slices):
    # a progress call that fails on the first slice that walks, job 1,
    # which the parent runs while its helpers run the others
    if done > 1:
        raise _Refused


def _assert_no_child_left():
    # waitpid sees every child, forked or not, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the search forks no worker here")


@needs_fork
def test_failed_pooled_search_ends_workers(monkeypatch):
    # the progress call fails on slice 2, the parent's own, while the
    # helper runs a 20 s slice: the error comes back at once, and no
    # helper is left
    n = 4
    jobs = _factored_jobs(n, perm.transposition(n, 1, 2))
    chunk = search._search_chunk

    def slow_chunk(job):    # the workers are forked, so they run it too
        if job[2] not in (jobs[0][2], jobs[1][2]):
            time.sleep(20)
        return chunk(job)

    monkeypatch.setattr(search, "_search_chunk", slow_chunk)
    t0 = time.monotonic()
    with pytest.raises(_Refused):
        search.enumerate_fixed_sigma(n, workers=2, sink=_refuse,
                                     progress=_refuse_pooled)
    assert time.monotonic() - t0 < 5.0
    _assert_no_child_left()


@needs_fork
def test_failed_pooled_search_spares_other_children():
    # the search ends and reaps only its own workers: a child process
    # started before the search outlives the search's failure on a
    # pooled slice
    bystander = multiprocessing.Process(target=time.sleep, args=(30,))
    bystander.start()
    try:
        with pytest.raises(_Refused):
            search.enumerate_fixed_sigma(6, workers=2,
                                         progress=_refuse_pooled)
        assert bystander.is_alive()
    finally:
        bystander.terminate()
        bystander.join()
    _assert_no_child_left()


@needs_fork
def test_first_progress_comes_before_any_fork(monkeypatch):
    # the a1 = () job, which walks nothing, is in and reported before
    # the search forks its one helper; the parent's job 1 and the
    # helper's jobs 2 and 3 follow with no other fork
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    ticks = []
    res = search.enumerate_fixed_sigma(
        6, workers=2, progress=lambda i, m: ticks.append((i, len(forks))))
    assert res.fixed_count == 2880
    assert ticks == [(1, 0), (2, 1), (3, 1), (4, 1)]
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("n,workers,forks", [
    (8, 2, 1), (6, 2, 1), (8, 3, 2), (8, 1, 0), (6, 1, 0), (9, 2, 0)])
def test_pool_forks_one_helper_fewer_than_its_size(monkeypatch, n, workers,
                                                   forks):
    # a pool of min(workers, jobs that walk) processes is the parent and
    # one forked helper fewer: the parent runs jobs 0 and 1 itself (all of
    # them without a pool), the helpers the rest, and none is left
    parent = os.getpid()
    fork, chunk = os.fork, search._search_chunk
    forked, ran = [], []

    def spy_fork():
        pid = fork()
        forked.extend([pid] if pid else [])
        return pid

    def spy_chunk(job):     # the helpers' calls stay in their processes
        ran.append((os.getpid(), job))
        return chunk(job)

    monkeypatch.setattr(os, "fork", spy_fork)
    monkeypatch.setattr(search, "_search_chunk", spy_chunk)
    res = search.enumerate_fixed_sigma(n, workers=workers)
    assert res.fixed_count == {6: 2880, 8: 172800, 9: 0}[n]
    assert len(forked) == len(set(forked)) == forks
    jobs = _factored_jobs(n, perm.transposition(n, 1, 2))
    assert ran == [(parent, job) for job in (jobs[:2] if forks else jobs)]
    _assert_no_child_left()
    # a helper runs every (size - 1)-th job after job 1, in order
    jobs = _factored_jobs(6, perm.transposition(6, 1, 2)) * 2
    forked.clear()
    done = list(search._forked(jobs, 3, "out of memory"))
    assert len(forked) == 2
    assert sorted(done) == [(i, chunk(jobs[i])) for i in range(1, 8)]
    assert done[0][0] == 1
    for h in (0, 1):
        mine = [i for i, _ in done if i > 1 and (i - 2) % 2 == h]
        assert mine == list(range(2 + h, 8, 2))
    _assert_no_child_left()


@needs_fork
def test_out_of_memory_in_worker(monkeypatch):
    # a MemoryError in a forked worker reaches the caller as the one-line
    # RuntimeError of a search that runs out of memory in process
    parent = os.getpid()
    chunk = search._search_chunk

    def exhausted(job):
        if os.getpid() != parent:
            raise MemoryError
        return chunk(job)

    monkeypatch.setattr(search, "_search_chunk", exhausted)
    with pytest.raises(RuntimeError) as exc:
        search.classify(6, workers=2)
    assert str(exc.value) == "out of memory in the degree-6 search"
    _assert_no_child_left()


@needs_fork
def test_stopped_worker_still_sends_whole_output(monkeypatch):
    # helpers stopped and continued, as Ctrl-Z and `fg` do, while they
    # write outputs larger than a pipe holds: each write is cut short,
    # and the rest must still follow, or the search waits forever; one
    # helper writes two such answers, two helpers one each
    import select

    chunk = search._search_chunk
    pids, reaped = [], set()
    fork, waitpid = os.fork, os.waitpid
    real_select = select.select

    def spy_fork():
        pid = fork()
        pids.extend([pid] if pid else [])
        return pid

    def spy_waitpid(pid, options):
        reaped.add(pid)     # from here on, the pid may name no process
        return waitpid(pid, options)

    def big_chunk(job):     # outputs of up to 0.4 MB, a pipe holding 64 KB
        return chunk(job) * 2000

    def stopping_select(*args):
        time.sleep(0.1)     # the helpers fill their pipes and block
        running = [pid for pid in pids if pid not in reaped]
        for pid in running:
            os.kill(pid, signal.SIGSTOP)
        time.sleep(0.05)
        for pid in running:
            os.kill(pid, signal.SIGCONT)
        return real_select(*args)

    def timed_out(signum, frame):
        raise TimeoutError("the search waited for a cut-short output")

    monkeypatch.setattr(os, "fork", spy_fork)
    monkeypatch.setattr(os, "waitpid", spy_waitpid)
    monkeypatch.setattr(search, "_search_chunk", big_chunk)
    monkeypatch.setattr(select, "select", stopping_select)
    previous = signal.signal(signal.SIGALRM, timed_out)
    try:
        for workers in (2, 3):
            pids.clear()
            signal.alarm(20)
            res = search.enumerate_fixed_sigma(6, workers=workers)
            signal.alarm(0)
            assert len(pids) == workers - 1
            assert res.fixed_count == 2000 * 2880  # the a1 = () job is empty
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("cut,answers", [(0, 1), (-1, 1), (None, 1),
                                         (None, None)],
                         ids=["nothing", "in-answer", "one-answer", "whole"])
def test_worker_cut_mid_answer_ended_early(monkeypatch, cut, answers):
    # a helper that ends before its first answer, part-way through it or
    # with one of its two jobs answered ends the search with one error, and
    # no helper is left; the same helper writing every answer whole gives
    # the full count
    import marshal

    def cut_work(jobs, todo, results, oom):
        try:
            for i, fd in itertools.islice(zip(todo, results), answers):
                os.write(fd, marshal.dumps(search._search_chunk(jobs[i]))[:cut])
                os.close(fd)
        finally:
            os._exit(0)

    monkeypatch.setattr(search, "_work", cut_work)
    if answers is None:
        assert search.enumerate_fixed_sigma(6, workers=2).fixed_count == 2880
    else:
        with pytest.raises(RuntimeError,
                           match="^a search worker ended early$"):
            search.enumerate_fixed_sigma(6, workers=2)
    _assert_no_child_left()


@pytest.mark.parametrize("n", [4, 6])
def test_arrival_order_changes_no_result(n, monkeypatch):
    # outputs are absorbed as they arrive: the sink's (sol, origin)
    # stream, the progress calls and the classes are the same for 1, 2
    # and 3 workers, and for a pool whose jobs finish in reverse order
    def run(workers):
        streamed, ticks = [], []
        res = search.enumerate_fixed_sigma(
            n, workers=workers, sink=lambda *sol: streamed.append(sol),
            progress=lambda i, m: ticks.append((i, m)))
        classified, orbits = search.classify(n, workers=workers)
        return (res._replace(elapsed_seconds=0), streamed, ticks,
                classified._replace(elapsed_seconds=0), orbits)

    runs = [run(workers) for workers in (1, 2, 3)]
    monkeypatch.setattr(search, "_forked", reversed_pool)
    runs.append(run(2))
    assert runs[0][0].fixed_count == EXPECTED_FIXED[n]
    assert all(other == runs[0] for other in runs[1:])


@needs_fork
def test_slow_job_holds_back_no_other_slice(monkeypatch):
    # on three workers the helper on job 2 sleeps: the parent's job 1 and
    # the other helper's job 3 are absorbed, and their slices reported,
    # before its output comes in
    n = 6
    jobs = _factored_jobs(n, perm.transposition(n, 1, 2))
    reps = [job[2] for job in jobs]
    parent = os.getpid()
    chunk = search._search_chunk
    expand = search._expand
    events = []

    def slow_chunk(job):    # the helpers are forked, so they run it too
        if job[2] == reps[2] and os.getpid() != parent:
            time.sleep(1.5)
        return chunk(job)

    def spy(job, *args):
        events.append(job[2])
        return expand(job, *args)

    monkeypatch.setattr(search, "_search_chunk", slow_chunk)
    monkeypatch.setattr(search, "_expand", spy)
    res = search.enumerate_fixed_sigma(
        n, workers=3, sink=lambda *sol: None,
        progress=lambda i, m: events.append(i))
    assert res.fixed_count == 2880
    assert len(reps) == 4
    assert events == [reps[0], 1, reps[1], 2, reps[3], 3, reps[2], 4]
    _assert_no_child_left()


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("name,call,code", [("fork", 2, errno.EAGAIN),
                                            ("pipe", 2, errno.EMFILE),
                                            ("fork", 3, errno.EAGAIN)])
def test_failed_worker_start_leaves_nothing_open(monkeypatch, name, call,
                                                 code):
    # the second or third of three helpers, for seven jobs after job 1,
    # cannot be started, at its fork or at its pipe: the pipe ends opened
    # for it are closed, the running helpers are killed and reaped, and
    # the failure is a one-line RuntimeError; so on a search whose second
    # helper cannot be forked
    real = getattr(os, name)
    calls = []

    def failing():
        calls.append(name)
        if len(calls) == call:
            raise OSError(code, os.strerror(code))
        return real()

    jobs = _factored_jobs(6, perm.transposition(6, 1, 2)) * 2
    runs = [lambda: list(search._forked(jobs, 4, "out of memory"))]
    if call == 2:
        runs.append(lambda: search.enumerate_fixed_sigma(6, workers=3))
    fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, name, failing)
    for run in runs:
        calls.clear()
        with pytest.raises(RuntimeError) as exc:
            run()
        assert str(exc.value) == ("cannot start a search worker: "
                                  f"[Errno {code}] {os.strerror(code)}")
        assert len(calls) == call
        assert len(os.listdir("/proc/self/fd")) == fds
        _assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("run", [
    search.enumerate_fixed_sigma,
    functools.partial(search.enumerate_fixed_sigma, sink=lambda *sol: None),
    lambda n, workers: search.classify(n, workers=workers)[0],
], ids=["count", "sink", "classify"])
def test_elapsed_seconds_is_a_duration(run, workers):
    # the reported time is a span inside the caller's own: not negative,
    # and no longer than the call as the caller times it
    t0 = time.perf_counter()
    res = run(6, workers=workers)
    span = time.perf_counter() - t0
    assert res.fixed_count == 2880
    assert 0 <= res.elapsed_seconds <= span


def test_progress_reports_all_slices():
    ticks = []
    search.enumerate_fixed_sigma(3, progress=lambda i, m: ticks.append((i, m)))
    assert ticks == [(i, len(ticks)) for i in range(1, len(ticks) + 1)]


def test_count_independent_of_which_transposition():
    for n in (3, 4):
        base = search.enumerate_fixed_sigma(n).fixed_count
        for (i, j) in ((1, 3), (2, 3), (1, n)):
            alt = search.enumerate_fixed_sigma(
                n, sigma=perm.transposition(n, i, j))
            assert alt.fixed_count == base


def test_sigma_validation():
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(3, sigma=perm.identity(3))
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(3, sigma=perm.parse_cycles("(1,2,3)", 3))
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(3, sigma=perm.transposition(4, 1, 2))
    with pytest.raises(ValueError):  # moves two points, not a permutation
        search.enumerate_fixed_sigma(3, sigma=(1, 2, 2))
    with pytest.raises(ValueError, match="sigma is not a permutation"):
        search.enumerate_fixed_sigma(3, sigma=(1.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(1)
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(13)
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(4, workers=0)
    # a list sigma is taken as its tuple, so the result formats and its
    # collected solutions analyze
    res, sols = collected(3, sigma=[1, 0, 2])
    assert res.fixed_count == 80 and res.sigma == (1, 0, 2)
    assert str(res).startswith("n=3: 80 representations with sigma=(1,2)")
    orbits = search.orbit_decomposition(list(sols), 3)
    assert search.analyze(res, orbits).orbit_count == 40


@pytest.mark.parametrize("call,name", [
    (lambda: search.enumerate_fixed_sigma(6, workers=2.0), "workers"),
    (lambda: search.classify(6, workers="2"), "workers"),
    (lambda: search.classify(6.0), "degree"),
    (lambda: search.classify("6"), "degree"),
    (lambda: search.enumerate_fixed_sigma(6.0, workers=2), "degree"),
    (lambda: search.enumerate_fixed_sigma(3, sigma=5), "sigma"),
    (lambda: search.enumerate_fixed_sigma(4, workers=True), "workers"),
    (lambda: search.classify(4, workers=True), "workers"),
], ids=["count-workers", "classify-workers", "classify-float-degree",
        "classify-str-degree", "count-float-degree", "count-int-sigma",
        "count-bool-workers", "classify-bool-workers"])
def test_non_int_input_is_refused_before_any_job(monkeypatch, call, name):
    # a degree or worker count that is not an int (a bool is not), or a
    # sigma that does not read as a tuple, is a ValueError naming it, raised before any
    # job is built or worker forked
    calls = []

    def spy(*args):
        calls.append(args)
        raise OSError("not to be called")

    monkeypatch.setattr(search, "_jobs", spy)
    monkeypatch.setattr(os, "fork", spy)
    with pytest.raises(ValueError, match=f"^{name} "):
        call()
    assert calls == []


def _assert_images_are_permutations(asg, sig):
    assert type(asg) is words.Assignment and asg.sigma == sig
    for name, p in zip(asg._fields[1:], asg[1:]):
        perm.check(p, len(sig), name)


def test_oracle_agrees_small():
    # the oracle builds its assignments unchecked, from the tuples of
    # itertools.permutations: each image still passes perm.check
    for n in (2, 3):
        brute = search.brute_force_oracle(n)
        engine, sols = collected(n)
        assert len(brute) == engine.fixed_count
        assert _keys(brute) == _keys(sols)
        for asg in brute:
            _assert_images_are_permutations(asg, perm.transposition(n, 1, 2))
    with pytest.raises(ValueError):
        search.brute_force_oracle(5)


def _brute_centralizer(n, s):
    return [h for h in itertools.permutations(range(n))
            if perm.commutes(h, s)]


def _brute_orbits(items, cent):
    # (least member, size) of every orbit of cent, acting by conjugation,
    # that meets items, sorted
    seen = set()
    orbits = []
    for x in items:
        if x not in seen:
            orbit = {perm.conjugate(x, h) for h in cent}
            seen |= orbit
            orbits.append((min(orbit), len(orbit)))
    return sorted(orbits)


def test_conj_class_reps_partition_sn():
    # one marked cycle type per orbit of C(s) on S_n: the orbits of the
    # built elements are disjoint and cover S_n, and their number matches
    # Burnside's lemma computed from scratch
    for n, s in [(n, perm.transposition(n, 1, 2)) for n in range(2, 7)] + [
            (5, perm.transposition(5, 2, 4)), (6, perm.transposition(6, 3, 6))]:
        cent = _brute_centralizer(n, s)
        types = list(search._marked_types(n, s))
        orbits = _brute_orbits(types, cent)
        assert len(orbits) == len(types)
        assert sum(size for _, size in orbits) == math.factorial(n)
        assert orbits == _brute_orbits(itertools.permutations(range(n)), cent)
        fixed = sum(
            1 for h in cent for x in itertools.permutations(range(n))
            if perm.conjugate(x, h) == x)
        assert len(types) * len(cent) == fixed


def test_marked_types_match_cauchy_frobenius():
    # the number of marked cycle types is the number of C(s)-orbits on
    # S_n: (1/|C(s)|) sum over h in C(s) of |C(h)|
    counts = []
    for n in range(2, 10):
        s = perm.transposition(n, 1, 2)
        cent = groups.centralizer_elements(s, n)
        orbits, rest = divmod(
            sum(groups.centralizer_order(h) for h in cent), len(cent))
        assert rest == 0
        types = list(search._marked_types(n, s))
        assert len(types) == len(set(types)) == orbits
        counts.append(orbits)
    assert counts == [2, 4, 10, 18, 34, 56, 94, 146]


def test_b1_orbits_partition_filtered_c1():
    # the orbit helper at the b1 level: the orbits of C(s) n C(a1) on R1,
    # the elements of C1 that pass R2, are disjoint, each lies inside the
    # candidates, and they cover the candidates, each led by its first
    # candidate
    n = 5
    s = perm.transposition(n, 1, 2)
    cent = groups.centralizer_elements(s, n)
    checked = 0
    for a1, _ in _brute_orbits(itertools.permutations(range(n)), cent):
        sa1s = perm.conjugate(a1, s)
        if not perm.commutes(a1, sa1s):
            continue
        stab = [h for h in cent if perm.commutes(h, a1)]
        cands = _r1(n, s, a1)
        reps = list(search._orbit_reps(stab, cands))
        covered = set()
        for rep, size in reps:
            orbit = {perm.conjugate(rep, h) for h in stab}
            assert len(orbit) == size
            assert orbit <= set(cands)
            assert not orbit & covered
            assert min(cands.index(x) for x in orbit) == cands.index(rep)
            covered |= orbit
        assert covered == set(cands)
        assert sum(size for _, size in reps) == len(cands)
        checked += len(stab) > 1 and len(reps) < len(cands)
    assert checked  # some a1 had orbits of more than one candidate


def test_orbit_reps_over_trivial_group_keep_every_item():
    # over the trivial group the orbit helper is the plain loop: every
    # item, in its own order, with weight 1
    n = 4
    s = perm.transposition(n, 1, 2)
    items = _r1(n, s, perm.parse_cycles("(1,3)(2,4)", n))
    assert len(items) > 1
    weighted = list(search._orbit_reps([perm.identity(n)], iter(items)))
    assert weighted == [(item, 1) for item in items]


def test_orbit_reps_partition_the_walks_lists(monkeypatch):
    # every H1 and H2 the walks of the count runs at n <= 7 act by, on the
    # lists they act on, for sigma (1,2) and the other transpositions of
    # _a1_sigmas (a walk asks once for each group and list): the orbits
    # are disjoint and cover the items, each is led by its first item, and
    # each size divides |group|
    calls = []
    orbit_reps = search._orbit_reps

    def spy(group, items):
        items = list(items)
        reps = list(orbit_reps(group, items))
        calls.append((group, items, reps))
        return reps

    monkeypatch.setattr(search, "_orbit_reps", spy)
    for s in _a1_sigmas():
        search.enumerate_fixed_sigma(len(s), sigma=s)
    for group, items, reps in calls:
        covered = set()
        for rep, size in reps:
            orbit = {perm.conjugate(rep, h) for h in group}
            assert len(orbit) == size and len(group) % size == 0
            assert not orbit & covered
            assert min(map(items.index, orbit)) == items.index(rep)
            covered |= orbit
        assert covered == set(items)
    sizes = {len(group) for group, _, _ in calls}
    assert len(calls) > 30 and 1 in sizes and max(sizes) > 2


def test_orbit_reps_refuse_a_list_that_is_not_a_group():
    # C(s) with one element missing, with one element twice, or a
    # 3-cycle without its inverse does not close to the list given
    for n in (4, 5, 6):
        s = perm.transposition(n, 1, 2)
        cent = groups.centralizer_elements(s, n)
        items = [perm.identity(n)]
        for i in (0, 1, len(cent) // 2, len(cent) - 1):
            with pytest.raises(AssertionError):
                search._orbit_reps(cent[:i] + cent[i + 1:], items)
        with pytest.raises(AssertionError):
            search._orbit_reps(cent + cent[-1:], items)
        with pytest.raises(AssertionError):
            search._orbit_reps(
                [perm.identity(n), perm.parse_cycles("(1,2,3)", n)], items)
        assert search._orbit_reps(cent, items) == [(items[0], 1)]


@functools.lru_cache(maxsize=None)
def _r2_scan(n, s):
    # S_n filtered by R2(a1) from the relator word itself, in
    # lexicographic order
    r2 = next(r.word for r in words.RELATORS if r.label == "R2_a1")
    e = perm.identity(n)
    return [a1 for a1 in itertools.permutations(range(n))
            if words.evaluate(r2, words.Assignment(n, s, a1, e, e, e)) == e]


def _a1_sigmas():
    sigmas = [perm.transposition(n, 1, 2) for n in range(2, 8)]
    for n in range(2, 7):
        sigmas += [perm.transposition(n, i, j)
                   for i, j in ((1, 3), (2, 4), (3, n)) if i < j <= n]
    return sigmas


def test_a1_candidates_are_the_r2_filter():
    # the plain a1 list of these tests and the a1 of the factored jobs
    # against a reference built here: S_n filtered by the R2_a1 word and
    # by transitivity of <s, a1, C1> with C1 listed in full, then grouped
    # into C(s)-orbits by brute force
    for s in _a1_sigmas():
        n = len(s)
        passing = [a1 for a1 in _r2_scan(n, s)
                   if _reference_transitive(n, s, [a1], _c1(n, s, a1))]
        cent = _brute_centralizer(n, s)
        assert passing == _plain_a1s(n, s)
        assert [(a1, size) for _, _, a1, size, _
                in search._jobs(n, s, cent)] == _brute_orbits(passing, cent)


def _check_job_orbits(n, s, cent):
    # every job (n, s, r, size, stab) against scans of all of C(s): stab
    # is C(s) n C(r), size * |stab| = |C(s)|, and r is the least member
    # of its orbit under conjugation by C(s), of size size
    jobs = search._jobs(n, s, cent)
    for _, _, r, size, stab in jobs:
        assert set(stab) == {h for h in cent if perm.commutes(h, r)}
        assert size * len(stab) == len(cent)
        orbit = {perm.conjugate(r, h) for h in cent}
        assert r == min(orbit)
        assert size == len(orbit)
    return len(jobs)


def test_job_orbits_and_stabilizers_match_scans():
    # the orbits built from generators of C(s), and their stabilizers,
    # against scans of C(s), for sigma = (1,2) at n = 2..8 and for the
    # other transpositions of _a1_sigmas
    for s in _a1_sigmas() + [perm.transposition(8, 1, 2)]:
        n = len(s)
        assert _check_job_orbits(n, s, groups.centralizer_elements(s, n))


@pytest.mark.long
def test_a1_slices_match_scan_n8_n9():
    # degrees 8 and 9 against a scan of S_n by perm.commutes, and each
    # job's orbit and stabilizer against scans of C(s)
    for n in (8, 9):
        s = perm.transposition(n, 1, 2)
        cent = groups.centralizer_elements(s, n)
        assert [(a1, size) for _, _, a1, size, _
                in search._jobs(n, s, cent)] \
            == _brute_orbits(_plain_a1s(n, s), cent)
        _check_job_orbits(n, s, cent)


def _s_conj(p, s):
    return perm.compose(perm.compose(s, p), s)


def _level_list(s, prefix, c1):
    # the elements of c1 = C(s a1 s) that pass R2 and commute with s x s
    # for every later x in the prefix: C2 below (a1, b1), C3 below
    # (a1, b1, a2)
    later = [_s_conj(x, s) for x in prefix[1:]]
    return [z for z in c1 if perm.commutes(z, _s_conj(z, s))
            and all(perm.commutes(z, y) for y in later)]


def _reference_transitive(n, s, prefix, group):
    # <s, prefix, group>, with group the centralizer list of the prefix's
    # level listed in full: C1 below a1, then C2 and C3
    return groups.is_transitive([s, *prefix] + group, n)


def _c1(n, s, a1):
    return groups.centralizer_elements(_s_conj(a1, s), n)


def _r1(n, s, a1):
    # R1: the elements of C1 that pass R2, in C1 order
    return [x for x in _c1(n, s, a1) if perm.commutes(x, _s_conj(x, s))]


def test_a1_prune_matches_reference():
    # the a1-level verdict, from the equal-length cycle unions of s a1 s,
    # equals transitivity of <s, a1, C(s a1 s)> with C listed in full
    verdicts = set()
    for s in _a1_sigmas():
        n = len(s)
        for a1 in _r2_scan(n, s):
            verdict = search._a1_transitive(n, s, a1)
            assert verdict == _reference_transitive(
                n, s, [a1], _c1(n, s, a1)), (n, a1)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _same_list(tail, expected):
    return len(tail) == len(expected) and set(tail) == set(expected)


def test_mask_filter_is_its_definition():
    # the walk's one filter against its definition, with at[i][j] the
    # mask of the elements of R1 that map i to j, on R1 of every job
    # that walks at n = 4..8 and of the walk below a1 = () at n <= 6: each
    # y in R1 as a = t = y (C2, C3 and H2), and 200 pairs (a, t) from S_n
    # (the torus relation; every other t a conjugate of a by an element of
    # R1, so that some x fits) give the members of R1 with x a = t x, in
    # R1 order
    rng = random.Random(20)
    checked = 0
    for n in range(4, 9):
        s = perm.transposition(n, 1, 2)
        e = perm.identity(n)
        a1s = [r for _, _, r, _, _ in _factored_jobs(n, s) if r != e]
        for a1 in a1s + [e] * (n <= 6):
            r1 = _r1(n, s, a1)
            at = [[sum(1 << k for k, x in enumerate(r1) if x[i] == j)
                   for j in range(n)] for i in range(n)]
            pairs = [(y, y) for y in r1]
            for k in range(200):
                a = tuple(rng.sample(range(n), n))
                pairs.append((a, perm.conjugate(a, rng.choice(r1)) if k % 2
                              else tuple(rng.sample(range(n), n))))
            for a, t in pairs:
                mask = search._fits(at, (1 << len(r1)) - 1, a, t)
                assert search._members(r1, mask) == [
                    x for x in r1
                    if all(x[a[i]] == t[x[i]] for i in range(n))], (a1, a, t)
            checked += 1
    assert checked == 4 + 1 + 4 + 0 + 3


def _mask_list(at, mask):
    # the permutations whose bits mask sets, read back from the point
    # masks at[i][j] of the walk
    n = len(at)
    return [tuple(next(j for j in range(n) if at[i][j] >> k & 1)
                  for i in range(n))
            for k in range(mask.bit_length()) if mask >> k & 1]


def test_prune_verdicts_match_reference(monkeypatch):
    # every transitivity test the walk over the trivial group makes at n=6:
    # groups.is_transitive at the a1 level (s, a1, u) and at the leaves
    # (s, a1, a2, b1, b2) of relation-satisfying tuples, and the mask prune
    # at the b1 level on (s, a1, b1) and all of C2 and at the a2 level on
    # (s, a1, b1, a2) and all of C3, C2 and C3 holding only elements that
    # pass R2; each prune verdict equals the reference from explicit lists
    n = 6
    s = perm.transposition(n, 1, 2)
    real, real_mask = groups.is_transitive, search._mask_transitive
    calls = []

    def spy(gens, degree):
        verdict = real(gens, degree)
        calls.append((tuple(gens), verdict))
        return verdict

    def mask_spy(degree, gens, at, mask):
        verdict = real_mask(degree, gens, at, mask)
        assert verdict == real([*gens, *_mask_list(at, mask)], degree)
        calls.append((tuple(gens) + tuple(_mask_list(at, mask)), verdict))
        return verdict

    with monkeypatch.context() as patched:
        patched.setattr(groups, "is_transitive", spy)
        patched.setattr(search, "_mask_transitive", mask_spy)
        e = perm.identity(n)
        assert sum(1 for a1 in _plain_a1s(n, s)
                   for _ in search._iter_for_a1(n, s, a1, [e])) == 2880
    lists = {}

    def level(prefix):
        # C1, C2 or C3 below the prefix, each listed once
        if prefix not in lists:
            lists[prefix] = (_c1(n, s, prefix[0]) if len(prefix) == 1 else
                             _level_list(s, prefix, level(prefix[:1])))
        return lists[prefix]

    seen = set()
    for gens, verdict in calls:
        assert gens[0] == s
        if len(gens) == 3:  # the a1 prune, C1 by a cycle-union stand-in
            prefix = gens[1:2]
        elif _same_list(gens[3:], level(gens[1:3])):
            prefix = gens[1:3]
        elif _same_list(gens[4:], level(gens[1:4])):
            prefix = gens[1:4]
        else:  # a leaf: every relation holds and only transitivity is left
            assert len(gens) == 5, gens
            assert words.satisfies_all_relations(
                words.Assignment(n, *gens)), gens
            continue
        assert verdict == _reference_transitive(
            n, s, prefix, level(prefix)), gens
        seen.add((len(prefix), verdict))
    # both verdicts occur at the a1, b1 and a2 levels
    assert seen == {(k, v) for k in (1, 2, 3) for v in (True, False)}


def _symmetry_images(key):
    # phi, psi and the swap of the two handles, on (a1, a2, b1, b2)
    a1, a2, b1, b2 = key
    return ((perm.compose(a1, b1), a2, b1, b2),
            (a1, a2, perm.compose(a1, b1), b2),
            (a2, a1, b2, b1))


def _assert_symmetry_closed(solutions):
    keys = {(sol.a1, sol.a2, sol.b1, sol.b2) for sol in solutions}
    for key in keys:
        for image in _symmetry_images(key):
            assert image in keys, (key, image)


def test_solutions_closed_under_symmetries(n4_result, n6_result):
    # a1 -> a1 b1, b1 -> a1 b1 and (a1, b1) <-> (a2, b2) map solutions to
    # solutions; the reversed product b1 a1 does not
    _assert_symmetry_closed(n4_result[1])
    _assert_symmetry_closed(n6_result[1])
    keys = {(sol.a1, sol.a2, sol.b1, sol.b2) for sol in n6_result[1]}
    reversed_images = sum((perm.compose(b1, a1), a2, b1, b2) in keys
                          for a1, a2, b1, b2 in keys)
    assert (reversed_images, len(keys)) == (2016, 2880)


@pytest.mark.long
def test_classify_matches_plain_loop_n8():
    # the class walk against the unfiltered plain loop at degree 8, and
    # the plain loop's solutions closed under the symmetries
    s = perm.transposition(8, 1, 2)
    solutions = [words.Assignment(8, s, *raw) for raw in _plain_walk(8, s)]
    assert len(solutions) == 172800
    _, orbits = search.classify(8, workers=2)
    assert orbits == search.orbit_decomposition(solutions, 8)
    _assert_symmetry_closed(solutions)


def _count_reps(n, s):
    # the a1 representatives of a count run, with their C(s)-class sizes
    # and the stabilizers C(s) n C(a1) their jobs carry; no job carries
    # C(s) beside its stabilizer
    jobs = _factored_jobs(n, s)
    reps = [(a1, size, stab) for _, _, a1, size, stab in jobs]
    for a1, _, stab in reps:
        assert sorted(stab) == _stab(n, s, a1)
    return reps


def _factored_jobs(n, s):
    return search._jobs(n, s, groups.centralizer_elements(s, n))


def _plain_a1s(n, s):
    # every a1 that passes R2(a1) and the a1 prune, by a scan of S_n, in
    # lexicographic order
    return [a1 for a1 in itertools.permutations(range(n))
            if perm.commutes(a1, perm.conjugate(a1, s))
            and search._a1_transitive(n, s, a1)]


def _plain_walk(n, s):
    # the walk over the trivial group below every a1 of _plain_a1s: every
    # solution once, in an order of its own
    return [raw for a1 in _plain_a1s(n, s) for raw in _trivial_walk(n, s, a1)]


@functools.lru_cache(maxsize=None)
def _trivial_walk(n, s, a1):
    # the solutions below a1 by the walk over the trivial group, kept:
    # two long tests walk below a1 = () at degree 8, about 2 s each
    e = perm.identity(n)
    return tuple(raw for raw, _ in search._iter_for_a1(n, s, a1, [e]))


def _stab(n, s, a1):
    return sorted(h for h in _brute_centralizer(n, s)
                  if perm.commutes(h, a1))


def _factored_terms(n, s, r, stab):
    # N(r), N(r, b1=r), M(r) and L(r) read off the factored walk below r
    # by stab: the weights of all its leaves, of those with b1 = r, of
    # those with a2 = b2 = (), and of those with both
    e = perm.identity(n)
    terms = [0, 0, 0, 0]
    for (_, a2, b1, b2), w in search._iter_for_a1(n, s, r, stab):
        unit = a2 == b2 == e
        for i, hit in enumerate((True, b1 == r, unit, b1 == r and unit)):
            terms[i] += w * hit
    return tuple(terms)


def _plain_terms(n, s, r, unit):
    # the same four numbers from the plain loop, M(r) and L(r) by their
    # definitions: the solutions with a1 = b1 = () and a2 = r, and whether
    # ((), r, (), r) is a solution; unit holds the plain solutions below
    # a1 = ()
    e = perm.identity(n)
    below = [raw for raw, _ in search._iter_for_a1(n, s, r, [e])]
    return (len(below), sum(raw[2] == r for raw in below),
            sum(raw[1] == r and raw[2] == e for raw in unit),
            int((e, r, e, r) in unit))


def _unit_subtree_route(n, s):
    # the count below a1 = () read off the images: the weight of each
    # leaf below every representative r, once per image and once for the
    # leaf ((), (), (), ()) of r = (), times the class size of r
    e = perm.identity(n)
    return sum(size * w * (len(images) + (r == e))
               for r, size, stab in _count_reps(n, s)
               for _, w, images in search._search_chunk((n, s, r, 1, stab)))


def test_factored_count_matches_plain_loop():
    # counting runs factor the a1, b1, a2 and b2 levels by symmetry; the
    # unfiltered plain loop walks over the trivial group; both must produce
    # the same counts, in total and term by term below every a1
    # representative
    for n in range(2, 7):
        fast = search.enumerate_fixed_sigma(n)
        plain = len(_plain_walk(n, perm.transposition(n, 1, 2)))
        assert fast.fixed_count == plain
        assert fast.total_count == plain * n * (n - 1) // 2
    for i, j in ((1, 3), (2, 3)):
        sig = perm.transposition(4, i, j)
        fast = search.enumerate_fixed_sigma(4, sigma=sig)
        assert fast.fixed_count == len(_plain_walk(4, sig)) == 480
    # the four Nielsen terms of every r != () against the plain loop, M(r)
    # and L(r) counted below a1 = (); the images of the plain solutions
    # below every a1 != () of a collecting run are the plain solutions
    # below a1 = () other than ((), (), (), ()), each once; and the
    # weighted images add up to the a1 = () count
    sigmas = [perm.transposition(n, 1, 2) for n in range(2, 8)]
    sigmas += [perm.transposition(4, 1, 3), perm.transposition(4, 2, 3)]
    units = []
    for sig in sigmas:
        n = len(sig)
        e = perm.identity(n)
        unit = {raw for raw, _ in search._iter_for_a1(n, sig, e, [e])}
        assert sum(w for _, w in search._iter_for_a1(
            n, sig, e, _stab(n, sig, e))) == len(unit)  # N(()) factored
        for r, _, stab in _count_reps(n, sig)[1:]:
            assert _factored_terms(n, sig, r, stab) \
                == _plain_terms(n, sig, r, unit)
        images = [image for a1 in _plain_a1s(n, sig) if a1 != e
                  for _, _, leaf_images in search._search_chunk(
                      (n, sig, a1, 1, [e]))
                  for image in leaf_images]
        assert sorted(images) == sorted(unit - {(e, e, e, e)})
        assert search._search_chunk((n, sig, e, 1, _stab(n, sig, e))) \
            == [((e, e, e, e), 1, ())] * ((e, e, e, e) in unit)
        units.append(len(unit))
        assert _unit_subtree_route(n, sig) == len(unit)
    assert units == [8, 26, 112, 0, 480, 0, 112, 112]


# sha256 of repr([search._search_chunk(job) for job in jobs]) over the
# jobs of each degree and sigma (i, j), as the walk that takes b2 by
# H3-orbit gives them; repr, not marshal, whose reference flags follow
# object identity
_WALK_DIGESTS = {
    (2, (1, 2)): "fd6423f1ee79224ff7ac29f28f287db1aeb13f3ba7041ef94ef71370471c3d76",
    (3, (1, 2)): "5676e0342edc7e0b206ce5bb70c320b3c7d15768e07cc0bbf50c653de28bd7c5",
    (4, (1, 2)): "8b8a5d0dc8d70fc971deb49ac41ad9b548e0fa2169abca7062eae100caf4c3c8",
    (5, (1, 2)): "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
    (6, (1, 2)): "dc2f773e2d8833d4967606d6b5741348e88f9ecac3738feb0e0279f298f3db50",
    (7, (1, 2)): "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
    (8, (1, 2)): "bff169fa3d88b4dd89acb5dc804bf050eb5ce2f632805983f7028b0a64a982ac",
    (9, (1, 2)): "a683096011db3975a1e401e33b0047d1f2677a11efe85ef12806f016ae039795",
    (3, (2, 3)): "5676e0342edc7e0b206ce5bb70c320b3c7d15768e07cc0bbf50c653de28bd7c5",
    (3, (1, 3)): "5676e0342edc7e0b206ce5bb70c320b3c7d15768e07cc0bbf50c653de28bd7c5",
    (4, (2, 3)): "849dbfa116a313402557ad0f66c0312376087ca915d645ca0b87d90bb189bfce",
    (4, (1, 4)): "849dbfa116a313402557ad0f66c0312376087ca915d645ca0b87d90bb189bfce",
}


# the degrees and sigmas (i, j) the job-output tests run on
_JOB_CASES = pytest.mark.parametrize(
    "n,ij", sorted(_WALK_DIGESTS),
    ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else str(x))


@_JOB_CASES
def test_job_outputs_match_digests(n, ij):
    # every job's leaves, weights and images, in the walk's own order,
    # byte for byte as _WALK_DIGESTS pins them
    import hashlib

    s = perm.transposition(n, *ij)
    outputs = [search._search_chunk(job) for job in _factored_jobs(n, s)]
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() \
        == _WALK_DIGESTS[n, ij]


def _job_classes(n, ij):
    # per job, the least members of the H1-orbits of its leaves and images,
    # sorted, and its weighted count: what the job says up to the choice
    # of leaf within a class
    classes = []
    for job in _factored_jobs(n, perm.transposition(n, *ij)):
        out = search._search_chunk(job)
        classes.append((sorted({min(search._h1_orbit(key, job[4]))
                                for leaf, _, images in out
                                for key in (leaf, *images)}),
                        sum(w * (1 + len(images)) for _, w, images in out)))
    return repr(classes)


# sha256 of _job_classes(n, ij), as the walk that visited every b2 gave it
_CLASS_DIGESTS = {
    (2, (1, 2)): "02d6fc8058f03d2acfc3a2252eb46d80789747c46a65a726699e453c097b18a0",
    (3, (1, 2)): "c37f119aa69f4db846ec3b1d78773423bda6046f94f84b5b4ea5734fe7ef7fb3",
    (4, (1, 2)): "0620a1916d0569fdffa2d5554081fad097f30cdb11372b133585038886dc97f3",
    (5, (1, 2)): "78c4b0fdf3e108c047b3175d5237b14c1611a45d884901de13a78775c5fc48f7",
    (6, (1, 2)): "46a3b686973e38c1eaea4663154eddc9166411a9bec56e32b6c990d5354a8023",
    (7, (1, 2)): "78c4b0fdf3e108c047b3175d5237b14c1611a45d884901de13a78775c5fc48f7",
    (8, (1, 2)): "eb203b87928126698066dbf663684d3850ce063fc14b32589ed0626b148d4495",
    (9, (1, 2)): "773fb44f6d5f9c405333419d56783d6f6b705ca92c37da6d524c82149297521f",
    (3, (2, 3)): "c37f119aa69f4db846ec3b1d78773423bda6046f94f84b5b4ea5734fe7ef7fb3",
    (3, (1, 3)): "c37f119aa69f4db846ec3b1d78773423bda6046f94f84b5b4ea5734fe7ef7fb3",
    (4, (2, 3)): "e49c8f0753ed1cc5fc7da507b6120f889e4f6660c5b137bfc707d6cba92226bf",
    (4, (1, 4)): "e49c8f0753ed1cc5fc7da507b6120f889e4f6660c5b137bfc707d6cba92226bf",
}


@_JOB_CASES
def test_job_classes_match_digests(n, ij):
    # every job meets the same classes of leaves and images, with the same
    # weighted count, whichever member of a class it yields
    assert hashlib.sha256(_job_classes(n, ij).encode()).hexdigest() \
        == _CLASS_DIGESTS[n, ij]


@_JOB_CASES
def test_each_leaf_is_one_class_weighted_by_its_size(n, ij):
    # the walk yields one leaf per H1-orbit, weighted by that orbit's size,
    # and no two leaves or images of a job share an H1-orbit
    for job in _factored_jobs(n, perm.transposition(n, *ij)):
        stab, seen = job[4], set()
        for leaf, w, images in search._search_chunk(job):
            assert len(search._h1_orbit(leaf, stab)) == w
            for key in (leaf, *images):
                orbit = search._h1_orbit(key, stab)
                assert not orbit & seen
                seen |= orbit


_SIGMAS = [perm.transposition(n, 1, 2) for n in range(2, 8)] + [
    perm.transposition(4, 1, 3), perm.transposition(4, 2, 3)]


@pytest.mark.parametrize("sig", _SIGMAS, ids=lambda sig: f"n{len(sig)}-"
                         + perm.format_cycles(sig))
def test_filtered_walk_is_the_plain_walk(sig):
    # collecting and streaming runs expand the factored jobs' outputs and
    # write them in the reference plain loop's order, for any worker
    # count: the same solutions, in the same order, each with a job output
    # that has the same sigma and is conjugate to it under C(sigma)
    n = len(sig)
    plain = plain_loop(n, sig)
    cent = groups.centralizer_elements(sig, n)
    for workers in (1, 2):
        res, sols = collected(n, sigma=sig, workers=workers)
        streamed = []
        search.enumerate_fixed_sigma(
            n, sigma=sig, workers=workers,
            sink=lambda sol, origin: streamed.append((sol, origin)))
        assert [sol for sol, _ in streamed] == list(sols)
        assert [(x.a1, x.a2, x.b1, x.b2) for x in sols] == plain
        assert res.fixed_count == len(plain)
    for sol, origin in streamed:
        assert origin.sigma == sig
        assert any(origin.conjugated(h) == sol for h in cent)


# sha256 of the first 20,000 solutions `list --n 8` writes, a line of
# a1 a2 b1 b2 cycle strings each.  Every b2-level choice of the size rule
# goes one way at n = 6; below these prefixes 298 a2-level choices go to
# C(s b1 s) and 29 to C1, and 720 b2-level ones to C(s a2 s) and 3,356 to C2
LIST_N8_PREFIX_SHA256 = (
    "7025c024308057436f831ad3389217339d870a938b8e46cedec878da0833b33e")


def test_list_n8_prefix_order():
    # the order a streaming run hands out at degree 8, cut short by the
    # sink: the long tests' LIST_N8_SHA256 pins the whole of it
    lines = []

    def sink(sol, origin):
        lines.append(" ".join(map(perm.format_cycles,
                                  (sol.a1, sol.a2, sol.b1, sol.b2))) + "\n")
        if len(lines) == 20000:
            raise _Refused

    with pytest.raises(_Refused):
        search.enumerate_fixed_sigma(8, sink=sink)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        LIST_N8_PREFIX_SHA256)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sig", [perm.transposition(n, 1, 2)
                                 for n in range(2, 7)]
                         + [perm.transposition(4, 1, 3)],
                         ids=lambda sig: f"n{len(sig)}-"
                         + perm.format_cycles(sig))
def test_engine_assignments_hold_permutations(sig, workers):
    # the solutions a sink gets, their origins and classify's
    # representatives are built without Assignment's check, from the
    # engine's own permutations: each image still passes perm.check
    n = len(sig)
    built = []
    search.enumerate_fixed_sigma(n, sigma=sig, workers=workers,
                                 sink=lambda *pair: built.extend(pair))
    if sig == perm.transposition(n, 1, 2):
        built += [o.representative
                  for o in search.classify(n, workers=workers)[1]]
    for asg in built:
        _assert_images_are_permutations(asg, sig)


@pytest.mark.parametrize("sig", [sig for sig in _SIGMAS if len(sig) <= 6],
                         ids=lambda sig: f"n{len(sig)}-"
                         + perm.format_cycles(sig))
def test_fertile_map_is_the_plain_walk_prefixes(sig, monkeypatch):
    # the a1 blocks size the C2 route (groups.centralizer_order of
    # s b1 s) below exactly the (a1, b1) prefixes, and the C3 route (of
    # s a2 s) below exactly the (a1, b1, a2) prefixes, of the unfiltered
    # plain loop's solutions, each once, in the order `list` writes them
    n = len(sig)
    sized = []
    centralizer_order = groups.centralizer_order

    def spy(g):
        sized.append(g)
        return centralizer_order(g)

    monkeypatch.setattr(groups, "centralizer_order", spy)
    _, sols = collected(n, sigma=sig)
    prefixes = list(dict.fromkeys(prefix for x in sols for prefix in (
        (x.a1, x.b1), (x.a1, x.b1, x.a2))))
    assert sized == [_s_conj(prefix[-1], sig) for prefix in prefixes]
    plain = _plain_walk(n, sig)
    for length in (2, 3):
        assert sorted(p for p in prefixes if len(p) == length) == sorted(
            {(a1, b1, a2)[:length] for a1, a2, b1, _ in plain})


def test_list_walk_without_solutions_builds_nothing(monkeypatch):
    # degree 9 has no solution: neither a count nor a streaming run
    # sizes a C2 or C3 route, and the streaming run hands the sink nothing
    sized = []
    monkeypatch.setattr(groups, "centralizer_order", sized.append)
    ticks = []
    search.enumerate_fixed_sigma(9, progress=lambda i, m: ticks.append(m))
    res = search.enumerate_fixed_sigma(9, sink=_refuse,
                                       progress=lambda i, m: ticks.append(m))
    assert res.fixed_count == 0
    assert sized == []
    assert ticks == [2] * 4


def test_list_walk_skips_a1_without_fertile_prefix(monkeypatch):
    # degree 7 has no solution, so a streaming run writes no a1 = ()
    # block and never lists C1 = S_7
    centralized = []
    centralizer_elements = groups.centralizer_elements

    def spy(g, n):
        centralized.append(g)
        return centralizer_elements(g, n)

    monkeypatch.setattr(groups, "centralizer_elements", spy)
    res = search.enumerate_fixed_sigma(7, sink=_refuse)
    assert res.fixed_count == 0
    assert centralized and perm.identity(7) not in centralized


def test_list_walk_without_leaves_conjugates_no_more_than_a_count(
        monkeypatch):
    # degrees 5, 7 and 9 have no solution: a streaming run files nothing,
    # so it makes no more perm.conjugate calls than the count
    calls = []
    conjugate = perm.conjugate
    monkeypatch.setattr(perm, "conjugate",
                        lambda p, q: calls.append(p) or conjugate(p, q))
    for n in (5, 7, 9):
        calls.clear()
        search.enumerate_fixed_sigma(n)
        counted = len(calls)
        search.enumerate_fixed_sigma(n, sink=_refuse)
        assert 0 < len(calls) - counted <= counted


@pytest.mark.parametrize("n", range(2, 9))
def test_counts_and_classes_submit_one_job_kind(n, monkeypatch):
    # a count, a class search and a streaming run hand the pool the same
    # factored jobs; only the parent's aggregation of their outputs
    # differs
    submitted = []
    chunk = search._search_chunk

    def spy(job):
        jobs.append(job)
        return chunk(job)

    monkeypatch.setattr(search, "_search_chunk", spy)
    for run in (search.enumerate_fixed_sigma, search.classify,
                functools.partial(search.enumerate_fixed_sigma,
                                  sink=lambda *args: None)):
        jobs = []
        run(n)
        submitted.append(jobs)
    assert submitted == [_factored_jobs(n, perm.transposition(n, 1, 2))] * 3


def test_least_is_min_of_orbit():
    # _least against the least member of the whole conjugation orbit, on
    # random 4-tuples (some with identity coordinates, as the images
    # below a1 = () have, and each also led by ()) under C(s) and under
    # C(s) n C(a1)
    rng = random.Random(17)
    for n in range(2, 7):
        s = perm.transposition(n, 1, 2)
        e = perm.identity(n)
        cent = groups.centralizer_elements(s, n)
        a1s = _r2_scan(n, s)
        stabs = [[h for h in cent if perm.commutes(h, a1)]
                 for a1 in rng.sample(a1s, min(4, len(a1s)))]
        for group in [cent, *stabs]:
            for _ in range(25):
                key = tuple(e if rng.random() < 0.3
                            else tuple(rng.sample(range(n), n))
                            for _ in range(4))
                for k in (key, (e,) + key[1:]):
                    orbit = {tuple(perm.conjugate(p, h) for p in k)
                             for h in group}
                    assert search._least(k, group) == min(orbit), (k, n)


def test_k_lies_in_c3_at_every_node():
    # k = [a1, b1^-1] commutes with s a1 s and s b1 s at every (a1, b1)
    # node, b1 in R1, and with s a2 s at every (a1, b1, a2) node below it,
    # a2 in C2 = R1 n C(s b1 s), for every a1 that passes R2(a1): the walk
    # needs no k test
    nodes = 0
    for n in range(2, 7):
        s = perm.transposition(n, 1, 2)
        for a1 in _r2_scan(n, s):
            sa1s = _s_conj(a1, s)
            r1 = _r1(n, s, a1)
            for b1 in r1:
                sb1s = _s_conj(b1, s)
                k = perm.compose(perm.compose(perm.compose(
                    a1, perm.inverse(b1)), perm.inverse(a1)), b1)
                assert perm.commutes(k, sa1s) and perm.commutes(k, sb1s)
                for a2 in r1:
                    if perm.commutes(a2, sb1s):
                        assert perm.commutes(k, _s_conj(a2, s)), (a1, b1, a2)
                        nodes += 1
    assert nodes


@pytest.mark.parametrize("n", range(2, 8))
def test_counts_and_classes_never_walk_below_unit(n, monkeypatch):
    # counts and classes read the a1 = () subtree, whose C1 is all of
    # S_n, off the images: each run walks below every other
    # representative once and never below a1 = ()
    walked = []
    walk = search._iter_for_a1

    def spy(n, s, a1, stab):
        walked.append(a1)
        return walk(n, s, a1, stab)

    monkeypatch.setattr(search, "_iter_for_a1", spy)
    search.enumerate_fixed_sigma(n)
    search.classify(n)
    reps = [a1 for _, _, a1, *_ in _factored_jobs(
        n, perm.transposition(n, 1, 2))]
    assert reps[0] == perm.identity(n)
    assert walked == reps[1:] * 2


@pytest.mark.long
def test_factored_n8_heavy_subtrees():
    # the two a1 whose stabilizer is all of C(s), by both walks
    n = 8
    s = perm.transposition(n, 1, 2)
    cent = groups.centralizer_elements(s, n)
    for a1, expected in ((perm.identity(n), 17280),
                         (perm.transposition(n, 1, 2), 0)):
        assert sum(w for _, w in search._iter_for_a1(n, s, a1, cent)) \
            == expected
        assert len(_trivial_walk(n, s, a1)) == expected
    # and the a1 = () count by the Nielsen move and the handle swap
    assert _unit_subtree_route(n, s) == 17280


_RESULT_FIELDS = ("n", "sigma", "fixed_count", "transpositions",
                  "total_count", "orbit_count", "orbit_size_histogram",
                  "image_fingerprint_histogram")


@pytest.mark.parametrize("n,classes",
                         [(2, 16), (3, 40), (4, 240), (5, 0), (6, 60), (7, 0)])
def test_classify_matches_collected_decomposition(n, classes):
    # the classes from the factored walk equal those of the solutions of
    # the unfiltered plain loop, representatives, sizes and order
    # included, and the summary fields equal analyze's; degrees 5 and 7
    # have none
    s = perm.transposition(n, 1, 2)
    solutions = tuple(words.Assignment(n, s, *raw) for raw in _plain_walk(n, s))
    expected = search.orbit_decomposition(list(solutions), n)
    t = n * (n - 1) // 2
    analyzed = search.analyze(search.EnumerationResult(
        n=n, sigma=s, fixed_count=len(solutions), transpositions=t,
        total_count=len(solutions) * t, elapsed_seconds=0.0), expected)
    for workers in (1, 2):
        res, orbits = search.classify(n, workers=workers)
        assert len(orbits) == res.orbit_count == classes
        assert orbits == expected
        for field in _RESULT_FIELDS:
            assert getattr(res, field) == getattr(analyzed, field), field


def test_out_of_memory_is_one_line(monkeypatch):
    # a chunk that runs out of memory ends either search with a
    # RuntimeError, not a MemoryError traceback
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(search, "_search_chunk", exhausted)
    for run in (lambda: search.enumerate_fixed_sigma(4),
                lambda: collected(4),
                lambda: search.classify(4)):
        with pytest.raises(RuntimeError, match="out of memory in the "
                                               "degree-4 search"):
            run()


@pytest.mark.long
def test_classify_n8():
    res, orbits = search.classify(8, workers=os.cpu_count() or 1)
    assert res.fixed_count == 172800
    assert len(orbits) == res.orbit_count == 240
    assert {o.size for o in orbits} == {720}
    keys = [o.representative.sort_key() for o in orbits]
    assert keys == sorted(keys)
    for o in orbits:
        rep = o.representative
        image = groups.fingerprint(
            (rep.sigma, rep.a1, rep.a2, rep.b1, rep.b2), 8)
        assert image.order == 64


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_counts(n):
    res, sols = collected(n)
    orbits = search.orbit_decomposition(list(sols), n)
    assert len(orbits) == EXPECTED_ORBITS[n]
    assert sum(o.size for o in orbits) == res.fixed_count
    # representatives are the least member of their orbit, listed sorted
    keys = [o.representative.sort_key() for o in orbits]
    assert keys == sorted(keys)


def test_orbit_sizes_are_uniform_small():
    # degree 2: conjugation is trivial; degrees 3 and 4: every class meets
    # the fixed-sigma slice in exactly two solutions
    for n, size in ((2, 1), (3, 2), (4, 2)):
        _, sols = collected(n)
        orbits = search.orbit_decomposition(list(sols), n)
        assert {o.size for o in orbits} == {size}


def test_orbit_representative_is_member(n3_result):
    _, sols = n3_result
    orbits = search.orbit_decomposition(list(sols), 3)
    keys = _keys(sols)
    for o in orbits:
        assert o.representative.sort_key() in keys


def test_orbit_decomposition_rejects_broken_input(n3_result):
    sols = list(n3_result[1])
    with pytest.raises(ValueError):
        search.orbit_decomposition(sols + [sols[0]], 3)  # duplicate
    with pytest.raises(AssertionError):
        search.orbit_decomposition(sols[:79], 3)  # not conjugation-closed
    mixed = sols[:1] + [sols[1].conjugated(perm.parse_cycles("(2,3)", 3))]
    with pytest.raises(ValueError):
        search.orbit_decomposition(mixed, 3)  # sigma differs
    assert search.orbit_decomposition([], 3) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_orbit_check(n):
    assert full_orbit_check(n)


@pytest.mark.parametrize("n,expected", [(2, 16), (3, 40), (4, 240), (6, 60)])
def test_orbit_count_matches_burnside(n, expected):
    # independent route: orbits = average number of fixed solutions over
    # the conjugating group (Burnside), using only membership tests
    res, sols = collected(n)
    keys = {(s.a1, s.a2, s.b1, s.b2) for s in sols}
    total_fixed = 0
    for h in groups.centralizer_elements(res.sigma, n):
        total_fixed += sum(
            1 for key in keys
            if tuple(perm.conjugate(p, h) for p in key) == key)
    order = groups.centralizer_order(res.sigma)
    assert total_fixed % order == 0
    assert total_fixed // order == expected


def test_image_name_histogram(n3_result, n4_result):
    assert search.image_name_histogram(n3_result[1], 3) == {"S3": 80}
    assert search.image_name_histogram(n4_result[1], 4) == {"D8": 480}


def test_analyze_fills_orbit_and_image_fields(n3_result, n4_result):
    import math

    res, sols = n3_result
    done = search.analyze(res, search.orbit_decomposition(list(sols), 3))
    assert done.orbit_count == 40
    assert done.orbit_size_histogram == {6: 40}
    assert done.image_fingerprint_histogram == {"S3": 80}
    # the plain counts are untouched
    assert (done.n, done.fixed_count, done.total_count) == (3, 80, 240)
    assert done._replace(orbit_count=None, orbit_size_histogram=None,
                         image_fingerprint_histogram=None) == res

    res4, sols4 = n4_result
    done4 = search.analyze(res4, search.orbit_decomposition(list(sols4), 4))
    assert done4.orbit_count == 240
    assert done4.orbit_size_histogram == {12: 240}
    for size, count in done4.orbit_size_histogram.items():
        assert math.factorial(4) % size == 0
    assert sum(size * count
               for size, count in done4.orbit_size_histogram.items()) == 2880


def test_analyze_empty_degree():
    res, sols = collected(5)
    done = search.analyze(res, search.orbit_decomposition(list(sols), 5))
    assert done.orbit_count == 0
    assert done.orbit_size_histogram == {}
    assert done.image_fingerprint_histogram == {}


def test_analyze_checks_class_sizes():
    # classes that miss solutions do not add up to the count
    res, orbits = search.classify(4)
    with pytest.raises(AssertionError, match="orbit sizes sum to 2868, "
                                             "expected 2880"):
        search.analyze(res, orbits[:-1])


def test_result_str(n3_result):
    text = str(n3_result[0])
    assert "80" in text and "240" in text and "(1,2)" in text
