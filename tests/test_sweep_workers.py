"""The sweep's worker processes: bytes, errors and process hygiene.

`sweep` runs share 0 of its groups in the calling process and every other
share in a forked child.  The number of shares is min(usable CPUs, number
of groups), read by `pipeline._usable_cpus`; the tests set it through that
one function and start at most two workers.  After every test no child of
this process is left, running or unreaped.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import resource
import signal
import time
from contextlib import redirect_stdout

import pytest

from socle_verify import pipeline
from socle_verify.cli import main
from socle_verify.pgroup import UnknownGroup
from socle_verify.pipeline import RunStageError, sweep

from test_pipeline_cli import SWEEP_DIGEST, SWEEP_GROUPS, TEXT_DIGESTS


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _shares(monkeypatch, count):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: count)


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _fork_fails():
    raise AssertionError("a sweep forked a worker")


def test_run_stage_error_survives_pickling():
    err = pickle.loads(pickle.dumps(RunStageError("verify", ValueError("x"))))
    assert err.stage == "verify"
    assert type(err.error) is ValueError
    assert str(err.error) == "x"
    assert str(err) == "[verify] ValueError: x"


def test_unknown_group_is_raised_before_any_worker_starts(monkeypatch):
    _shares(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _fork_fails)
    with pytest.raises(UnknownGroup, match="unknown catalog group 'nosuch'"):
        sweep(groups=["C2", "D8", "nosuch"], inner_count=1, subst_count=1)


@pytest.mark.parametrize("platform", ["one usable cpu", "no fork"])
def test_one_share_forks_nothing(monkeypatch, platform):
    # the count comes from the CPU affinity; a platform with no os.fork
    # runs every group in this process
    if platform == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", _fork_fails)
    assert pipeline._usable_cpus() == 1
    report = sweep(seed=7, groups=["C2", "D8", "C3"], inner_count=1, subst_count=1)
    assert [r.group_name for r in report.reports] == ["C2", "C2", "D8", "D8", "C3", "C3"]


# (argv, sha256 of its stdout or None); the same bytes from one share and
# from two, each share's groups interleaved in list order
SPLIT_CASES = {
    "perfbench": (["sweep", "--seed", "7", "--groups", ",".join(SWEEP_GROUPS),
                   "--inner", "2", "--subst", "2", "--format", "json"], SWEEP_DIGEST),
    "full-check": (["sweep", "--groups", "C2,D8,C3xC3,Heis27", "--full-check", "--format", "json"], None),
    "text": (["sweep", "--groups", "C2,D8,C3xC3,Heis27", "--inner", "2", "--subst", "2"],
             TEXT_DIGESTS[("sweep", "--groups", "C2,D8,C3xC3,Heis27", "--inner", "2", "--subst", "2")]),
    "repeated name": (["sweep", "--groups", "C2,C2,D8", "--format", "json"], None),
}


@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_report_bytes_do_not_depend_on_the_share_count(monkeypatch, case):
    monkeypatch.delenv("SOCLE_VERIFY_SEED", raising=False)
    argv, digest = SPLIT_CASES[case]
    outputs = []
    for count in (1, 2):
        _shares(monkeypatch, count)
        code, out = _cli(argv)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    if digest is not None:
        assert hashlib.sha256(outputs[0].encode()).hexdigest() == digest


# with two shares C2 and D8 run here and C3 and Q8 in the worker
@pytest.mark.parametrize("failing, first", [
    ({"C3", "D8"}, "C3"),  # the worker's failure comes first
    ({"C2", "Q8"}, "C2"),  # this process's failure comes first
    ({"Q8"}, "Q8"),
])
@pytest.mark.parametrize("count", [1, 2])
def test_the_lowest_failing_run_raises_its_error(capsys, monkeypatch, count, failing, first):
    verify_stack = pipeline.verify_stack

    def injected(autos):
        name = autos[0].algebra.group.name
        if name in failing:
            raise ValueError(f"injected in {name}")
        return verify_stack(autos)

    monkeypatch.setattr(pipeline, "verify_stack", injected)
    _shares(monkeypatch, count)
    assert main(["sweep", "--groups", "C2,C3,D8,Q8", "--inner", "1", "--subst", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [verify] ValueError: injected in {first}\n"


class _Ballast:
    """An object whose pickling allocates 256 MB."""

    def __reduce__(self):
        return bytes, (bytes(1 << 28),)


@pytest.mark.parametrize("how, status", [("exit", 3), ("signal", -signal.SIGKILL), ("memory", 1)])
def test_a_worker_that_ends_without_a_result_is_one_error_line(capsys, monkeypatch, how, status):
    # the worker leaves by os._exit, is killed by a signal, or under an
    # address-space cap cannot pickle its result
    parent = os.getpid()
    run = pipeline.run

    def dies_in_the_worker(algebra, autos, full_check=False):
        report = run(algebra, autos, full_check=full_check)
        if os.getpid() == parent:
            return report
        if how == "exit":
            os._exit(3)
        if how == "signal":
            os.kill(os.getpid(), signal.SIGKILL)
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[0])
        cap = pages * os.sysconf("SC_PAGE_SIZE") + (64 << 20)
        resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
        report.ballast = _Ballast()
        return report

    monkeypatch.setattr(pipeline, "run", dies_in_the_worker)
    _shares(monkeypatch, 2)
    assert main(["sweep", "--groups", "C2,C3", "--inner", "1", "--subst", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: [sweep] ChildProcessError: a sweep worker ended without a "
                            f"result (exit status {status})\n")


def test_an_interrupt_kills_and_reaps_every_worker(monkeypatch):
    parent = os.getpid()

    def interrupted(algebra, autos, full_check=False):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(pipeline, "run", interrupted)
    _shares(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sweep(groups=["C2", "C3", "D8"], inner_count=1, subst_count=1)
    assert time.monotonic() - start < 30
