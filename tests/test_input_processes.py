# The verbs' input stage over forked processes: pipeline._map_inputs and the
# ingest, trend and fit trees it feeds, which must equal a serial run's.

import json
import os
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import srgrowth
from srgrowth import pipeline
from srgrowth.cli import main
from srgrowth.errors import ParseError

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="the input stage runs in one process here",
)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_cpus(monkeypatch, cpus: int, share: int = 1) -> None:
    """Let the input stage see ``cpus`` CPUs and fork for any input size."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(pipeline, "_SHARE_BYTES", share)


def write_export(path: Path, n: int, start=T0, step_days=1.7) -> Path:
    """A raw NDJSON export of ``n`` issues, every third not a defect."""
    lines = []
    for i in range(n):
        labels = ["bug"] if i % 3 else ["enhancement"]
        created = (start + timedelta(days=step_days * i, seconds=37 * i)).isoformat()
        lines.append(json.dumps({"id": i + 1, "created_at": created, "labels": labels,
                                 "title": f"crash {i} é", "state": "open"}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture()
def exports(tmp_path):
    """Four raw exports of unequal sizes, the largest third."""
    raw = tmp_path / "raw"
    raw.mkdir()
    return [write_export(raw / f"{name}.ndjson", n) for name, n in
            (("p1", 60), ("p2", 90), ("p3", 150), ("p4", 40))]


def read_and_pid(path: Path):
    return path.read_bytes(), os.getpid()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_map_inputs_yields_the_serial_results_in_input_order(monkeypatch, exports, cpus):
    use_cpus(monkeypatch, cpus)
    results = list(pipeline._map_inputs(read_and_pid, exports))
    assert [data for data, _ in results] == [p.read_bytes() for p in exports]
    pids = [pid for _, pid in results]
    assert len(set(pids)) == cpus
    assert pids[2] == os.getpid()  # this process takes the largest file
    no_child_left()


def test_map_inputs_keeps_small_inputs_in_this_process(monkeypatch, exports):
    use_cpus(monkeypatch, 3, share=sum(p.stat().st_size for p in exports))
    assert {pid for _, pid in pipeline._map_inputs(read_and_pid, exports)} == {os.getpid()}


@pytest.mark.parametrize("last", ["empty", "absent"])
def test_empty_and_missing_files_take_no_process_of_their_own(monkeypatch, exports, tmp_path,
                                                              last):
    """One non-empty file among three at 3 CPUs: one process, which runs
    every file in its turn."""
    empty = tmp_path / "empty.ndjson"
    empty.write_bytes(b"")
    files = [exports[2], empty, tmp_path / f"{last}.ndjson"]
    use_cpus(monkeypatch, 3)
    results = pipeline._map_inputs(lambda path: (path.stem, os.getpid()), files)
    assert list(results) == [(path.stem, os.getpid()) for path in files]
    with pytest.raises(FileNotFoundError, match="absent.ndjson"):
        list(pipeline._map_inputs(parse, [exports[2], empty, tmp_path / "absent.ndjson"]))
    no_child_left()


def parse(path: Path):
    return pipeline.parse_issues(path.read_bytes())


def corrupt(path: Path, at: int) -> Path:
    """Put a malformed line after the line that holds character ``at``."""
    text = path.read_text(encoding="utf-8")
    cut = text.index("\n", at) + 1
    path.write_text(text[:cut] + "{\n" + text[cut:], encoding="utf-8")
    return path


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_first_bad_file_in_input_order_raises_its_error(monkeypatch, exports, cpus):
    """p2 fails in a child and p3, the largest, here; p2's error and offset
    are the serial run's."""
    corrupt(exports[1], 500)
    corrupt(exports[2], 900)
    with pytest.raises(ParseError) as serial:
        [parse(p) for p in exports]
    use_cpus(monkeypatch, cpus)
    with pytest.raises(ParseError) as dealt:
        list(pipeline._map_inputs(parse, exports))
    assert (str(dealt.value), dealt.value.offset) == (str(serial.value), serial.value.offset)
    no_child_left()


def test_a_missing_file_fails_in_its_turn(monkeypatch, exports, tmp_path):
    use_cpus(monkeypatch, 2)
    corrupt(exports[3], 10)
    files = [*exports[:2], tmp_path / "absent.ndjson", *exports[2:]]
    with pytest.raises(FileNotFoundError, match="absent.ndjson"):
        list(pipeline._map_inputs(parse, files))
    no_child_left()


def test_a_child_that_dies_fails_the_call_and_names_its_file(monkeypatch, exports):
    parent = os.getpid()

    def dies_on_p1(path):
        if path.stem == "p1" and os.getpid() != parent:
            os._exit(7)
        return path.stem

    use_cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match=r"p1\.ndjson ended with exit status 7"):
        list(pipeline._map_inputs(dies_on_p1, exports))
    no_child_left()


def test_a_failed_fork_runs_its_share_here(monkeypatch, exports):
    def no_fork():
        raise OSError("fork: resource temporarily unavailable")

    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    results = list(pipeline._map_inputs(read_and_pid, exports))
    assert results == [(p.read_bytes(), os.getpid()) for p in exports]
    assert len(os.listdir("/proc/self/fd")) == open_fds  # each pipe is closed


def test_an_interrupt_here_kills_and_reaps_the_children(monkeypatch, exports, tmp_path):
    """This process is interrupted on its file while its child sleeps: the
    interrupt propagates at once and leaves no child."""
    parent, asleep = os.getpid(), tmp_path / "asleep"

    def interrupted_here(path):
        if os.getpid() != parent:
            asleep.touch()
            time.sleep(60)
            return path.stem
        deadline = time.monotonic() + 30
        while not asleep.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise KeyboardInterrupt

    use_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        list(pipeline._map_inputs(interrupted_here, exports))
    assert asleep.exists()
    assert time.monotonic() - start < 30
    no_child_left()


def run_verbs(out: Path, exports, releases: Path) -> dict:
    """Ingest, trend by releases, trend whole and fit; their trees."""
    ingest = out / "ingest"
    argvs = [["ingest", "--issues", *map(str, exports), "--title-match", "--out", str(ingest)]]
    ndjson = [str(ingest / f"{p.stem}.ndjson") for p in exports]
    argvs.append(["trend", "--issues", *ndjson, "--group-by", "releases",
                  "--releases", str(releases), "--min-faults", "5", "--out", str(out / "trend_r")])
    argvs.append(["trend", "--issues", *ndjson, "--out", str(out / "trend")])
    argvs.append(["fit", "--issues", *ndjson, "--models", "GO,MO", "--budget", "64",
                  "--format", "csv,json", "--out", str(out / "fit")])
    for argv in argvs:
        assert main(argv) == 0
    return tree(out)


@pytest.fixture()
def releases(tmp_path):
    path = tmp_path / "releases.csv"
    path.write_text(
        "name,start,end\n"
        "r1,2021-01-01T00:00:00Z,2021-03-01T00:00:00Z\n"
        "r2,2021-03-01T00:00:00Z,2021-08-01T00:00:00Z\n"
    )
    return path


@pytest.mark.parametrize("cpus", [2, 3])
def test_verb_trees_and_output_equal_the_serial_ones(monkeypatch, capsys, tmp_path, exports,
                                                     releases, cpus):
    serial = run_verbs(tmp_path / "serial", exports, releases)
    serial_out = capsys.readouterr().out.replace(str(tmp_path / "serial"), "OUT")
    use_cpus(monkeypatch, cpus)
    dealt = run_verbs(tmp_path / "dealt", exports, releases)
    assert capsys.readouterr().out.replace(str(tmp_path / "dealt"), "OUT") == serial_out
    assert dealt == serial
    no_child_left()


def test_projects_without_issues_give_the_serial_trees(monkeypatch, capsys, tmp_path, exports,
                                                     releases):
    """An export with no defect ingests to an empty file, which trend and
    fit report as a project with no issues."""
    raw = exports[:1] + [write_export(tmp_path / "raw" / f"{name}.ndjson", 1) for name in "qr"]
    serial = run_verbs(tmp_path / "serial", raw, releases)
    assert serial["ingest/q.ndjson"] == b"" and serial["ingest/r.ndjson"] == b""
    capsys.readouterr()
    use_cpus(monkeypatch, 3)
    assert run_verbs(tmp_path / "dealt", raw, releases) == serial
    no_child_left()


def test_a_failed_ingest_leaves_the_serial_runs_files(monkeypatch, capsys, tmp_path, exports):
    """p2 is bad: a serial run has written p1 when it fails, and no other."""
    corrupt(exports[1], 300)
    outs = {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"out{cpus}"
        assert main(["ingest", "--issues", *map(str, exports), "--out", str(out)]) == 2
        outs[cpus] = (tree(out), capsys.readouterr())
        no_child_left()
    assert list(outs[1][0]) == ["p1.ndjson"]
    assert outs[2] == outs[1] and outs[3] == outs[1]


@pytest.mark.parametrize("fault", ["malformed", "not UTF-8"])
@pytest.mark.parametrize("verb", ["ingest", "trend", "fit"])
def test_a_parse_error_names_its_file(monkeypatch, capsys, tmp_path, exports, verb, fault):
    """p2 is bad; at 2 CPUs a child parses it.  The message is the serial
    run's and names the file."""
    bad = exports[1]
    if fault == "malformed":
        corrupt(bad, 500)
    else:
        bad.write_bytes(bad.read_bytes().replace(b"crash 5", b"crash \xff", 1))
    errors = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        argv = [verb, "--issues", *map(str, exports), "--out", str(tmp_path / f"out{cpus}")]
        if verb == "fit":
            argv += ["--models", "GO", "--budget", "16"]
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
        no_child_left()
    assert errors[1] == errors[0]
    assert errors[0].startswith(f"error: {bad}: {fault}")


def run_forking(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter whose input stage sees two CPUs
    and forks for any input size, with a time limit."""
    src = str(Path(srgrowth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    setup = (
        "import os, sys\n"
        "import srgrowth.pipeline as pipeline\n"
        "pipeline._SHARE_BYTES = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
    )
    return subprocess.run([sys.executable, "-c", setup + code], env=env, timeout=120,
                          capture_output=True, text=True)


def test_fit_forks_before_numpy_loads(tmp_path, exports):
    out = tmp_path / "ingest"
    assert main(["ingest", "--issues", *map(str, exports), "--out", str(out)]) == 0
    argv = ["fit", "--issues", *map(str, sorted(out.glob("*.ndjson"))), "--models", "GO",
            "--budget", "32", "--out", str(tmp_path / "fit")]
    code = (
        "fork, forks = os.fork, []\n"
        "def checked():\n"
        "    assert 'numpy' not in sys.modules\n"
        "    forks.append(1)\n"
        "    return fork()\n"
        "os.fork = checked\n"
        "from srgrowth.cli import main\n"
        f"assert main({argv!r}) == 0 and forks == [1]\n"
    )
    done = run_forking(code)
    assert done.returncode == 0, done.stderr


def test_a_verb_whose_child_dies_fails_and_names_the_file(tmp_path, exports):
    """The verb must not hang.  The child holds p2 and p1, and dies on p2,
    the larger."""
    out = tmp_path / "out"
    argv = ["ingest", "--issues", *map(str, exports), "--out", str(out)]
    code = (
        "parent, ingest_file = os.getpid(), pipeline._ingest_file\n"
        "def dies_on_p2(path, include_title):\n"
        "    if path.stem == 'p2' and os.getpid() != parent:\n"
        "        os.kill(os.getpid(), 9)\n"
        "    return ingest_file(path, include_title)\n"
        "pipeline._ingest_file = dies_on_p2\n"
        "from srgrowth.cli import main\n"
        f"raise SystemExit(main({argv!r}))\n"
    )
    done = run_forking(code)
    assert done.returncode == 2
    assert "p2.ndjson ended with exit status -9" in done.stderr
    assert not out.exists()  # p1 came from no process, so nothing was written
