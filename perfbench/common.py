"""Shared pieces of the benchmark: statistics, spans, processes, records.

Nothing here imports ``repro`` at module level: :func:`use_checkout_source`
puts the checkout's ``src/`` on ``sys.path`` first, so the benchmark
always measures the code of the tree it sits in, never an installed copy.
"""

from __future__ import annotations

import bisect
import difflib
import gc
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: run records, span dumps and server logs; listed in the root .gitignore
OUT = ROOT / ".perfbench_out"


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program answering
    wrongly, which is reported as ``correct: false``)."""


def quiesce() -> None:
    """Collect the garbage of earlier work and freeze what survives.

    Called before each timed operation: the benchmark's own long-lived
    state (oracle programs, samples) then costs the cyclic collector
    nothing during the operation, and every operation starts from the
    same collector state instead of inheriting a half-full generation.
    The operation's own garbage is still collected as it runs.
    """
    gc.collect()
    gc.freeze()


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> Dict[str, str]:
    """Environment for server processes: this checkout's source first,
    and temporary files (``ssd cluster`` keeps shard port files in one)
    inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(OUT / "tmp")
    return env


class Oracle:
    """Counts checked outputs and keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.tally(1, [] if ok else [what])

    def tally(self, attempted: int, failures: List[str]) -> None:
        """``attempted`` operations, of which ``failures`` failed."""
        self.attempted += attempted
        self.failed += len(failures)
        self.wrong.extend(failures[:max(0, 10 - len(self.wrong))])


# -- statistics -------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, median and spread (quartiles, as a share of the
    median) of one metric's samples."""
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "samples": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
    }


#: (paced, wall) value of one timed stretch of work; see :class:`Pace`
Paced = Tuple[float, float]


class Metrics:
    """Named metrics of one run, each with its unit and raw samples."""

    def __init__(self) -> None:
        self._entries: Dict[str, dict] = {}

    def add(self, name: str, unit: str, value: float,
            samples: Optional[Sequence[float]] = None) -> None:
        """Record ``value``; ``samples`` (default ``[value]``) feeds the
        record's count/median/spread."""
        entry = {"value": float(value), "unit": unit}
        entry.update(summary(samples if samples else [value]))
        self._entries[name] = entry

    def add_median(self, name: str, unit: str,
                   samples: Sequence[float]) -> None:
        self.add(name, unit, statistics.median(samples), samples)

    def add_percentile(self, name: str, unit: str, samples: Sequence[Paced],
                       q: float) -> None:
        """Percentile ``q`` of paced samples, the wall one beside it."""
        self.add(name, unit, percentile([p for p, _ in samples], q),
                 [p for p, _ in samples])
        self._entries[name]["wall"] = percentile([w for _, w in samples], q)

    def add_program_sum(self, name: str, unit: str,
                        passes: Sequence[Sequence[Paced]]) -> None:
        """Passes over the same programs: the sum over programs of each
        program's median over passes, so a slow moment costs only the
        program it hit.  The record keeps the pass sums as samples."""
        per_program = list(zip(*passes))
        self.add(name, unit, sum(statistics.median(p for p, _ in times)
                                 for times in per_program),
                 [sum(p for p, _ in one) for one in passes])
        self._entries[name]["wall"] = sum(
            statistics.median(w for _, w in times) for times in per_program)

    def add_paced(self, name: str, unit: str,
                  samples: Sequence[Paced]) -> None:
        """Median of paced samples; the record keeps the wall median
        beside it."""
        self.add_median(name, unit, [paced for paced, _ in samples])
        self._entries[name]["wall"] = statistics.median(
            wall for _, wall in samples)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> dict:
        return self._entries[name]

    def names(self) -> List[str]:
        return list(self._entries)

    def as_dict(self) -> Dict[str, dict]:
        return dict(self._entries)


# -- machine pace -------------------------------------------------------------

#: seconds between two ticks (reference slices) while sampling
TICK_S = 0.02
#: seconds one tick takes on the machine timings are scaled to
REFERENCE_S = 0.0016
#: fewest ticks a window's speed is read from
MIN_TICKS = 3
_POOL = 1 << 16
_STEPS = 1000
#: length of the two sequences a tick matches
_MATCH = 150
_UNPACK = struct.Struct("<H").unpack_from


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def _reference_job(pool: List[_Cell], order: List[int], blob: bytes,
                   left: List[int], right: List[int]) -> int:
    """Interpreter work like the program's own: scattered object reads,
    string-keyed dict updates and struct unpacks, then a pure-Python
    sequence match (``difflib``), whose wide mix of code slows with a
    busy host the way the compressor does."""
    table: Dict[str, int] = {}
    words = []
    for step, index in enumerate(order):
        cell = pool[index]
        table[cell.key] = table.get(cell.key, 0) + cell.value
        if step & 7 == 0:
            words.append(_UNPACK(blob, index & 0xfff0)[0])
    matcher = difflib.SequenceMatcher(None, left, right, autojunk=False)
    return len(table) + sum(words) + len(matcher.get_matching_blocks())


class Pace:
    """The machine's speed while work runs, read from a fixed reference job.

    Shared hosts change speed from one fraction of a second to the next:
    on a 2-vCPU KVM guest a fixed pure-Python loop swings between about
    45 and 80 ms, and process CPU time slows with it, so no clock in the
    guest tells a slow spell from slower code.  Inside :meth:`sampling`,
    an interval timer interrupts the work every :data:`TICK_S` with a
    tick: a slice of a reference job that does not depend on the program
    under test.  A stretch of work from ``start`` to ``end`` is reported
    (:meth:`paced`) as its wall time less the ticks it contains, times
    ``REFERENCE_S / r``, ``r`` the mean tick inside it: the time the work
    takes on a machine where a tick takes ``REFERENCE_S``.  On that guest
    this cut the quartile spread of one run's decompress times from 0.33
    to 0.07 of their median.  Wall times stay in the run record.
    """

    def __init__(self) -> None:
        rng = random.Random(1)
        self._pool = [_Cell(f"k{i}", i) for i in range(_POOL)]
        self._order = rng.sample(range(_POOL), _STEPS)
        self._blob = bytes(rng.randrange(256) for _ in range(_POOL))
        self._left = [rng.randrange(40) for _ in range(_MATCH)]
        self._right = [symbol if rng.random() < 0.7 else rng.randrange(40)
                       for symbol in self._left]
        #: start and seconds of every tick, in time order
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._depth = 0
        self._ticking = False

    def tick(self, signum=None, frame=None) -> None:
        """Run one reference slice, collector off, and log it."""
        if self._ticking:
            return
        self._ticking = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _reference_job(self._pool, self._order, self._blob,
                           self._left, self._right)
            self.starts.append(start)
            self.durations.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
            self._ticking = False

    @contextmanager
    def sampling(self):
        """Tick every :data:`TICK_S` while the body runs (nests)."""
        if not self._depth:
            previous = signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1
            if not self._depth:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)

    def _inside(self, start: float, end: float) -> Tuple[int, int]:
        return (bisect.bisect_left(self.starts, start),
                bisect.bisect_left(self.starts, end))

    def work(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` less the ticks begun in it."""
        low, high = self._inside(start, end)
        return end - start - sum(self.durations[low:high])

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean tick from ``start`` to ``end``, or
        over the :data:`MIN_TICKS` ticks nearest to it."""
        while len(self.durations) < MIN_TICKS:
            self.tick()
        low, high = self._inside(start, end)
        if high - low < MIN_TICKS:
            middle = (start + end) / 2
            nearest = sorted(range(len(self.starts)),
                             key=lambda i: abs(self.starts[i] - middle))
            ticks = [self.durations[i] for i in nearest[:MIN_TICKS]]
        else:
            ticks = self.durations[low:high]
        return REFERENCE_S * len(ticks) / sum(ticks)

    def paced(self, start: float, end: float) -> Paced:
        """``(paced, wall)`` seconds of the work from ``start`` to ``end``."""
        work = self.work(start, end)
        return work * self.factor(start, end), work

    def timed(self, fn, *args):
        """``(result, (paced, wall))`` of ``fn(*args)``."""
        with self.sampling():
            start = time.perf_counter()
            result = fn(*args)
            end = time.perf_counter()
        return result, self.paced(start, end)


# -- spans ------------------------------------------------------------------

class Spans:
    """In-memory span recorder for the traced run.

    Spans are recorded from the benchmark's own code around each call
    into a layer; nothing inside ``src/`` is instrumented.  A span is
    ``(id, parent, trace, name, start, end)``; spans of one request share
    a trace id.  :meth:`dump` writes them out once the run is over.
    """

    def __init__(self) -> None:
        self._rows: List[list] = []
        self._lock = threading.Lock()

    def record(self, name: str, start: float, end: float,
               parent: int = 0, trace: int = 0) -> int:
        """Add a finished span; returns its id."""
        with self._lock:
            span_id = len(self._rows) + 1
            self._rows.append([span_id, parent, trace or span_id, name,
                               start, end])
        return span_id

    def begin(self, name: str, parent: int = 0, trace: int = 0) -> int:
        """Open a span now; close it with :meth:`end`."""
        return self.record(name, time.perf_counter(), 0.0, parent, trace)

    def end(self, span_id: int) -> None:
        self._rows[span_id - 1][5] = time.perf_counter()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": i, "parent": p, "trace": t, "name": n,
                 "start": s, "end": e} for i, p, t, n, s, e in self._rows]
        path.write_text(json.dumps(rows))


# -- child processes ----------------------------------------------------------

class ProcessGroup:
    """A server or cluster started as the leader of its own process group.

    Everything it forks (a cluster's shard processes) inherits the
    process group, so :meth:`stop` can reach every descendant and
    :meth:`Processes.close` can prove none outlived it.
    """

    def __init__(self, argv: List[str], log_name: str) -> None:
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        self.log_path = OUT / log_name
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                argv, cwd=str(OUT), env=child_env(), stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        self.pgid = self.process.pid

    def wait_for_file(self, path: Path, parse=int, timeout: float = 30.0):
        """``parse`` of the contents of ``path``, once the child has
        written all of it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchError(
                    f"{self.process.args[3]} exited with code "
                    f"{self.process.returncode} during start-up; see "
                    f"{self.log_path}")
            try:
                return parse(path.read_text())
            except (FileNotFoundError, ValueError):
                time.sleep(0.01)
        raise BenchError(f"{path.name} not written within {timeout}s")

    def members(self) -> List[int]:
        return group_members(self.pgid)

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets of every live group member."""
        total_kb = 0
        for pid in self.members():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self, grace: float = 10.0) -> None:
        """SIGTERM the whole group, then SIGKILL whatever remains."""
        _signal_group(self.pgid, signal.SIGTERM)
        try:
            self.process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + grace
        while self.members() and time.monotonic() < deadline:
            time.sleep(0.02)
        if self.members() or self.process.poll() is None:
            _signal_group(self.pgid, signal.SIGKILL)
            self.process.wait(timeout=grace)
            deadline = time.monotonic() + grace
            while self.members() and time.monotonic() < deadline:
                time.sleep(0.02)


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # comm may contain spaces; the fields after its ")" are fixed
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


class Processes:
    """Every process group a run started; :meth:`close` stops them all
    and reports any that outlived their stop."""

    def __init__(self) -> None:
        self._groups: List[ProcessGroup] = []
        self._stopped: List[int] = []

    def start(self, argv: List[str], log_name: str) -> ProcessGroup:
        group = ProcessGroup(argv, log_name)
        self._groups.append(group)
        return group

    def stop(self, group: ProcessGroup) -> None:
        group.stop()
        self._groups.remove(group)
        self._stopped.append(group.pgid)

    def close(self) -> List[int]:
        """Stop what is still running; return pids that survived."""
        for group in list(self._groups):
            self.stop(group)
        leaked = [pid for pgid in self._stopped
                  for pid in group_members(pgid)]
        for pid in leaked:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return leaked


def ssd_argv(*args: str) -> List[str]:
    """Command line for the ``ssd`` CLI of this checkout."""
    return [sys.executable, "-m", "repro.tools", *args]


@dataclass
class Run:
    """One benchmark run: its arguments and everything it collects."""

    seed: int
    seconds: float
    trace: bool
    spans: Spans = field(default_factory=Spans)
    metrics: Metrics = field(default_factory=Metrics)
    oracle: Oracle = field(default_factory=Oracle)
    processes: Processes = field(default_factory=Processes)
    pace: Pace = field(default_factory=Pace)


# -- the run record -----------------------------------------------------------

def source_digest() -> str:
    """Content hash of ``src/``: identifies the code under test even in
    a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine() -> dict:
    from repro import kernels

    backend = kernels.backend()
    if backend == "numpy":
        import numpy
        backend = f"numpy {numpy.__version__}"
    else:
        backend = "pure python"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_backend": backend,
    }


def peak_rss_self_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def registry_value(name: str) -> float:
    """Sum of every labelled series of a ``repro.obs.REGISTRY`` metric."""
    from repro.obs import REGISTRY

    metric = REGISTRY.get(name)
    return float(metric.total()) if metric is not None else 0.0


def prometheus_sums(text: str) -> Dict[str, float]:
    """Fold a Prometheus text exposition into ``name -> sum over labels``."""
    sums: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        try:
            sums[name] = sums.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return sums
