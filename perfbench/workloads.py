"""The three benchmark workloads and the round that executes one of them.

A *round* builds a fresh cluster, populates the initial tree, settles
(the set-up phase), then runs one closed-loop client task per client
site for a fixed stretch of vtime, with a fixed vtime think time
between ops (the measured phase).  The fault-storm workload arms a scripted
:class:`repro.faults.FaultPlan` at the start of the measured phase and
ends it by restarting every site and healing the network.

Everything a round does is derived from the workload seed, so two rounds
of one seed are the same simulation: the benchmark repeats rounds to
fill its time budget and checks that every repeat is identical.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import LocusCluster
from repro.config import CostModel
from repro.errors import LocusError
from repro.faults import FaultPlan

READ_KINDS = ("read", "stat", "readdir")
WRITE_KINDS = ("write", "rename")


def content(seed: int, path: str, version: int, size: int) -> bytes:
    """Deterministic bytes for one version of one file."""
    head = f"{path}#{version}\n".encode()
    body = random.Random(f"{seed}:{path}:{version}").randbytes(size)
    return (head + body)[:size]


class Zipf:
    """Zipf(s) ranks over ``n`` items; rank 0 is the hottest."""

    def __init__(self, n: int, s: float = 1.0):
        total, cum = 0.0, []
        for k in range(1, n + 1):
            total += 1.0 / k ** s
            cum.append(total)
        self.cum, self.total = cum, total

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cum, rng.random() * self.total)


@dataclass
class Op:
    """One executed client op; ``result`` is what the syscall returned
    (bytes for read, size for stat, sorted names for readdir)."""

    client: int
    kind: str
    path: str
    arg: object = None          # write: the bytes; rename: the new path
    start: float = 0.0
    end: float = 0.0
    ok: bool = False
    err: Optional[str] = None
    result: object = None

    def summary(self) -> tuple:
        res = self.result
        if isinstance(res, (bytes, bytearray)):
            res = hashlib.sha1(res).hexdigest()[:16]
        arg = self.arg
        if isinstance(arg, (bytes, bytearray)):
            arg = hashlib.sha1(arg).hexdigest()[:16]
        return (self.client, self.kind, self.path, arg, self.start,
                self.end, self.ok, self.err, res)


def _exec(api, op: Op):
    if op.kind == "read":
        data = yield from api.read_file(op.path)
        return data
    if op.kind == "stat":
        attrs = yield from api.stat(op.path)
        return attrs["size"]
    if op.kind == "readdir":
        names = yield from api.readdir(op.path)
        return sorted(names)
    if op.kind == "write":
        yield from api.write_file(op.path, op.arg)
        return None
    if op.kind == "rename":
        yield from api.rename(op.path, op.arg)
        return None
    if op.kind == "unlink":     # known-defect probe A only (README.md)
        yield from api.unlink(op.path)
        return None
    raise ValueError(op.kind)


# ----------------------------------------------------------------------
# Workload specifications
# ----------------------------------------------------------------------

@dataclass
class Spec:
    """Everything that defines a workload apart from its seed."""

    name: str
    n_sites: int
    pack_sites: List[int]
    copies: int
    client_sites: List[int]
    duration: float     # vtime each client keeps issuing ops
    think: float
    episodes: int
    cost: Dict[str, object] = field(default_factory=dict)
    storm: bool = False


class Workload:
    """Base class: a spec plus the seeded tree and op generator."""

    spec: Spec

    def __init__(self, seed: int):
        self.seed = seed
        self.initial: Dict[str, bytes] = {}     # path -> initial bytes
        self.dirs: Dict[str, List[str]] = {}    # dir -> initial names

    # -- set-up ------------------------------------------------------

    def tree(self) -> None:
        """Fill ``initial`` and ``dirs`` (deterministic in the seed)."""
        raise NotImplementedError

    def client(self, cid: int) -> "ClientGen":
        raise NotImplementedError

    def fault_plan(self, t0: float) -> Optional[FaultPlan]:
        return None

    def _add_file(self, path: str, data: bytes) -> None:
        self.initial[path] = data
        parent, name = path.rsplit("/", 1)
        self.dirs.setdefault(parent, []).append(name)

    def _add_dir(self, path: str) -> None:
        self.dirs.setdefault(path, [])
        parent, name = path.rsplit("/", 1)
        self.dirs.setdefault(parent or "/", []).append(name)


class ClientGen:
    """A client's seeded op stream.  ``next_op`` may consult what the
    client itself has done so far (its own directory's names)."""

    def __init__(self, workload: Workload, cid: int):
        self.w = workload
        self.cid = cid
        self.rng = random.Random(f"{workload.seed}:{workload.spec.name}:{cid}")

    def next_op(self, elapsed: float) -> Op:
        """The next op, ``elapsed`` vtime into the measured phase."""
        raise NotImplementedError

    def done(self, op: Op) -> None:
        """Called after each op completes (successfully or not)."""


# -- read-walk ---------------------------------------------------------

class ReadWalk(Workload):
    """Diskless clients walking a replicated tree held on two sites."""

    spec = Spec(name="read-walk", n_sites=6, pack_sites=[0, 1], copies=2,
                client_sites=[2, 3, 4, 5], duration=25000.0, think=5.0,
                episodes=5)
    TOP, FILES, SUB, HOME = 2, 36, 8, 4

    def tree(self) -> None:
        rng = random.Random(f"{self.seed}:tree")
        self._add_dir("/t")
        for d in range(self.TOP):
            top = f"/t/d{d}"
            self._add_dir(top)
            for f in range(self.FILES):
                path = f"{top}/file{f:02d}.dat"
                self._add_file(path, content(self.seed, path, 0,
                                             rng.randint(200, 1000)))
            self._add_dir(f"{top}/sub")
            for f in range(self.SUB):
                path = f"{top}/sub/file{f:02d}.dat"
                self._add_file(path, content(self.seed, path, 0,
                                             rng.randint(200, 1000)))
        self._add_dir("/home")
        for cid in self.spec.client_sites:
            self._add_dir(f"/home/c{cid}")
            for f in range(self.HOME):
                path = f"/home/c{cid}/note{f}.txt"
                self._add_file(path, content(self.seed, path, 0,
                                             rng.randint(200, 1000)))
        files = sorted(self.initial)
        random.Random(f"{self.seed}:rank").shuffle(files)
        self.ranked = files
        self.zipf = Zipf(len(files))
        self.dir_list = sorted(d for d in self.dirs if d != "/")

    def client(self, cid: int) -> ClientGen:
        return _ReadWalkClient(self, cid)


class _ReadWalkClient(ClientGen):

    def __init__(self, workload: ReadWalk, cid: int):
        super().__init__(workload, cid)
        self.own = sorted(p for p in workload.initial
                          if p.startswith(f"/home/c{cid}/"))
        self.version: Dict[str, int] = {}

    def next_op(self, elapsed: float) -> Op:
        w, rng = self.w, self.rng
        x = rng.random()
        if x < 0.65:
            return Op(self.cid, "read", w.ranked[w.zipf.draw(rng)])
        if x < 0.85:
            return Op(self.cid, "stat", w.ranked[w.zipf.draw(rng)])
        if x < 0.95:
            return Op(self.cid, "readdir", rng.choice(w.dir_list))
        path = rng.choice(self.own)
        v = self.version[path] = self.version.get(path, 0) + 1
        return Op(self.cid, "write", path,
                  content(w.seed, path, v, rng.randint(200, 1000)))


# -- write-churn -------------------------------------------------------

class WriteChurn(Workload):
    """One writer per site, each in its own directory, on a 3-copy
    filegroup whose live data is several times the buffer cache."""

    spec = Spec(name="write-churn", n_sites=4, pack_sites=[0, 1, 2, 3],
                copies=3, client_sites=[0, 1, 2, 3], duration=27000.0,
                think=5.0, episodes=5,
                cost={"trace_enabled": False, "load_accounting": False})
    START_FILES = 30

    def tree(self) -> None:
        rng = random.Random(f"{self.seed}:tree")
        self._add_dir("/w")
        for cid in self.spec.client_sites:
            self._add_dir(f"/w/c{cid}")
            for f in range(self.START_FILES):
                path = f"/w/c{cid}/f{f}"
                self._add_file(path, content(self.seed, path, 0,
                                             rng.randint(1024, 8192)))

    def client(self, cid: int) -> ClientGen:
        return _WriteChurnClient(self, cid)


class _WriteChurnClient(ClientGen):

    def __init__(self, workload: WriteChurn, cid: int):
        super().__init__(workload, cid)
        self.dir = f"/w/c{cid}"
        self.names = sorted(n for n in workload.dirs[self.dir])
        self.next_name = len(self.names)
        self.version = 0

    def _data(self, path: str) -> bytes:
        self.version += 1
        return content(self.w.seed, path, self.version,
                       self.rng.randint(1024, 8192))

    def next_op(self, elapsed: float) -> Op:
        rng, cid = self.rng, self.cid
        x = rng.random()
        if x < 0.30:
            path = f"{self.dir}/{rng.choice(self.names)}"
            return Op(cid, "write", path, self._data(path))
        if x < 0.45:
            path = f"{self.dir}/f{self.next_name}"
            self.next_name += 1
            return Op(cid, "write", path, self._data(path))
        if x < 0.60:
            new = f"{self.dir}/f{self.next_name}"
            self.next_name += 1
            return Op(cid, "rename", f"{self.dir}/{rng.choice(self.names)}",
                      new)
        if x < 0.85:
            return Op(cid, "read", f"{self.dir}/{rng.choice(self.names)}")
        return Op(cid, "readdir", self.dir)

    def done(self, op: Op) -> None:
        if not op.ok:
            return
        name = op.path.rsplit("/", 1)[1]
        if op.kind == "write" and name not in self.names:
            bisect.insort(self.names, name)
        elif op.kind == "rename":
            self.names.remove(name)
            bisect.insort(self.names, op.arg.rsplit("/", 1)[1])


# -- fault-storm -------------------------------------------------------

class FaultStorm(Workload):
    """Every site reads hot read-only files and overwrites its own file
    while a scripted storm crashes, partitions and degrades the network."""

    HOT, HOT_SIZE = 12, 4 * 1024
    CYCLES, PERIOD = 5, 3600.0
    # Known defects E and F (README.md): a write in flight while a loss
    # burst, a crash or a partition breaks its circuits can lose its
    # truncate, or leave a copy stale after every heal.  Until they are
    # fixed, clients write only in WRITE_WINDOW of each cycle: from the
    # partition's heal (the merge and recovery still running) through
    # the latency spike and the read drops, to 600 vtime before the next
    # crash.  Reads go on through every fault.
    WRITE_WINDOW = (2500.0, 3300.0)
    WRITE_SHARE = 0.5
    # The long think time keeps the cheap local readers on the pack sites
    # and the remote readers at comparable op rates.
    spec = Spec(name="fault-storm", n_sites=5, pack_sites=[0, 1, 2],
                copies=3, client_sites=[0, 1, 2, 3, 4],
                duration=CYCLES * PERIOD, think=100.0, episodes=20, storm=True)

    def tree(self) -> None:
        rng = random.Random(f"{self.seed}:tree")
        self._add_dir("/hot")
        for h in range(self.HOT):
            path = f"/hot/h{h}"
            self._add_file(path, content(self.seed, path, 0, self.HOT_SIZE))
        self._add_dir("/own")
        for cid in self.spec.client_sites:
            path = f"/own/c{cid}"
            self._add_file(path, content(self.seed, path, 0,
                                         rng.randint(512, 2048)))
        hot = sorted(p for p in self.initial if p.startswith("/hot/"))
        random.Random(f"{self.seed}:rank").shuffle(hot)
        self.ranked = hot
        self.zipf = Zipf(len(hot))

    def client(self, cid: int) -> ClientGen:
        return _FaultStormClient(self, cid)

    def fault_plan(self, t0: float) -> FaultPlan:
        """``CYCLES`` repeats of: a pack-site crash and restart, a loss
        burst, the partition [0,1,3] | [2,4] and its heal, a latency
        spike and two dropped ``fs.read_page`` messages."""
        plan = FaultPlan(seed=self.seed, name="perfbench-fault-storm")
        for k in range(self.CYCLES):
            t = t0 + k * self.PERIOD
            (plan.crash(t + 300.0, site=1 + k % 2)
                 .restart(t + 800.0, site=1 + k % 2)
                 .heal(t + 1100.0)
                 .loss_burst(t + 1300.0, rate=0.05, duration=250.0)
                 .heal(t + 1700.0)
                 .partition(t + 1900.0, [0, 1, 3], [2, 4])
                 .heal(t + 2500.0)
                 .latency_spike(t + 2700.0, delta=6.0, duration=300.0)
                 .drop("fs.read_page", count=2, at=t + 3100.0))
        return plan


class _FaultStormClient(ClientGen):

    def __init__(self, workload: FaultStorm, cid: int):
        super().__init__(workload, cid)
        self.own = f"/own/c{cid}"
        self.version = 0

    def next_op(self, elapsed: float) -> Op:
        w, rng = self.w, self.rng
        lo, hi = w.WRITE_WINDOW
        if (rng.random() < 1.0 - w.WRITE_SHARE
                or not lo <= elapsed % w.PERIOD < hi):
            return Op(self.cid, "read", w.ranked[w.zipf.draw(rng)])
        self.version += 1
        return Op(self.cid, "write", self.own,
                  content(w.seed, self.own, self.version,
                          rng.randint(512, 2048)))


WORKLOADS: Dict[str, type] = {cls.spec.name: cls
                              for cls in (ReadWalk, WriteChurn, FaultStorm)}


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------

class _Client:
    """A client's op stream, the vtime it stops at, the op in flight,
    and which incarnation (process) is currently running it."""

    def __init__(self, gen: ClientGen, deadline: float):
        self.gen = gen
        self.deadline = deadline
        self.op: Optional[Op] = None
        self.incarnation = 0


class Round:
    """Set up a cluster for ``workload`` and run its clients once.

    ``setup()`` returns the process CPU seconds it took.  ``run()``
    returns the CPU seconds of each of ``SLICES`` equal vtime slices of
    the clients' stretch, then of the final settle (and, in a storm,
    reconcile); ``run(tick=f)`` calls ``f()`` untimed after each of them,
    so the benchmark can gauge the host's speed slice by slice.
    ``run(profile=...)`` wraps only the measured phase in the profiler's
    ``enable``/``disable`` (``layers.Sampler``).
    """

    SLICES = 20

    def __init__(self, workload: Workload):
        self.w = workload
        self.cluster: Optional[LocusCluster] = None
        self.ops: List[Op] = []
        self.injector = None
        self.t0 = 0.0
        self.t_end = 0.0
        self.msgs_start = None
        self.msgs = None
        self.fault_trace: List[tuple] = []
        self.clients: Dict[int, _Client] = {}
        self.violations: List[object] = []

    def setup(self) -> float:
        c0 = time.process_time()
        w, spec = self.w, self.w.spec
        if not w.initial:
            w.tree()
        cost = CostModel().with_overrides(**spec.cost)
        cluster = self.cluster = LocusCluster(
            n_sites=spec.n_sites, seed=w.seed, cost=cost,
            root_pack_sites=spec.pack_sites)
        sh = cluster.shell(spec.pack_sites[0])
        sh.setcopies(spec.copies)
        for d in sorted(w.dirs, key=lambda p: (p.count("/"), p)):
            if d != "/":
                sh.mkdir(d)
        for path in sorted(w.initial):
            sh.write_file(path, w.initial[path])
        cluster.settle()
        return time.process_time() - c0

    def run(self, profile=None, tick=None) -> List[float]:
        cluster, w, spec = self.cluster, self.w, self.w.spec
        self.t0 = cluster.sim.now
        self.msgs_start = cluster.stats.snapshot()
        plan = w.fault_plan(self.t0)
        if plan is not None:
            self.injector = cluster.inject(plan)
        for cid in spec.client_sites:
            client = self.clients[cid] = _Client(w.client(cid),
                                                 self.t0 + spec.duration)
            self._hook_crash(cid)
            self._start_client(client)
        if profile is not None:
            profile.enable()
        # Draining to each slice end fires the same events in the same
        # order as one settle would; idle hooks fire only on an empty queue.
        cpu, step = [], spec.duration / self.SLICES
        for k in range(1, self.SLICES + 2):
            c0 = time.process_time()
            if k <= self.SLICES:
                cluster.sim.drain(self.t0 + k * step)
            else:
                cluster.settle(
                    max_time=self.t0 + 1_000_000.0 - cluster.sim.now)
                if spec.storm:
                    self._reconcile()
            cpu.append(time.process_time() - c0)
            if tick is not None:
                tick()
        if profile is not None:
            profile.disable()
        self.t_end = cluster.sim.now
        self.msgs = self.msgs_start.diff(cluster.stats.snapshot())
        self.ops.sort(key=lambda op: (op.end, op.client))
        if self.injector is not None:
            self.fault_trace = list(self.injector.trace)
            self.violations = list(self.injector.violations)
            self.injector.disarm()
        return cpu

    def _hook_crash(self, cid: int) -> None:
        """Learn of a crash of the client's site the moment it happens:
        the crash kills the client's task (possibly leaving it parked
        for good inside the syscall it was making)."""
        site = self.cluster.site(cid)
        crash = site.crash

        def crash_and_kill_client():
            crash()
            self._client_killed(cid)

        site.crash = crash_and_kill_client

    def _start_client(self, client: "_Client") -> None:
        cluster, cid = self.cluster, client.gen.cid
        api = cluster.shell(cid).api
        api.setcopies(self.w.spec.copies)
        cluster.spawn(cid, self._client(api, client, client.incarnation),
                      name=f"bench-client@{cid}")

    def _finish(self, client: "_Client", op: Op) -> None:
        op.end = self.cluster.sim.now
        client.op = None
        self.ops.append(op)
        client.gen.done(op)

    def _client(self, api, client: "_Client", incarnation: int):
        """Closed loop: the next op only after the previous completed."""
        sim = self.cluster.sim
        think = self.w.spec.think
        while sim.now < client.deadline and \
                client.incarnation == incarnation:
            op = client.op = client.gen.next_op(sim.now - self.t0)
            op.start = sim.now
            try:
                op.result = yield from _exec(api, op)
                op.ok = True
            except LocusError as exc:
                op.err = type(exc).__name__
            if client.incarnation != incarnation:
                return      # killed mid-op; already recorded
            self._finish(client, op)
            yield think

    def _client_killed(self, cid: int) -> None:
        """The client's site crashed: its in-flight op failed, and the
        client comes back as a fresh process once the site is up."""
        client = self.clients[cid]
        client.incarnation += 1
        if client.op is not None:
            client.op.err = "TaskCancelled"
            self._finish(client, client.op)
        if self.cluster.sim.now < client.deadline:
            self.cluster.sim.schedule(self.w.spec.think, self._revive,
                                      client)

    def _revive(self, client: "_Client") -> None:
        if self.cluster.site(client.gen.cid).up:
            self._start_client(client)
        else:
            self.cluster.sim.schedule(self.w.spec.think, self._revive,
                                      client)

    def _reconcile(self) -> None:
        """End the storm whole: withdraw message drops still waiting for
        a message to drop, restart every down site, heal, merge."""
        cluster = self.cluster
        cluster.net.drop_filters.clear()
        for site in cluster.sites:
            if not site.up:
                site.restart()
                site.topology.request_merge()
        cluster.net.heal()
        cluster.site(0).topology.request_merge()
        cluster.settle(max_time=100_000.0)

    # -- summaries -----------------------------------------------------

    def digest(self) -> str:
        """Fingerprint of the op log (and fault trace): two rounds of one
        seed must produce the same digest."""
        h = hashlib.sha1()
        for op in self.ops:
            h.update(repr(op.summary()).encode())
        for entry in self.fault_trace:
            h.update(repr(entry).encode())
        return h.hexdigest()

    def messages(self) -> Dict[str, int]:
        """Per-type messages sent during the measured phase."""
        return dict(sorted(self.msgs.sent.items()))

    def compact(self) -> None:
        """Keep only digests of read results once they are judged, so the
        benchmark's own memory stays out of ``peak_rss_mb``."""
        for op in self.ops:
            if isinstance(op.result, bytes):
                op.result = op.summary()[-1]

    def release(self) -> None:
        """Drop the cluster (its memory belongs to this round only)."""
        self.cluster = None
        self.injector = None


def percentile(sorted_vals: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_vals) * p // 100) - 1)
    return sorted_vals[int(k)]


def tail(sorted_vals: List[float]) -> Tuple[float, float]:
    """(percentile, value): p99 when at least ten samples lie beyond it,
    else the highest percentile that leaves exactly ten beyond it."""
    n = len(sorted_vals)
    if n >= 1000:
        return 99.0, percentile(sorted_vals, 99)
    if n <= 10:
        return 100.0, sorted_vals[-1]
    return 100.0 * (n - 10) / n, sorted_vals[n - 11]


# Outages are measured per window of this many vtime units (one storm
# cycle), and the median window is reported: the longest gap of a whole
# run is one extreme sample, too erratic across seeds to compare commits.
OUTAGE_WINDOW = FaultStorm.PERIOD


def sim_metrics(rounds: List[Round]) -> Dict[str, Tuple[float, str]]:
    """The simulated end-to-end metrics over the pooled ops of
    ``rounds`` (one per episode): deterministic in the seed."""
    ops = [op for rnd in rounds for op in rnd.ops]
    done = [op for op in ops if op.ok]
    out: Dict[str, Tuple[float, str]] = {}
    for label, kinds in (("read", READ_KINDS), ("write", WRITE_KINDS)):
        lat = sorted(op.end - op.start for op in done if op.kind in kinds)
        per_client: Dict[int, List[float]] = {}
        for op in done:
            if op.kind in kinds:
                per_client.setdefault(op.client, []).append(op.end - op.start)
        pct, value = tail(lat)
        # The median client's median: clients differ by where they sit
        # (local or remote copies), and a pooled median would fall between
        # those groups, moving with the mix rather than with the system.
        out[f"{label}_vlat_p50"] = (statistics.median(
            statistics.median(v) for v in per_client.values()), "vtime")
        out[f"{label}_vlat_tail"] = (value, "vtime")
        out[f"{label}_vlat_tail_pct"] = (pct, "percentile")
        out[f"{label}_samples"] = (len(lat), "count")
    total_msgs = sum(rnd.msgs.total_messages for rnd in rounds)
    out["msgs_per_op"] = (total_msgs / max(1, len(done)), "msgs/op")
    out["ops_ok_frac"] = (len(done) / len(ops), "ratio")
    windows = sorted(w for rnd in rounds for w in outage_windows(rnd))
    out["max_outage_v"] = (percentile(windows, 50), "vtime")
    return out


def outage_windows(rnd: Round) -> List[float]:
    """For each whole ``OUTAGE_WINDOW`` of the measured phase, the
    longest vtime stretch ending in it in which some client completed no
    op: from the client's previous successful op (or the start of the
    phase) to the end of one of its ops, failed ops included."""
    last: Dict[int, float] = {}
    worst: Dict[int, float] = {}
    for op in rnd.ops:          # sorted by completion time
        k = int((op.end - rnd.t0) // OUTAGE_WINDOW)
        worst[k] = max(worst.get(k, 0.0), op.end - last.get(op.client,
                                                            rnd.t0))
        if op.ok:
            last[op.client] = op.end
    whole = int((rnd.ops[-1].end - rnd.t0) // OUTAGE_WINDOW)
    # A window in which no op ended at all was one long outage.
    return [worst.get(k, OUTAGE_WINDOW) for k in range(whole)]
