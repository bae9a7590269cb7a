"""The event-driven web server: one process, many connections.

The paper's design (§4.1) spends a managed thread — and in this
simulator, a scheduled process — on every connection.  That is the
memory cost Pai et al.'s Flash and the epoll generation of servers
were built to avoid: one acceptor, non-blocking sockets, and a
readiness/completion event loop that multiplexes every in-flight
connection inside a single process.

:class:`EventLoopServer` is that design on the simulation kernel.  The
whole server — acceptor included — runs as **one**
:class:`~repro.sim.TaskLoop` driver process:

* the acceptor is a loop *task* pulling connections off the listener's
  accept queue;
* each admitted connection becomes a task driving the same CIL
  ``StartListen`` handler chain the threaded server runs
  (``runtime.invoke`` is a plain simulation generator, so a task can
  execute managed code directly — same JIT warm-up, same class-library
  costs, no CLR thread-start overhead);
* sheds are tasks too, so a saturated server refuses load without
  allocating anything that counts.

Protocol-level behaviour (status codes, shedding, deadline downgrade,
reset accounting) is inherited unchanged from
:class:`~repro.webserver.architecture.ServerHost`; clients cannot tell
the architectures apart except by latency and the server's resource
footprint.  ``live_processes`` is 1 regardless of open connections —
that single number is the architecture's whole argument, and the
``ext_arch`` experiment plots it.
"""

from __future__ import annotations

from repro.sim import TaskLoop
from repro.webserver.architecture import ServerHost

__all__ = ["EventLoopServer"]


class EventLoopServer(ServerHost):
    """Single-process event-driven server (acceptor + connection tasks
    multiplexed on one :class:`~repro.sim.TaskLoop`).

    Memory proxy: ``live_processes`` is exactly 1 however many
    connections are open; ``live_workers`` counts in-flight connection
    tasks (the quantity ``max_concurrency`` sheds against), and
    ``peak_tasks`` records the loop's high-water mark including the
    acceptor and any shed tasks.
    """

    ARCHITECTURE = "eventloop"

    def __init__(self, engine, runtime, fs, network, config=None,
                 retrier=None, labels=None) -> None:
        super().__init__(engine, runtime, fs, network, config, retrier,
                         labels=labels)
        self.loop = TaskLoop(engine, name="webserver.loop",
                             error_handler=self._on_task_error)

    # -- architecture hooks -------------------------------------------------

    def _begin_accepting(self) -> None:
        self.loop.start(daemon=True)
        self.loop.spawn(self._acceptor(), label="acceptor")

    @property
    def live_processes(self) -> int:
        """The loop's driver process — always 1, the point of the design."""
        return 1

    @property
    def peak_tasks(self) -> int:
        """High-water mark of concurrent loop tasks (acceptor included)."""
        return self.loop.peak_live

    # -- the event loop ----------------------------------------------------

    def _acceptor(self):
        """The accept task: admit, shed, or refuse — never block on a
        connection's I/O."""
        while True:
            socket = yield from self.listener.accept_socket()
            if self._should_shed():
                self.loop.spawn(self._shed_connection(socket),
                                label="shed")
                continue
            conn_id = self._admit(socket)
            task = self.loop.spawn(
                self.runtime.invoke(self._start_listen, [conn_id]),
                label=f"conn-{conn_id}",
            )
            task.add_done_callback(self._connection_done)
            self._note_dispatch()

    def _on_task_error(self, task) -> None:
        """A connection task died outside the managed catch blocks.
        One bad connection must not take the loop (and every other
        connection) down, but the failure is accounted."""
        self.metrics.record_failure("task_error")
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("server.task_error", "webserver",
                           task=task.label, error=repr(task.error),
                           arch=self.ARCHITECTURE)
