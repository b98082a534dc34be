"""An in-memory span tracer and the probes that wrap each layer from outside.

The program is not modified: :func:`install_probes` replaces the public
entry points of each layer with timing wrappers, at the name the caller
looks up (``run_kernel`` as ``repro.tensor.tensor`` imported it, the
aggregation functions as the trainers imported them, and so on).

Every wrapped call opens a frame on its thread's stack.  When the frame
closes, its duration is charged to the parent frame on the same thread,
so a layer's *self* time is its span time minus its children's spans.
Coarse calls (rounds, batches, tasks, hub and wire operations) are also
kept as span records ``(id, parent, name, start, end, thread, round,
task_id)``; fine-grained calls that run thousands of times per round
(kernels, forward, backward, optimizer steps, batch gathers) are only
summed per name, which keeps a run's memory flat.  Spans stay in memory
and are written out once, when the measured process ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Recording modes: a FINE call is only summed per name, a SPAN call is also
#: kept as a span record.
FINE = "fine"
SPAN = "span"


class _ThreadState:
    __slots__ = ("stack", "totals", "top_s", "ident")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.totals: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.top_s = 0.0  # time in frames opened with an empty stack
        self.ident = threading.get_ident()


class Tracer:
    """Collects spans, per-name totals and counters for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self.round_index = 0
        self.adopt: Optional[int] = None  # open batch span other threads hang off
        self.trainer_thread: Optional[int] = None

    # ------------------------------------------------------------------
    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def add_span(self, name: str, start: float, end: float,
                 round_index: int = 0, task_id: Any = None) -> None:
        """Record a span timed by the caller (the load generator's requests)."""
        state = self.state()
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += end - start
        totals[2] += end - start
        self.spans.append((next(self._ids), None, name, start, end, state.ident,
                           round_index, task_id))

    def wrap(
        self,
        fn: Callable,
        label: Callable[..., Optional[str]],
        record: str = SPAN,
        task_of: Optional[Callable[..., Any]] = None,
        on_result: Optional[Callable[..., None]] = None,
        adopts: bool = False,
    ) -> Callable:
        """Wrap ``fn``; ``label(*args, **kwargs)`` names the frame (None skips).

        ``task_of(args, kwargs, result)`` extracts a wire task id,
        ``on_result(args, kwargs, result)`` updates counters, and
        ``adopts`` makes the span the parent of spans that other threads
        open with an empty stack while it is open (a thread-pool batch).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(*args, **kwargs)
            if name is None:
                return fn(*args, **kwargs)
            state = tracer.state()
            stack = state.stack
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids) if record == SPAN else 0
            frame = [name, 0.0, span_id]
            stack.append(frame)
            if adopts:
                previous_adopt, tracer.adopt = tracer.adopt, span_id
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if adopts:
                    tracer.adopt = previous_adopt
                duration = end - start
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                else:
                    state.top_s += duration
                if record == SPAN:
                    if parent is not None:
                        parent_id = parent[2] or None
                    elif state.ident != tracer.trainer_thread:
                        parent_id = tracer.adopt
                    else:
                        parent_id = None
                    task_id = task_of(args, kwargs, result) if task_of else None
                    tracer.spans.append(
                        (span_id, parent_id, name, start, end, state.ident,
                         tracer.round_index, task_id)
                    )
                if on_result is not None:
                    on_result(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Lifecycle callback (duck-typed, like the program's own callbacks)
    # ------------------------------------------------------------------
    def claim_thread(self) -> None:
        """Make the calling thread the trainer thread and zero its covered time."""
        state = self.state()
        self.trainer_thread = state.ident
        state.top_s = 0.0

    def on_run_start(self, trainer) -> None:
        self.claim_thread()
        self.round_index = 1

    def on_round_start(self, trainer, round_index, sampled) -> None:
        self.round_index = int(round_index)

    def on_round_end(self, trainer, round_index, record) -> None:
        # Work between rounds (the next plan, the final evaluation) belongs
        # to the round that follows.
        self.round_index = int(round_index) + 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, List[float]]:
        merged: Dict[str, List[float]] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, (calls, total, own) in state.totals.items():
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return merged

    def trainer_top_s(self) -> float:
        """Time the trainer thread spent inside top-level probed calls."""
        with self._lock:
            states = list(self._threads)
        return sum(s.top_s for s in states if s.ident == self.trainer_thread)

    def write(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write every span, then the per-name table, as JSON lines."""
        with open(path, "w") as handle:
            if extra:
                handle.write(json.dumps({"type": "meta", **extra}) + "\n")
            for span_id, parent, name, start, end, thread, rnd, task in self.spans:
                handle.write(json.dumps({
                    "type": "span", "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                    "thread": thread, "round": rnd, "task_id": task,
                }) + "\n")
            for name, (calls, total, own) in sorted(self.totals().items()):
                handle.write(json.dumps({
                    "type": "layer", "name": name, "calls": calls,
                    "total_s": total, "self_s": own,
                }) + "\n")
            for name, value in sorted(self.counters.items()):
                handle.write(json.dumps(
                    {"type": "counter", "name": name, "value": value}
                ) + "\n")


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def _patch(owner, attr: str, tracer: Tracer, label, **options) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(original, classmethod):
        wrapped = tracer.wrap(original.__func__, label, **options)
        setattr(owner, attr, classmethod(wrapped))
    else:
        setattr(owner, attr, tracer.wrap(original, label, **options))


def _fixed(name: str) -> Callable[..., str]:
    return lambda *args, **kwargs: name


def _batch_kind(tasks) -> str:
    tasks = list(tasks)
    return "train" if tasks and all(t.kind == "train" for t in tasks) else "evaluate"


def install_probes(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (idempotent per process)."""
    from repro.data import loader as data_loader
    from repro.engine import runtime as engine_runtime
    from repro.federated import builder, execution, federation, pool
    from repro.federated import client as fed_client
    from repro.federated import compression
    from repro.federated.trainers import base as trainer_base
    from repro.federated.trainers import fedavg as fedavg_mod
    from repro.federated.trainers import subfedavg as subfedavg_mod
    from repro.nn import layers as nn_layers
    from repro.nn import module as nn_module
    from repro.optim import sgd
    from repro.pruning import controller, mask
    from repro.serving import hub
    from repro.systems import rounds
    from repro.tensor import tensor as tensor_mod

    if getattr(tensor_mod.run_kernel, "__wrapped__", None) is not None:
        return

    # Set-up: data synthesis, partitioning, the whole build.
    _patch(builder, "load_dataset", tracer, _fixed("data.load_dataset"))
    _patch(builder, "build_client_data", tracer, _fixed("data.partition"))
    _patch(federation.Federation, "__init__", tracer, _fixed("federated.build"))

    # Local compute.
    _patch(data_loader.DataLoader, "_gather", tracer, _fixed("data.batch_wait"),
           record=FINE)

    def forward_label(module, *args, **kwargs):
        stack = tracer.state().stack
        if stack and stack[-1][0].startswith("nn.forward"):
            return None  # a submodule of a forward already being timed
        return "nn.forward_train" if module.training else "nn.forward_eval"

    _patch(nn_module.Module, "__call__", tracer, forward_label, record=FINE)
    _patch(tensor_mod.Tensor, "backward", tracer, _fixed("tensor.backward"),
           record=FINE)

    def kernel_label(op, *args, **kwargs):
        return "engine.kernel." + op

    _patch(tensor_mod, "run_kernel", tracer, kernel_label, record=FINE)
    _patch(engine_runtime, "run_kernel", tracer, kernel_label, record=FINE)
    _patch(nn_layers, "batch_norm", tracer, _fixed("engine.batch_norm"),
           record=FINE)
    _patch(sgd.SGD, "step", tracer, _fixed("optim.step"), record=FINE)

    # Pruning.
    _patch(controller.PruningController, "snapshot", tracer,
           _fixed("pruning.snapshot"))

    def count_commit(args, kwargs, decision) -> None:
        tracer.count("pruning.updates")
        if decision.unstructured_applied or decision.structured_applied:
            tracer.count("pruning.commits")

    _patch(controller.PruningController, "update", tracer,
           _fixed("pruning.update"), on_result=count_commit)
    _patch(mask.MaskSet, "apply_to_model", tracer, _fixed("pruning.apply_mask"))

    # Execution: batches on every backend, and the one task code path.
    def batch_label(backend, tasks, *args, **kwargs):
        stack = tracer.state().stack
        if stack and stack[-1][0].startswith("execution.batch"):
            return None  # a thread backend delegating a 1-task batch
        return "execution.batch." + _batch_kind(tasks)

    for backend in (execution.SerialBackend, execution.ThreadBackend,
                    execution.ProcessBackend, hub.WireBackend):
        _patch(backend, "run", tracer, batch_label, adopts=True)

    _patch(execution, "run_client_task", tracer,
           lambda client, task, *a, **k: "execution.task." + task.kind)

    # Client pool.
    original_getitem = pool.ClientPool.__getitem__

    def counted_getitem(self, index):
        tracer.count("pool.accesses")
        return original_getitem(self, index)

    counted_getitem.__wrapped__ = original_getitem
    pool.ClientPool.__getitem__ = counted_getitem
    _patch(pool.ClientPool, "_materialize", tracer, _fixed("pool.build"))

    # Evaluation.
    _patch(trainer_base.FederatedTrainer, "evaluate_all", tracer, _fixed("eval.all"))
    _patch(trainer_base.FederatedTrainer, "evaluate_sampled", tracer,
           _fixed("eval.sampled"))
    _patch(fed_client.FederatedClient, "evaluate", tracer, _fixed("eval.client"),
           record=FINE)

    # Aggregation, at the names the trainers imported.
    def count_states(args, kwargs, result) -> None:
        tracer.count("aggregation.states", len(args[0]))

    for module, name in ((subfedavg_mod, "intersection_average"),
                         (subfedavg_mod, "zero_fill_average"),
                         (fedavg_mod, "fedavg_average")):
        _patch(module, name, tracer, _fixed("aggregation"), on_result=count_states)

    # Fleet simulation.
    _patch(rounds.FleetSimulator, "plan_round", tracer, _fixed("systems.plan"))
    _patch(rounds.FleetSimulator, "complete_round", tracer,
           _fixed("systems.complete"))

    # Serving hub (server side) and the wire codec.
    _patch(hub.WireHub, "submit_batch", tracer, _fixed("hub.submit_batch"))
    leased: set = set()

    def count_lease(args, kwargs, payload) -> None:
        # A task leased twice had its first lease expire and requeue.
        task_id = payload.get("task_id") if payload else None
        if task_id is None:
            return
        with tracer._lock:  # handler threads lease concurrently
            requeued = task_id in leased
            leased.add(task_id)
        if requeued:
            tracer.count("hub.lease_requeues")

    _patch(hub.WireHub, "take", tracer, _fixed("hub.take"),
           task_of=lambda a, k, payload: payload.get("task_id") if payload else None,
           on_result=count_lease)
    _patch(hub.WireHub, "complete", tracer, _fixed("hub.complete"),
           task_of=lambda a, k, r: a[1])
    _patch(hub.WireHub, "wait_for", tracer, _fixed("hub.wait_for"))
    _patch(compression, "pack_state", tracer, _fixed("wire.pack"))
    _patch(compression, "decode_state", tracer, _fixed("wire.unpack"))
    _patch(execution.ClientUpdate, "from_wire", tracer, _fixed("wire.from_wire"))
