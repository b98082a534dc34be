"""Pluggable client-execution backends: the round loop as a task engine.

Trainers describe one communication round as a list of declarative
:class:`ClientTask` objects — *which* client does *what* (train against the
global weights, fine-tune-and-evaluate, …) — and hand the list to
:meth:`FederatedTrainer.execute`, which delegates to an
:class:`ExecutionBackend`.  Each backend offers one in-order
``map(fn, items)``, the only parallel primitive in the repo: its ``run``
is a thin call over that ``map``, and the sweep engine maps whole runs
over the same backends, one level up.

* :class:`SerialBackend` — runs tasks in order in the calling thread.
  The default; bit-identical to the historical hand-rolled ``for`` loops.
* :class:`ThreadBackend` — a thread pool per batch.  Local training is
  dominated by numpy/BLAS kernels that release the GIL, so sampled
  clients genuinely overlap.  Clients are disjoint per task and each owns
  its own seeded RNG stream, so results do not depend on scheduling.
* :class:`ProcessBackend` — a process pool.  Under ``fork`` each batch's
  workers inherit the clients (and global state) copy-on-write; under
  ``spawn`` one persistent executor receives picklable task payloads.
  Either way workers ship a picklable :class:`ClientUpdate` (plus a
  :class:`ClientSync` of mutated client state) back to the parent, which
  re-applies it in task order.

Determinism contract: every backend returns updates in **task order**, and
all client-side randomness comes from per-client generators
(:class:`~repro.data.loader.DataLoader` is seeded with
``(seed, client_id)``), so serial, threaded and multiprocess runs of the
same federation produce identical :class:`~repro.federated.metrics.History`
objects.
"""

from __future__ import annotations

import base64
import itertools
import multiprocessing
import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..pruning import MaskSet

State = Dict[str, Any]

#: Valid ``ClientTask.kind`` values.
TASK_KINDS = ("train", "evaluate")

#: Valid ``ClientTask.load`` values.
LOAD_MODES = ("none", "global", "partial")

#: Version stamped on every ``to_wire`` payload; ``from_wire`` refuses
#: other versions instead of misparsing them.
WIRE_VERSION = 1


def _check_wire_version(payload: Mapping, what: str) -> None:
    version = payload.get("schema")
    if version != WIRE_VERSION:
        raise ValueError(
            f"unsupported {what} wire schema {version!r} "
            f"(this build speaks version {WIRE_VERSION})"
        )


@dataclass(frozen=True)
class ClientTask:
    """One unit of client work, described declaratively (and picklable).

    ``kind="train"`` runs local SGD; ``kind="evaluate"`` measures test
    accuracy (optionally after a fine-tune of ``epochs`` epochs).  ``load``
    selects what the client downloads first: the full global state, the
    ``shared_names`` subset (LG-FedAvg), or nothing (MTL, standalone).
    """

    client_index: int
    kind: str = "train"
    load: str = "none"
    shared_names: Tuple[str, ...] = ()
    anchor_global: bool = False  # FedProx / MTL regularizer reference point
    epochs: Optional[int] = None  # train: budget override; evaluate: fine-tune
    restore: bool = False  # evaluate: leave the client untouched afterwards
    want_trajectory: bool = False  # Sub-FedAvg Figure-1 bookkeeping

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"kind must be one of {TASK_KINDS}, got {self.kind!r}")
        if self.load not in LOAD_MODES:
            raise ValueError(f"load must be one of {LOAD_MODES}, got {self.load!r}")
        if self.load == "partial" and not self.shared_names:
            raise ValueError("load='partial' requires shared_names")

    def to_wire(self) -> Dict[str, Any]:
        """Versioned JSON-safe dict — the serving protocol's task format."""
        return {
            "schema": WIRE_VERSION,
            "client_index": self.client_index,
            "kind": self.kind,
            "load": self.load,
            "shared_names": list(self.shared_names),
            "anchor_global": self.anchor_global,
            "epochs": self.epochs,
            "restore": self.restore,
            "want_trajectory": self.want_trajectory,
        }

    @classmethod
    def from_wire(cls, payload: Mapping) -> "ClientTask":
        """Inverse of :meth:`to_wire`; refuses unknown schema versions."""
        _check_wire_version(payload, "ClientTask")
        return cls(
            client_index=int(payload["client_index"]),
            kind=str(payload["kind"]),
            load=str(payload["load"]),
            shared_names=tuple(payload["shared_names"]),
            anchor_global=bool(payload["anchor_global"]),
            epochs=None if payload["epochs"] is None else int(payload["epochs"]),
            restore=bool(payload["restore"]),
            want_trajectory=bool(payload["want_trajectory"]),
        )


@dataclass
class ClientSync:
    """Client state mutated by a task, for re-applying after a process hop."""

    model_state: State
    rng_state: Dict[str, Any]
    controller_state: Optional[Dict[str, Any]] = None


@dataclass
class ClientUpdate:
    """What one task sends back to the server.

    For a training task this is the paper's ClientUpdate: the post-training
    state dict, the number of examples actually processed this round, the
    mean loss, the committed personal mask and the pruning decisions.  For
    an evaluation task only ``accuracy`` is populated.
    """

    client_index: int
    client_id: int
    state: Optional[State] = None
    mask: Optional[MaskSet] = None
    num_examples: int = 0
    mean_loss: float = 0.0
    val_accuracy: Optional[float] = None
    pruned_unstructured: bool = False
    pruned_structured: bool = False
    accuracy: Optional[float] = None
    sparsity: Optional[float] = None
    channel_sparsity: Optional[float] = None
    sync: Optional[ClientSync] = None

    def to_wire(self, codec=None) -> Dict[str, Any]:
        """Versioned JSON-safe dict with the state encoded by ``codec``.

        ``codec`` is any registered :class:`~repro.federated.compression
        .Compressor` (None = identity, which is bitwise-lossless); the
        payload is self-describing, so the receiver decodes without
        knowing the sender's codec in advance.  ``sync`` stays off the
        wire deliberately: remote executors own their client state.
        """
        from .compression import IdentityCompressor, pack_state

        if codec is None:
            codec = IdentityCompressor()
        payload: Dict[str, Any] = {
            "schema": WIRE_VERSION,
            "client_index": int(self.client_index),
            "client_id": int(self.client_id),
            "num_examples": int(self.num_examples),
            "mean_loss": float(self.mean_loss),
            "val_accuracy": _opt_float(self.val_accuracy),
            "pruned_unstructured": bool(self.pruned_unstructured),
            "pruned_structured": bool(self.pruned_structured),
            "accuracy": _opt_float(self.accuracy),
            "sparsity": _opt_float(self.sparsity),
            "channel_sparsity": _opt_float(self.channel_sparsity),
            "state": None,
            "mask": None,
        }
        if self.state is not None:
            encoded = codec.encode(self.state)
            payload["state"] = {
                "codec": encoded.codec,
                "bits": encoded.bits,
                "blob": base64.b64encode(encoded.payload).decode("ascii"),
            }
        if self.mask is not None:
            blob = pack_state({name: m for name, m in self.mask.items()})
            payload["mask"] = base64.b64encode(blob).decode("ascii")
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping) -> "ClientUpdate":
        """Inverse of :meth:`to_wire` (state decoded by its own header)."""
        from .compression import decode_state, unpack_state

        _check_wire_version(payload, "ClientUpdate")
        state = None
        if payload["state"] is not None:
            state = decode_state(base64.b64decode(payload["state"]["blob"]))
        mask = None
        if payload["mask"] is not None:
            mask = MaskSet(unpack_state(base64.b64decode(payload["mask"])))
        return cls(
            client_index=int(payload["client_index"]),
            client_id=int(payload["client_id"]),
            state=state,
            mask=mask,
            num_examples=int(payload["num_examples"]),
            mean_loss=float(payload["mean_loss"]),
            val_accuracy=_opt_float(payload["val_accuracy"]),
            pruned_unstructured=bool(payload["pruned_unstructured"]),
            pruned_structured=bool(payload["pruned_structured"]),
            accuracy=_opt_float(payload["accuracy"]),
            sparsity=_opt_float(payload["sparsity"]),
            channel_sparsity=_opt_float(payload["channel_sparsity"]),
        )


def _opt_float(value) -> Optional[float]:
    return None if value is None else float(value)


def capture_sync(client) -> ClientSync:
    """Snapshot everything a training task may have mutated on ``client``."""
    controller = client.controller
    return ClientSync(
        model_state=client.state_dict(),
        rng_state=client.rng_state(),
        controller_state=None if controller is None else controller.state_dict(),
    )


def apply_sync(client, sync: ClientSync) -> None:
    """Replay a worker-side mutation onto the parent's ``client``."""
    client.model.load_state_dict(sync.model_state)
    client.set_rng_state(sync.rng_state)
    if sync.controller_state is not None:
        client.controller.load_state_dict(sync.controller_state)


def run_client_task(
    client, task: ClientTask, global_state: State, with_sync: bool = False
) -> ClientUpdate:
    """Execute one task against ``client`` and package the result.

    This is the single code path every backend funnels through, so serial
    and parallel execution cannot drift apart semantically.
    """
    if task.kind == "train":
        return _run_train(client, task, global_state, with_sync)
    return _run_evaluate(client, task, global_state)


def _load(client, task: ClientTask, global_state: State) -> None:
    if task.load == "global":
        client.load_global(global_state)
    elif task.load == "partial":
        client.load_partial(global_state, task.shared_names)


def _run_train(
    client, task: ClientTask, global_state: State, with_sync: bool
) -> ClientUpdate:
    _load(client, task, global_state)
    if task.anchor_global:
        client.set_anchor(global_state)
    result = client.train_local(epochs=task.epochs)
    update = ClientUpdate(
        client_index=task.client_index,
        client_id=client.client_id,
        state=client.state_dict(),
        mask=client.mask,
        num_examples=result.num_examples,
        mean_loss=result.mean_loss,
        val_accuracy=result.val_accuracy,
        pruned_unstructured=result.pruned_unstructured,
        pruned_structured=result.pruned_structured,
    )
    if task.want_trajectory:
        update.sparsity = client.controller.unstructured_sparsity()
        update.channel_sparsity = client.controller.channel_sparsity()
        update.accuracy = client.test_accuracy()
    if with_sync:
        update.sync = capture_sync(client)
    return update


def _run_evaluate(client, task: ClientTask, global_state: State) -> ClientUpdate:
    saved = client.snapshot_state() if task.restore else None
    _load(client, task, global_state)
    if task.epochs:
        client.train_local(epochs=task.epochs)
    accuracy = client.test_accuracy()
    if saved is not None:
        client.restore_state(saved)
    return ClientUpdate(
        client_index=task.client_index,
        client_id=client.client_id,
        accuracy=accuracy,
    )


def default_worker_count(workers: int = 0) -> int:
    """Resolve a worker-count setting: positive values pass through, 0/None
    means one worker per CPU this process may run on (the affinity mask,
    so ``taskset`` or a cpuset is not oversubscribed)."""
    if workers and workers > 0:
        return int(workers)
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def _bound_tasks(tasks, clients, global_state):
    """Lazy ``(task, client, global_state)`` triples.  Each client is looked
    up in the calling thread as its triple is drawn: a
    :class:`~repro.federated.pool.ClientPool` is not thread-safe."""
    return ((task, clients[task.client_index], global_state) for task in tasks)


def _run_bound_task(bound: Tuple[ClientTask, Any, State]) -> ClientUpdate:
    task, client, global_state = bound
    return run_client_task(client, task, global_state)


class ExecutionBackend:
    """Strategy interface: an in-order parallel ``map``, and ``run``, which
    executes a batch of client tasks and returns updates in task order."""

    name = "abstract"

    #: Does ``run`` mutate clients from several threads of *this* process
    #: at once?  A :class:`~repro.federated.pool.ClientPool` must pin such
    #: a batch live for the duration — an evicted-then-rebuilt twin must
    #: never race a running task.  Serial execution and the process
    #: backend's parent side touch clients strictly sequentially.
    concurrent_in_process = False

    def map(self, fn: Callable[[Any], Any], items: Sequence) -> List:
        """``[fn(item) for item in items]`` on this backend's workers, in order."""
        raise NotImplementedError

    def run(
        self, tasks: Sequence[ClientTask], clients: Sequence, global_state: State
    ) -> List[ClientUpdate]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any persistent workers (a no-op for most backends)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """In-order, in-thread execution — the reference semantics."""

    name = "serial"

    def __init__(self, workers: int = 0) -> None:  # signature-compatible
        del workers

    def map(self, fn, items):
        return [fn(item) for item in items]

    def run(self, tasks, clients, global_state):
        return self.map(_run_bound_task, _bound_tasks(tasks, clients, global_state))


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution; clients are mutated in place as in serial."""

    name = "thread"
    concurrent_in_process = True

    def __init__(self, workers: int = 0) -> None:
        self.workers = default_worker_count(workers)

    def map(self, fn, items):
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(fn, items))

    def run(self, tasks, clients, global_state):
        bound = _bound_tasks(tasks, clients, global_state)
        if len(tasks) <= 1:
            return [_run_bound_task(item) for item in bound]
        return self.map(_run_bound_task, bound)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadBackend(workers={self.workers})"


def resolve_start_method(start_method: Optional[str] = None) -> str:
    """Pick a multiprocessing start method, failing loudly when impossible.

    ``None`` auto-selects: ``fork`` where available (cheap worker startup,
    shared read-only pages), else ``spawn`` — so platforms without fork
    (Windows, macOS defaults) get a working pool instead of a crash or a
    hang.  An explicit method that the platform lacks raises a clear
    ``RuntimeError`` naming the alternatives.
    """
    methods = multiprocessing.get_all_start_methods()
    if start_method is None:
        return "fork" if "fork" in methods else "spawn"
    if start_method not in methods:
        raise RuntimeError(
            f"multiprocessing start method {start_method!r} is unavailable "
            f"on this platform (have {methods}); pass start_method=None to "
            "auto-select, or use the thread backend"
        )
    return start_method


def _process_entry(bound: Tuple[ClientTask, Any, State]) -> ClientUpdate:
    """Worker-side unit of work: a bound task whose update also carries the
    client state it mutated, for the parent to replay."""
    task, client, global_state = bound
    return run_client_task(
        client, task, global_state, with_sync=task.kind == "train"
    )


#: ``fork`` batches in flight, by id: ``(fn, items)`` that a batch's
#: workers inherit copy-on-write instead of unpickling.  Keyed so that
#: batches started from several threads, or from inside a worker of
#: another batch, never see each other's items.
_FORK_BATCHES: Dict[int, Tuple[Callable[[Any], Any], Sequence]] = {}
_fork_batch_ids = itertools.count()


def _fork_call(batch: int, index: int):
    """Worker-side unit of work under ``fork``: everything is inherited."""
    fn, items = _FORK_BATCHES[batch]
    return fn(items[index])


class ProcessBackend(ExecutionBackend):
    """Process-pool execution, dispatch strategy chosen by start method.

    ``map`` runs on :class:`concurrent.futures.ProcessPoolExecutor`, whose
    workers are not daemonic, so a mapped function may itself use a
    process backend (a sweep cell whose federation runs on ``process``).
    A single item runs inline: no pool is worth starting for it.

    * ``fork`` — each batch forks a short-lived pool whose workers
      inherit ``fn`` and the items copy-on-write and are sent only an
      index, so *nothing* ships on the way in (only results pickle
      back).  Fork startup is a syscall, far cheaper than serializing
      every client's model **and dataset** per task into a persistent
      pool.
    * ``spawn`` — one persistent executor is reused across batches
      (worker startup boots an interpreter, so persistence is what pays)
      and ``fn`` and each item ship pickled.

    ``run`` maps ``(task, client, global_state)`` triples; each worker
    returns a :class:`ClientUpdate` whose ``sync`` payload the parent
    replays onto its own client, in task order, so the parent federation
    ends the round in exactly the state a serial run produces.
    """

    name = "process"

    def __init__(self, workers: int = 0, start_method: Optional[str] = None) -> None:
        self.workers = default_worker_count(workers)
        self.start_method = resolve_start_method(start_method)
        self._executor = None  # the spawn path's persistent pool

    def map(self, fn, items):
        if len(items) <= 1:
            return [fn(item) for item in items]
        # Imported here: it would add startup time to every other backend.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if self.start_method == "fork":
            batch = next(_fork_batch_ids)
            _FORK_BATCHES[batch] = (fn, items)
            context = multiprocessing.get_context("fork")
            try:
                with ProcessPoolExecutor(
                    min(self.workers, len(items)), mp_context=context
                ) as pool:
                    return list(
                        pool.map(_fork_call, [batch] * len(items), range(len(items)))
                    )
            finally:
                del _FORK_BATCHES[batch]
        if self._executor is None:
            context = multiprocessing.get_context(self.start_method)
            self._executor = ProcessPoolExecutor(self.workers, mp_context=context)
        try:
            return list(self._executor.map(fn, items))
        except BrokenProcessPool:
            self.close()  # a dead worker breaks the pool: start afresh next time
            raise
        except Exception:
            # Pickling failures surface as various types (PicklingError,
            # AttributeError, TypeError) depending on the payload; probe
            # the payloads so the caller gets a diagnosis, not a hang dump.
            for payload in (fn, *items):
                try:
                    pickle.dumps(payload)
                except Exception as pickle_exc:
                    raise RuntimeError(
                        f"worker payloads must pickle for the "
                        f"{self.start_method!r} process pool ({pickle_exc}); "
                        "use the thread backend for unpicklable clients"
                    ) from pickle_exc
            raise

    def run(self, tasks, clients, global_state):
        if len(tasks) <= 1:
            return SerialBackend().run(tasks, clients, global_state)
        updates = self.map(
            _process_entry, list(_bound_tasks(tasks, clients, global_state))
        )
        for task, update in zip(tasks, updates):
            if update.sync is not None:
                apply_sync(clients[task.client_index], update.sync)
                update.sync = None
        return updates

    def close(self) -> None:
        """Shut the persistent pool down; the next ``map`` starts afresh."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessBackend(workers={self.workers}, "
            f"start_method={self.start_method!r})"
        )


class SpawnProcessBackend(ProcessBackend):
    """Explicit ``spawn``-start process pool (the no-fork platform path)."""

    name = "process-spawn"

    def __init__(self, workers: int = 0) -> None:
        super().__init__(workers=workers, start_method="spawn")


#: Registry of constructible backends, keyed by config/CLI name.
BACKENDS = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
    SpawnProcessBackend.name: SpawnProcessBackend,
}


def available_backends() -> Tuple[str, ...]:
    """Names accepted by ``FederationConfig.backend`` and ``--backend``."""
    return tuple(BACKENDS)


def resolve_backend(
    backend: Union[str, ExecutionBackend, None], workers: int = 0
) -> ExecutionBackend:
    """Turn a config value (name, instance or None) into a backend object."""
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise KeyError(
            f"unknown execution backend {backend!r}; "
            f"choose from {sorted(BACKENDS)}"
        ) from None
    return cls(workers=workers)
