"""Exhaustive enumeration of small design spaces.

The full case-study space exceeds tens of millions of configurations, but
restricted spaces (e.g. a single node, or shared per-node settings) can be
enumerated exactly; the resulting true Pareto front is used by the unit tests
and by the algorithm-quality ablation to check that the heuristics do not miss
large parts of the front.

The columnar sweep hands the engine id ranges (:class:`~repro.dse.space.DesignIds`),
prunes on objective columns and gathers only surviving rows: genes are decoded
for cache misses, the final front and checkpoints, never for a memo hit.
"""

from __future__ import annotations

import warnings
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.dse.pareto import running_front_indices
from repro.dse.problem import EvaluatedDesign, OptimizationProblem
from repro.dse.space import DesignIds
from repro.engine import faults
from repro.engine.checkpoint import (
    CheckpointWarning,
    SweepCheckpoint,
    load_checkpoint_if_valid,
    save_checkpoint,
)

__all__ = ["ExhaustiveCapWarning", "ExhaustiveSearch"]


class ExhaustiveCapWarning(UserWarning):
    """An exhaustive sweep exceeds its soft ``max_configurations`` threshold.

    The sweep proceeds anyway — enumeration is lazy and the running archive
    is bounded by the front size plus one chunk, so large spaces cost time,
    not memory.  The warning exists so sweeping tens of millions of
    configurations by accident is loud rather than silent."""


#: Checkpoint columns of a running archive that holds no row yet.
_NO_ROWS = (
    np.empty((0, 0), dtype=np.int64),
    np.empty((0, 0)),
    np.empty(0, dtype=bool),
    np.empty(0, dtype=np.int64),
)


def _restore_archive(problem: OptimizationProblem, checkpoint: SweepCheckpoint):
    """Rebuild the running ``ColumnarBatchResult`` archive of a checkpoint."""
    if not len(checkpoint.genotypes):
        return None
    from repro.engine.engine import ColumnarBatchResult

    return ColumnarBatchResult(
        ids=problem.space.batch_keys(checkpoint.genotypes)[0],
        objectives=checkpoint.objectives,
        feasible=checkpoint.feasible,
        violation_counts=checkpoint.violation_counts,
        cached=np.ones(len(checkpoint.genotypes), dtype=bool),
        _engine=problem.engine,
    )


def _run_to_front(
    sweep: Any,
    chunks: Callable[[int], Iterator[tuple[Any, int]]],
    rng_state: Any = None,
    extra: dict | None = None,
) -> list[EvaluatedDesign]:
    """The columnar sweeps' running-front loop, shared by the exhaustive and
    random sweeps: prune on raw objective columns and materialise only the
    final front.

    ``chunks(cursor)`` streams the sweep's chunks (gene rows or design ids)
    from a cursor on, each paired with the cursor after it.  Until the first
    feasible design appears the archive tracks the front of the infeasible
    designs; the first feasible one resets it.  Only surviving rows are
    gathered into the archive, which goes to the sweep's ``front_callback``
    after every chunk.

    With a ``checkpoint_path`` the sweep resumes from a valid checkpoint
    written under the same ``rng_state`` and ``extra`` context (what pins a
    stochastic sweep's draw stream), and saves its state every
    ``checkpoint_every`` chunks and once at the end.  The archive travels as
    raw column arrays (designs are rebuilt from the problem's phenotype
    tables on resume, bitwise identically), with the cursor and the
    archive-reset flag.
    """
    problem = sweep.problem
    path = sweep.checkpoint_path
    extra = extra or {}
    archive = None  # ColumnarBatchResult of the running front
    any_feasible = False
    cursor = 0
    if path is not None:
        hook = getattr(problem, "evaluation_fingerprint", None)
        fingerprint = hook() if callable(hook) else None
        restored = load_checkpoint_if_valid(
            path,
            algorithm=sweep.checkpoint_algorithm,
            space_size=problem.space.size,
            fingerprint=fingerprint,
        )
        if restored is not None and (restored.rng_state, restored.extra) != (
            rng_state,
            extra,
        ):
            warnings.warn(
                "ignoring checkpoint: it was written by a sweep with a "
                "different seed or sample budget; starting cold",
                CheckpointWarning,
                stacklevel=3,
            )
        elif restored is not None:
            # The rows already absorbed are in the restored archive; the
            # sweep resumes at the checkpoint's cursor, in order.
            archive = _restore_archive(problem, restored)
            any_feasible = restored.any_feasible
            cursor = restored.cursor

    def save() -> None:
        genotypes, objectives, feasible, violations = (
            _NO_ROWS
            if archive is None
            else (
                archive.genotypes,
                archive.objectives,
                archive.feasible,
                archive.violation_counts,
            )
        )
        save_checkpoint(
            path,
            SweepCheckpoint(
                algorithm=sweep.checkpoint_algorithm,
                space_size=problem.space.size,
                cursor=cursor,
                any_feasible=any_feasible,
                genotypes=genotypes,
                objectives=objectives,
                feasible=feasible,
                violation_counts=violations,
                rng_state=rng_state,
                fingerprint=fingerprint,
                extra=extra,
            ),
        )
        # Fault-injection seam: resumable-sweep tests SIGKILL (or abort)
        # the run here, at a known persisted state.
        faults.maybe_fire("checkpoint-saved")

    stream = chunks(cursor)
    for chunks_done, (chunk, cursor) in enumerate(stream, start=1):
        batch = problem.evaluate_batch_columns(chunk)
        feasible_rows = np.flatnonzero(batch.feasible)
        if feasible_rows.size and not any_feasible:
            # First feasible design seen: drop the infeasible archive.
            archive = None
            any_feasible = True
        rows = feasible_rows if any_feasible else np.arange(len(batch))
        candidates = (
            batch.objectives if len(rows) == len(batch) else batch.objectives[rows]
        )
        front = candidates[:0] if archive is None else archive.objectives
        indices = np.asarray(running_front_indices(front, candidates), dtype=np.int64)
        # The indices into [archive; candidates] ascend: gather the
        # archive's survivors, then the chunk's, and no other row.
        fresh = indices >= len(front)
        survivors = batch.take(rows[indices[fresh] - len(front)])
        archive = survivors if archive is None else archive.concatenate(
            [archive.take(indices[~fresh]), survivors]
        )
        if sweep.front_callback is not None:
            sweep.front_callback(archive, cursor)
        if path is not None and chunks_done % sweep.checkpoint_every == 0:
            save()
    if path is not None:
        # Always persist the terminal state: a resume of a completed sweep
        # then rebuilds the front without re-evaluating anything.
        save()
    if archive is None or len(archive) == 0:
        return []
    return archive.materialise()


class ExhaustiveSearch:
    """Evaluates every configuration of the design space.

    The sweep is chunked: genotypes are enumerated lazily and handed to the
    problem in blocks of ``chunk_size`` (on the columnar path, each block is
    a range of packed design ids, which the engine keys without decoding
    them), and after every block the results
    are pruned to the running non-dominated set — memory stays bounded by
    the front size plus one chunk, not by the size of the space, while an
    evaluation engine can still deduplicate, vectorize or parallelise each
    block.

    Problems advertising ``supports_columnar`` are swept **columnar to the
    front** by default: chunks are served as raw objective/feasibility
    columns (:meth:`~repro.dse.problem.OptimizationProblem.evaluate_batch_columns`),
    the running archive is pruned as column arrays, and
    :class:`~repro.dse.problem.EvaluatedDesign` objects are materialised
    only for the final front — removing the dominant parent-side cost of
    large sweeps.  Both paths share one pruning kernel
    (:func:`~repro.dse.pareto.running_front_indices`), so their fronts are
    bitwise identical, membership and ordering alike.

    Args:
        problem: the optimisation problem to enumerate.
        max_configurations: soft threshold on the space size — sweeping a
            larger space warns (:class:`ExhaustiveCapWarning`) and
            proceeds.  Enumeration is lazy and memory stays bounded by the
            front plus one chunk, so the threshold guards against
            accidental long runs, not against memory exhaustion.
        chunk_size: genotypes per evaluated block.
        columnar: force the columnar sweep on (``True``, requires a problem
            with ``supports_columnar``) or off (``False``, always
            materialise per chunk); ``None`` picks columnar whenever the
            problem supports it.
        checkpoint_path: when set, the columnar sweep periodically persists
            its running state (front columns, chunk cursor, archive flags)
            to this file — atomic, versioned, checksummed (see
            :mod:`repro.engine.checkpoint`) — and a later run with the same
            path resumes where the interrupted one stopped, producing a
            front bitwise identical to an uninterrupted sweep.  An
            unusable checkpoint (corrupt, version-mismatched, written for a
            different space/evaluator) is ignored with a warning and the
            sweep starts cold.  Requires the columnar path.
        checkpoint_every: chunks between checkpoint writes (the final state
            is always written, so a completed sweep resumes as a no-op).
        front_callback: when set, called after every absorbed chunk with the
            running archive (a ``ColumnarBatchResult`` of the current
            non-dominated rows, or ``None`` while the archive is empty) and
            the cursor of genotypes consumed so far.  The hook serves two
            jobs for streaming consumers (the DSE service): progress — a
            front update can be shipped per chunk instead of only at the
            end — and cancellation — an exception raised by the callback
            aborts the sweep between chunks and propagates to the caller
            (the engine stays healthy; no partial chunk is in flight).
            Requires the columnar path.
    """

    #: name stamped into checkpoints; a resume under a different algorithm
    #: is rejected as a context mismatch
    checkpoint_algorithm = "exhaustive"

    def __init__(
        self,
        problem: OptimizationProblem,
        max_configurations: int = 200_000,
        chunk_size: int = 1024,
        columnar: bool | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 8,
        front_callback: Callable[[object, int], None] | None = None,
    ) -> None:
        if max_configurations <= 0:
            raise ValueError("max_configurations must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if columnar and not getattr(problem, "supports_columnar", False):
            raise ValueError(
                "columnar=True needs a problem with columnar batch support "
                "(an engine-backed problem not recording its evaluations)"
            )
        if columnar is False and checkpoint_path is not None:
            raise ValueError(
                "checkpointing is only supported by the columnar sweep"
            )
        if columnar is False and front_callback is not None:
            raise ValueError(
                "front streaming is only supported by the columnar sweep"
            )
        self.problem = problem
        self.max_configurations = max_configurations
        self.chunk_size = chunk_size
        self.columnar = columnar
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.front_callback = front_callback

    def run(self) -> list[EvaluatedDesign]:
        """Enumerate the space and return the feasible non-dominated designs."""
        size = self.problem.space.size
        if size > self.max_configurations:
            warnings.warn(
                f"the design space holds {size} configurations, above the "
                f"exhaustive-search threshold of {self.max_configurations}; "
                "sweeping it anyway (memory stays bounded by the front plus "
                "one chunk, but expect a long run — pass "
                f"ExhaustiveSearch(problem, max_configurations={size}) or "
                "higher to silence this warning)",
                ExhaustiveCapWarning,
                stacklevel=2,
            )
        columnar = self.columnar
        if columnar is None:
            columnar = getattr(self.problem, "supports_columnar", False)
        if self.checkpoint_path is not None and not columnar:
            raise ValueError(
                "checkpointing is only supported by the columnar sweep"
            )
        if self.front_callback is not None and not columnar:
            raise ValueError(
                "front streaming is only supported by the columnar sweep"
            )
        if not columnar:
            return self._run_objects()
        # Columnar chunks are design-id ranges: a space too large for int64
        # ids raises here, before any work (it could never finish).
        self.problem.space.ids(np.arange(0))
        return _run_to_front(self, self._chunks)

    # ------------------------------------------------------- columnar sweep

    def _chunks(self, cursor: int) -> Iterator[tuple[DesignIds, int]]:
        """Id-range chunks from ``cursor`` on, each with the next id after
        it: ids count the row-major enumeration, so the cursor is also the
        number of genotypes consumed so far."""
        space = self.problem.space
        while cursor < space.size:
            stop = min(cursor + self.chunk_size, space.size)
            yield space.ids(np.arange(cursor, stop)), stop
            cursor = stop

    # --------------------------------------------------------- object sweep

    def _run_objects(self) -> list[EvaluatedDesign]:
        """Classic per-chunk materialisation (the columnar path's reference)."""
        # Running non-dominated archive.  As long as no feasible design has
        # been seen the archive tracks the front of the infeasible designs,
        # so an entirely infeasible space still yields its best trade-offs
        # (matching the unpruned semantics); the first feasible design resets
        # it, and from then on only feasible designs compete.
        archive: list[EvaluatedDesign] = []
        any_feasible = False
        genotypes = self.problem.space.enumerate_genotypes()
        while chunk := list(islice(genotypes, self.chunk_size)):
            archive, any_feasible = self._absorb(archive, any_feasible, chunk)
        return archive

    def _absorb(
        self,
        archive: list[EvaluatedDesign],
        any_feasible: bool,
        chunk: list[tuple[int, ...]],
    ) -> tuple[list[EvaluatedDesign], bool]:
        """Evaluate one chunk and prune to the running non-dominated set."""
        designs = self.problem.evaluate_batch(chunk)
        feasible = [design for design in designs if design.feasible]
        if feasible and not any_feasible:
            archive = []
            any_feasible = True
        candidates = feasible if any_feasible else designs
        indices = running_front_indices(
            [design.objectives for design in archive],
            [design.objectives for design in candidates],
        )
        pool = archive + candidates
        return [pool[index] for index in indices], any_feasible
