"""Uniform random search baseline."""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.dse.exhaustive import _run_to_front
from repro.dse.pareto import pareto_front_indices
from repro.dse.problem import EvaluatedDesign, OptimizationProblem

__all__ = ["RandomSearch"]


class RandomSearch:
    """Samples the design space uniformly and keeps the non-dominated set.

    Random search is the sanity baseline of the DSE comparison: any guided
    algorithm driven by the same evaluation budget should dominate (or at
    least match) its front.

    Problems advertising ``supports_columnar`` are swept columnar to the
    front by default: distinct genotypes are drawn lazily in chunk-sized
    blocks, each block is served as raw objective columns and pruned into
    a running front, and only the final front's designs are ever
    materialised — peak memory holds one chunk, the dedup seen-set and the
    running front, never the full sample list.  Fronts are bitwise
    identical with the columnar path on or off: the draw stream is shared,
    and the chunked running-front pruning is order-identical to the
    one-shot extraction of the object path.

    Args:
        problem: the optimisation problem to sample.
        samples: number of uniform draws (duplicates are dropped).
        seed: random seed (the draw stream is deterministic for a seed).
        columnar: force the columnar path on (``True``, requires a problem
            with ``supports_columnar``) or off (``False``); ``None`` picks
            columnar whenever the problem supports it.
        checkpoint_path: when set, the columnar sweep periodically
            persists its running state — including the RNG state needed to
            redraw the identical sample stream — so an interrupted run
            resumed with the same path produces a front bitwise identical
            to an uninterrupted one (see :mod:`repro.engine.checkpoint`).
            Requires the columnar path.
        checkpoint_every: chunks between checkpoint writes.
        chunk_size: distinct samples per evaluated block of the columnar
            sweep (``chunk_size >= samples`` evaluates the whole sample as
            one batch).
        front_callback: when set, called after every absorbed chunk of the
            columnar sweep with the running archive (a
            ``ColumnarBatchResult``, or ``None`` while empty) and the count
            of distinct genotypes consumed — the same progress/cancellation
            hook as :class:`~repro.dse.exhaustive.ExhaustiveSearch`: an
            exception raised by the callback aborts the sweep between
            chunks.  Requires the columnar path.
    """

    #: name stamped into checkpoints; a resume under a different algorithm
    #: is rejected as a context mismatch
    checkpoint_algorithm = "random-search"

    def __init__(
        self,
        problem: OptimizationProblem,
        samples: int = 2000,
        seed: int = 0,
        columnar: bool | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 8,
        chunk_size: int = 1024,
        front_callback: Callable[[object, int], None] | None = None,
    ) -> None:
        if samples <= 0:
            raise ValueError("samples must be positive")
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
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
        self.samples = samples
        self.columnar = columnar
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.chunk_size = chunk_size
        self.front_callback = front_callback
        self._rng = np.random.default_rng(seed)
        # Captured before any draw: a resumed run restores this state and
        # redraws the identical sample stream (draws are pure RNG
        # consumption, so the stream is a function of the state alone).
        self._initial_rng_state = self._rng.bit_generator.state

    def run(self) -> list[EvaluatedDesign]:
        """Sample the space and return the feasible non-dominated designs.

        Evaluation consumes no randomness, so the draw stream is a function
        of the initial RNG state alone — columnar, object-path and resumed
        runs all see the identical sequence of distinct genotypes and
        return bitwise-identical fronts.
        """
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
        if columnar:
            # The initial RNG state and the sample budget pin the draw
            # stream a checkpoint cursor counts distinct genotypes of.
            return _run_to_front(
                self,
                self._chunks,
                rng_state=self._initial_rng_state,
                extra={"samples": self.samples},
            )
        evaluated = self.problem.evaluate_batch(list(self._draw_stream()))
        feasible = [design for design in evaluated if design.feasible] or evaluated
        front = pareto_front_indices([design.objectives for design in feasible])
        return [feasible[index] for index in front]

    # ------------------------------------------------------------ internals

    def _draw_stream(self) -> Iterator[tuple[int, ...]]:
        """Stream the sample draws: distinct genotypes in first-draw order.

        Lazy on purpose: only the dedup seen-set survives across chunks of
        the streaming sweep — the full distinct-genotype list is never
        materialised, so drawing is O(distinct draws) memory for the set of
        keys but O(1) for the stream itself.  Consuming the stream advances
        ``self._rng`` draw by draw, exactly like the eager loop it
        replaces, so the sequence is identical for a given initial state.
        """
        seen: set[tuple[int, ...]] = set()
        for _ in range(self.samples):
            genotype = self.problem.space.random_genotype(self._rng)
            if genotype in seen:
                continue
            seen.add(genotype)
            yield genotype

    def _chunks(self, cursor: int) -> Iterator[tuple[list[tuple[int, ...]], int]]:
        """Chunks of the distinct draw stream after its first ``cursor``
        genotypes, each with the count of distinct genotypes consumed.

        The consumed prefix is replayed: raw draws are redrawn from the
        initial RNG state and the distinct ones discarded, which both
        rebuilds the dedup seen-set and positions the stream exactly where
        an interrupted run stopped.
        """
        stream = self._draw_stream()
        for _ in islice(stream, cursor):
            pass
        while chunk := list(islice(stream, self.chunk_size)):
            cursor += len(chunk)
            yield chunk, cursor
