"""Discrete parameter domains and design spaces.

A design space is an ordered list of named parameter domains, each holding the
discrete values a parameter can take.  Candidates are encoded as genotypes —
tuples of indices, one per domain — which is what the search algorithms
manipulate; the problem layer decodes genotypes into configuration objects.

A genotype also packs into one ``int64`` **design id**: its mixed-radix
number in row-major order (last domain fastest), so
:meth:`DesignSpace.enumerate_genotypes` yields ids ``0, 1, …, size - 1``.
:func:`encode_ids` / :func:`decode_ids` convert whole batches in single
vectorised steps; they need only the domain cardinalities, which is all a
remote client of the DSE service knows about the space.
:meth:`DesignSpace.design_keys` extends the same numbering, as exact Python
ints, to spaces too large for ``int64`` ids: it is the evaluation engine's
cache key.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, Sequence

import numpy as np

__all__ = ["ParameterDomain", "DesignSpace", "encode_ids", "decode_ids"]

#: Spaces of this many designs or more do not fit ``int64`` design ids.
_ID_LIMIT = 2**63


def _gene_matrix(genotypes: Any, cardinalities: np.ndarray) -> np.ndarray:
    """Validate a batch of genotypes into an ``(batch, genes)`` int64 matrix."""
    if isinstance(genotypes, np.ndarray):
        matrix = genotypes.astype(np.int64, copy=False)
    else:
        matrix = np.asarray(list(genotypes), dtype=np.int64)
    if matrix.size == 0:
        return matrix.reshape(0, len(cardinalities))
    if matrix.ndim != 2 or matrix.shape[1] != len(cardinalities):
        raise ValueError(f"genotypes must have {len(cardinalities)} genes each")
    if (matrix < 0).any() or (matrix >= cardinalities).any():
        raise ValueError("genotype gene out of range for its domain")
    return matrix


def _id_strides(cardinalities: Sequence[int]) -> tuple[np.ndarray, int]:
    """Place values of the mixed-radix design ids, and the space size.

    Raises :class:`ValueError` when the size does not fit ``int64`` — NumPy
    would otherwise wrap the ids silently.
    """
    strides: list[int] = []
    size = 1
    for cardinality in reversed([int(value) for value in cardinalities]):
        if cardinality < 1:
            raise ValueError("every domain needs at least one value")
        strides.append(size)
        size *= cardinality
    if size >= _ID_LIMIT:
        raise ValueError(
            f"a space of {size} designs does not fit int64 design ids"
        )
    return np.asarray(strides[::-1], dtype=np.int64), size


def encode_ids(genotypes: Any, cardinalities: Sequence[int]) -> np.ndarray:
    """Pack genotypes (a sequence of gene rows or an int matrix) into ids.

    Raises :class:`ValueError` on a row of the wrong width, a gene outside
    its domain, or a space too large for ``int64`` ids.
    """
    cardinalities = np.asarray(cardinalities, dtype=np.int64)
    strides, _ = _id_strides(cardinalities)
    return _gene_matrix(genotypes, cardinalities) @ strides


def decode_ids(ids: Any, cardinalities: Sequence[int]) -> np.ndarray:
    """Unpack a 1-D array of design ids into an ``(ids, genes)`` matrix.

    The matrix is column-major (a transposed gene-major array): each gene
    column is contiguous, computed by one scalar floor division and one
    scalar remainder over the ids.

    Raises :class:`ValueError` on non-integer or multi-dimensional input and
    on an id outside ``[0, size)``.
    """
    cardinalities = np.asarray(cardinalities, dtype=np.int64)
    strides, size = _id_strides(cardinalities)
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError("design ids must be a 1-D array")
    if ids.size == 0:
        return np.zeros((0, len(cardinalities)), dtype=np.int64)
    if ids.dtype.kind not in "iu":
        raise ValueError(f"design ids must be integers, got {ids.dtype}")
    if ids.min() < 0 or ids.max() >= size:
        raise ValueError(f"design id out of range [0, {size})")
    ids = ids.astype(np.int64, copy=False)
    genes = np.empty((len(cardinalities), len(ids)), dtype=np.int64)
    for column, stride, cardinality in zip(genes, strides, cardinalities):
        np.floor_divide(ids, stride, out=column)
        np.remainder(column, cardinality, out=column)
    return genes.T


@dataclass(frozen=True)
class ParameterDomain:
    """One tunable parameter and its admissible values.

    Attributes:
        name: parameter identifier (e.g. ``"node-2.compression_ratio"``).
        values: ordered tuple of admissible values.
    """

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("the parameter needs a non-empty name")
        if len(self.values) == 0:
            raise ValueError(f"domain '{self.name}' must contain at least one value")

    @property
    def cardinality(self) -> int:
        """Number of admissible values."""
        return len(self.values)

    def value_at(self, index: int) -> Any:
        """The value encoded by ``index``."""
        if not 0 <= index < len(self.values):
            raise IndexError(
                f"index {index} out of range for domain '{self.name}' "
                f"({len(self.values)} values)"
            )
        return self.values[index]

    @cached_property
    def float_values(self) -> np.ndarray | None:
        """Numeric lookup table of the domain, or ``None`` if non-numeric.

        Gene index columns fancy-indexed into this table are how the
        vectorized evaluation path decodes whole batches of genotypes into
        value columns without touching per-candidate Python objects.
        """
        try:
            return np.asarray([float(value) for value in self.values], dtype=float)
        except (TypeError, ValueError):
            return None


class DesignSpace:
    """An ordered collection of parameter domains."""

    def __init__(self, domains: Sequence[ParameterDomain]) -> None:
        if not domains:
            raise ValueError("the design space needs at least one domain")
        names = [domain.name for domain in domains]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        self.domains = tuple(domains)

    def __len__(self) -> int:
        return len(self.domains)

    @property
    def size(self) -> int:
        """Total number of distinct configurations in the space."""
        return math.prod(domain.cardinality for domain in self.domains)

    def validate_genotype(self, genotype: Sequence[int]) -> tuple[int, ...]:
        """Check a genotype against the domain cardinalities."""
        if len(genotype) != len(self.domains):
            raise ValueError(
                f"genotype must have {len(self.domains)} genes, got {len(genotype)}"
            )
        for gene, domain in zip(genotype, self.domains):
            if not 0 <= gene < domain.cardinality:
                raise ValueError(
                    f"gene {gene} out of range for domain '{domain.name}'"
                )
        return tuple(int(gene) for gene in genotype)

    @cached_property
    def cardinalities(self) -> np.ndarray:
        """Per-domain cardinalities as an integer vector."""
        return np.asarray([domain.cardinality for domain in self.domains], np.int64)

    def index_matrix(self, genotypes: Sequence[Sequence[int]]) -> np.ndarray:
        """Validate a batch of genotypes into an ``(batch, genes)`` matrix.

        The batched counterpart of :meth:`validate_genotype`: one row per
        genotype, every gene bounds-checked against its domain.  An integer
        ndarray input is taken as-is (no copy, bounds re-check only), so
        layers can hand validated matrices to each other for free.
        """
        return _gene_matrix(genotypes, self.cardinalities)

    def encode_ids(self, genotypes: Any) -> np.ndarray:
        """Pack genotypes into design ids (see :func:`encode_ids`)."""
        return encode_ids(genotypes, self.cardinalities)

    def decode_ids(self, ids: Any) -> np.ndarray:
        """Unpack design ids into a gene-index matrix (see :func:`decode_ids`)."""
        return decode_ids(ids, self.cardinalities)

    def design_keys(self, matrix: np.ndarray) -> np.ndarray:
        """Exact design ids of a validated gene-index matrix, as cache keys.

        The ``int64`` ids of :meth:`encode_ids` when the space fits them;
        otherwise the same mixed-radix numbers as an object array of Python
        ints (pass :meth:`index_matrix` output: this branch does not
        validate).  ``keys.tolist()`` is exact either way, so one ``dict``
        can index both kinds.
        """
        if self.size < _ID_LIMIT:
            return self.encode_ids(matrix)
        keys = np.zeros(len(matrix), dtype=object)
        for column, cardinality in zip(
            matrix.T.astype(object), self.cardinalities.tolist()
        ):
            keys = keys * cardinality + column
        return keys

    def key_genes(self, keys: Sequence[int]) -> np.ndarray:
        """Gene-index rows of design keys: the inverse of :meth:`design_keys`."""
        if self.size < _ID_LIMIT:
            return self.decode_ids(np.asarray(keys, dtype=np.int64))
        remaining = np.asarray(keys, dtype=object).reshape(-1)
        genes = np.empty((len(remaining), len(self.domains)), dtype=np.int64)
        for position in range(len(self.domains) - 1, -1, -1):
            cardinality = self.domains[position].cardinality
            genes[:, position] = remaining % cardinality
            remaining = remaining // cardinality
        return genes

    def decode(self, genotype: Sequence[int]) -> dict[str, Any]:
        """Map a genotype to a ``{parameter name: value}`` dictionary."""
        genotype = self.validate_genotype(genotype)
        return {
            domain.name: domain.value_at(gene)
            for gene, domain in zip(genotype, self.domains)
        }

    def random_genotype(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Draw a uniformly random genotype."""
        return tuple(
            int(rng.integers(0, domain.cardinality)) for domain in self.domains
        )

    def mutate_genotype(
        self,
        genotype: Sequence[int],
        rng: np.random.Generator,
        mutation_rate: float,
    ) -> tuple[int, ...]:
        """Random-reset mutation: each gene is redrawn with ``mutation_rate``.

        Validates ``genotype`` and the rate, then runs :meth:`random_reset`.
        Per gene of a domain with more than one value, in domain order, the
        draws are one ``rng.random()`` and, when it falls below the rate, one
        ``rng.integers(0, cardinality)``; one-value domains draw nothing.
        """
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        return self.random_reset(self.validate_genotype(genotype), rng, mutation_rate)

    @cached_property
    def _resettable_genes(self) -> tuple[tuple[int, int], ...]:
        """``(position, cardinality)`` of every domain with more than one value."""
        return tuple(
            (position, domain.cardinality)
            for position, domain in enumerate(self.domains)
            if domain.cardinality > 1
        )

    def random_reset(
        self, genotype: Sequence[int], rng: np.random.Generator, mutation_rate: float
    ) -> tuple[int, ...]:
        """:meth:`mutate_genotype` without validation, for genes already valid."""
        genes = list(genotype)
        random, integers = rng.random, rng.integers
        for position, cardinality in self._resettable_genes:
            if random() < mutation_rate:
                genes[position] = int(integers(0, cardinality))
        return tuple(genes)

    def enumerate_genotypes(self) -> Iterator[tuple[int, ...]]:
        """Yield every genotype of the space (use only for small spaces).

        Genotypes come out in row-major order (last domain varies fastest).
        """
        yield from itertools.product(
            *(range(domain.cardinality) for domain in self.domains)
        )
