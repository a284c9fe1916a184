"""Tests of the design-space encoding."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.space import DesignSpace, ParameterDomain, decode_ids


def _space() -> DesignSpace:
    return DesignSpace(
        [
            ParameterDomain("cr", (0.2, 0.3, 0.4)),
            ParameterDomain("freq", (1e6, 8e6)),
            ParameterDomain("payload", (40, 80, 100, 114)),
        ]
    )


class TestParameterDomain:
    def test_value_lookup(self):
        domain = ParameterDomain("cr", (0.2, 0.3))
        assert domain.cardinality == 2
        assert domain.value_at(1) == 0.3

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexError):
            ParameterDomain("cr", (0.2,)).value_at(1)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            ParameterDomain("cr", ())


class TestDesignSpace:
    def test_size_is_the_product_of_cardinalities(self):
        assert _space().size == 3 * 2 * 4

    def test_decode(self):
        decoded = _space().decode((2, 1, 0))
        assert decoded == {"cr": 0.4, "freq": 8e6, "payload": 40}

    def test_invalid_genotypes_rejected(self):
        space = _space()
        with pytest.raises(ValueError):
            space.validate_genotype((0, 0))
        with pytest.raises(ValueError):
            space.validate_genotype((0, 5, 0))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace([ParameterDomain("a", (1,)), ParameterDomain("a", (2,))])

    def test_enumeration_covers_the_whole_space(self):
        space = _space()
        genotypes = list(space.enumerate_genotypes())
        assert len(genotypes) == space.size
        assert len(set(genotypes)) == space.size

    def test_random_genotype_is_valid(self):
        space = _space()
        rng = np.random.default_rng(0)
        for _ in range(50):
            genotype = space.random_genotype(rng)
            space.validate_genotype(genotype)

    def test_mutation_respects_domains(self):
        space = _space()
        rng = np.random.default_rng(0)
        genotype = (0, 0, 0)
        for _ in range(50):
            genotype = space.mutate_genotype(genotype, rng, mutation_rate=0.5)
            space.validate_genotype(genotype)

    def test_zero_mutation_rate_is_identity(self):
        space = _space()
        rng = np.random.default_rng(0)
        assert space.mutate_genotype((1, 1, 2), rng, 0.0) == (1, 1, 2)

    @settings(max_examples=30, deadline=None)
    @given(
        cardinalities=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_random_genotypes_always_decode(self, cardinalities, seed):
        domains = [
            ParameterDomain(f"p{i}", tuple(range(size)))
            for i, size in enumerate(cardinalities)
        ]
        space = DesignSpace(domains)
        rng = np.random.default_rng(seed)
        genotype = space.random_genotype(rng)
        decoded = space.decode(genotype)
        assert len(decoded) == len(cardinalities)


def _space_of(cardinalities) -> DesignSpace:
    return DesignSpace(
        [
            ParameterDomain(f"p{i}", tuple(range(size)))
            for i, size in enumerate(cardinalities)
        ]
    )


class TestDesignIds:
    @settings(max_examples=60, deadline=None)
    @given(
        cardinalities=st.lists(
            st.integers(min_value=1, max_value=2**20), min_size=1, max_size=3
        ),
        rows=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_decode_inverts_encode(self, cardinalities, rows, seed):
        space = _space_of(cardinalities)
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, cardinalities, size=(rows, len(cardinalities)))
        ids = space.encode_ids(matrix)
        assert ids.dtype == np.int64 and ids.shape == (rows,)
        assert ((ids >= 0) & (ids < space.size)).all()
        np.testing.assert_array_equal(space.decode_ids(ids), matrix)
        # Sequences of gene rows pack exactly like the matrix.
        np.testing.assert_array_equal(space.encode_ids(matrix.tolist()), ids)

    @settings(max_examples=80, deadline=None)
    @given(
        cardinalities=st.lists(
            st.integers(min_value=1, max_value=2**20), min_size=1, max_size=3
        ),
        near_limit=st.booleans(),
        rows=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_decode_matches_the_reference_formula(
        self, cardinalities, near_limit, rows, seed
    ):
        if near_limit:
            # Stretch the leading domain: the space sits just below 2**63.
            cardinalities[0] = (2**63 - 1) // math.prod(cardinalities[1:])
        size = math.prod(cardinalities)
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, size, size=rows, dtype=np.int64)
        ids[0] = size - 1
        strides = np.asarray(
            [math.prod(cardinalities[i + 1 :]) for i in range(len(cardinalities))],
            dtype=np.int64,
        )
        expected = (ids[:, None] // strides) % np.asarray(cardinalities)
        got = decode_ids(ids, cardinalities)
        assert got.dtype == np.int64 and got.shape == (rows, len(cardinalities))
        np.testing.assert_array_equal(got, expected)
        # Unsigned ids decode the same.
        unsigned = decode_ids(ids.astype(np.uint64), cardinalities)
        np.testing.assert_array_equal(unsigned, expected)

    @pytest.mark.parametrize(
        "cardinalities", [(3, 2, 4), (1, 5, 1, 2), (7,), (2, 2, 2, 2, 2, 2)]
    )
    def test_enumeration_order_is_ascending_ids(self, cardinalities):
        space = _space_of(cardinalities)
        ids = space.encode_ids(list(space.enumerate_genotypes()))
        np.testing.assert_array_equal(ids, np.arange(space.size))

    def test_out_of_range_and_malformed_input_is_rejected(self):
        space = _space()
        bad_genotypes = ([[3, 0, 0]], [[0, -1, 0]], [[0, 0]], [[0, 0, 0, 0]], [0, 1, 2])
        for genotypes in bad_genotypes:
            with pytest.raises(ValueError):
                space.encode_ids(genotypes)
        bad_ids = ([-1], [space.size], [0, 2**62], [[0, 1]], [1.5], [True])
        for ids in bad_ids:
            with pytest.raises(ValueError):
                space.decode_ids(np.asarray(ids))
        assert space.encode_ids([]).shape == (0,)
        assert space.decode_ids([]).shape == (0, 3)

    def test_a_space_too_large_for_int64_ids_raises(self):
        # 2**63 designs: NumPy int64 arithmetic would silently wrap.
        huge = _space_of([2] * 63)
        with pytest.raises(ValueError, match="int64"):
            huge.encode_ids([[1] * 63])
        with pytest.raises(ValueError, match="int64"):
            huge.decode_ids([0])
        # One domain fewer fits, up to the very last id.
        largest = _space_of([2] * 62)
        assert largest.encode_ids([[1] * 62])[0] == 2**62 - 1
