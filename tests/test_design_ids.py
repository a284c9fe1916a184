"""Design ids end to end: sweeps carry ids, and genes are decoded on demand.

An exhaustive sweep hands the engine checked id ranges
(:class:`~repro.dse.space.DesignIds`).  The engine looks them up as they
are and decodes gene rows only for its cache misses; a
:class:`~repro.engine.ColumnarBatchResult` carries ids and decodes
``genotypes`` on first access.  These tests pin where gene rows are built
and that every result's ids name its rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse import space as space_module
from repro.dse.exhaustive import ExhaustiveSearch
from repro.dse.problem import WbsnDseProblem
from repro.dse.space import DesignSpace, ParameterDomain
from repro.engine import EvaluationEngine
from repro.experiments.casestudy import build_case_study_evaluator


def small_problem(engine: EvaluationEngine, **kwargs) -> WbsnDseProblem:
    """A two-node beacon problem of 64 designs."""
    return WbsnDseProblem(
        build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        compression_ratios=(0.2, 0.3),
        frequencies_hz=(4e6, 8e6),
        payload_bytes=(60, 80),
        order_pairs=((4, 4), (4, 6)),
        engine=engine,
        **kwargs,
    )


def signature(front):
    return [(d.genotype, d.objectives, d.feasible) for d in front]


def count_gene_rows(space: DesignSpace) -> dict:
    """Count the gene rows ``space`` builds through ``decode_ids``,
    ``key_genes`` and ``index_matrix`` (a nested call counts once)."""
    counts = {"rows": 0, "depth": 0}
    for name in ("decode_ids", "key_genes", "index_matrix"):

        def counted(*args, _original=getattr(space, name), **kwargs):
            counts["depth"] += 1
            try:
                result = _original(*args, **kwargs)
            finally:
                counts["depth"] -= 1
            if counts["depth"] == 0:
                counts["rows"] += len(result)
            return result

        setattr(space, name, counted)
    return counts


def assert_ids_name_rows(result, space: DesignSpace) -> None:
    keys = space.design_keys(space.index_matrix(result.genotypes))
    assert result.ids.tolist() == keys.tolist()


class TestGeneRowsBuilt:
    def test_warm_sweep_decodes_only_its_front(self, tmp_path):
        with EvaluationEngine(cache_dir=tmp_path) as engine:
            cold = ExhaustiveSearch(small_problem(engine), chunk_size=16).run()
        engine = EvaluationEngine(cache_dir=tmp_path)
        problem = small_problem(engine)
        rows = count_gene_rows(problem.space)
        before = engine.stats.snapshot()
        front = ExhaustiveSearch(problem, chunk_size=16).run()
        delta = engine.stats.snapshot() - before
        assert signature(front) == signature(cold)
        assert delta.genotype_requests == problem.space.size
        assert delta.model_evaluations == 0
        assert rows["rows"] == len(front)

    def test_cold_sweep_validates_each_gene_row_once(self, monkeypatch):
        """Each design is validated once, as an id where the sweep's id
        range enters; the kernel takes the misses' ids, so no gene row is
        validated or built for them, and only the front is decoded."""
        problem = small_problem(EvaluationEngine())
        before = problem.engine.stats.snapshot()
        validated = {"_gene_matrix": [], "_checked_ids": []}
        for name, rows in validated.items():

            def counted(values, bound, _check=getattr(space_module, name), _rows=rows):
                _rows.append(_check(values, bound))
                return _rows[-1]

            monkeypatch.setattr(space_module, name, counted)
        gene_rows = count_gene_rows(problem.space)
        front = ExhaustiveSearch(problem, chunk_size=16).run()
        delta = problem.engine.stats.snapshot() - before
        ids = np.concatenate(validated["_checked_ids"])
        assert ids.tolist() == list(range(problem.space.size))
        assert validated["_gene_matrix"] == [] and gene_rows["rows"] == len(front)
        assert delta.model_evaluations == problem.space.size - 1  # all but the probe
        assert delta.gene_rows_decoded == len(front)

    def test_all_cached_id_batch_builds_no_gene_row(self):
        problem = small_problem(EvaluationEngine())
        ids = problem.space.ids(np.arange(problem.space.size))
        first = problem.evaluate_batch_columns(ids)
        rows = count_gene_rows(problem.space)
        again = problem.evaluate_batch_columns(ids)
        assert rows["rows"] == 0
        assert again.cached.all()
        assert again.objectives.tobytes() == first.objectives.tobytes()


class TestResultIds:
    """``result.ids`` are the design keys of ``result.genotypes``."""

    @staticmethod
    def requests(space: DesignSpace) -> list[tuple[int, ...]]:
        genotypes = list(space.enumerate_genotypes())[::5]
        return genotypes + genotypes[:3]  # duplicates, in request order

    @pytest.mark.parametrize("genotype_cache", [True, False])
    def test_serial_kernel_gene_rows_and_id_batches(self, genotype_cache):
        problem = small_problem(EvaluationEngine(genotype_cache=genotype_cache))
        space = problem.space
        requested = self.requests(space)
        by_genes = problem.evaluate_batch_columns(requested)
        assert_ids_name_rows(by_genes, space)
        assert by_genes.genotypes.tolist() == [list(g) for g in requested]
        by_ids = problem.evaluate_batch_columns(space.ids(by_genes.ids))
        assert_ids_name_rows(by_ids, space)
        assert by_ids.ids.tolist() == by_genes.ids.tolist()
        assert by_ids.objectives.tobytes() == by_genes.objectives.tobytes()
        reordered = by_ids.concatenate(
            [by_ids.take(np.arange(3, len(by_ids))), by_ids.take([0, 1, 2])]
        )
        ids = by_ids.ids.tolist()
        assert reordered.ids.tolist() == ids[3:] + ids[:3]
        assert_ids_name_rows(reordered, space)

    @pytest.mark.parametrize("genotype_cache", [True, False])
    def test_scalar_loop_gene_rows_and_id_batches(self, genotype_cache):
        """Without a kernel, id misses are decoded into gene rows for the
        scalar loop, and the result's ids still name its rows."""
        problem = small_problem(
            EvaluationEngine(genotype_cache=genotype_cache), vectorized=False
        )
        space = problem.space
        requested = self.requests(space)
        by_genes = problem.evaluate_batch_columns(requested)
        assert_ids_name_rows(by_genes, space)
        assert by_genes.genotypes.tolist() == [list(g) for g in requested]
        before = problem.engine.stats.snapshot()
        by_ids = problem.evaluate_batch_columns(space.ids(by_genes.ids))
        delta = problem.engine.stats.snapshot() - before
        if genotype_cache:
            # Every id was memoised by the gene-row batch: nothing decoded.
            assert delta.model_evaluations == 0
            assert delta.gene_rows_decoded == 0
        else:
            assert delta.model_evaluations == len(requested)
            assert delta.gene_rows_decoded == len(requested)
        assert_ids_name_rows(by_ids, space)
        assert by_ids.ids.tolist() == by_genes.ids.tolist()
        assert by_ids.objectives.tobytes() == by_genes.objectives.tobytes()
        assert problem.engine.stats.vectorized_designs == 0

    def test_space_beyond_int64_ids(self):
        problem = WbsnDseProblem(
            build_case_study_evaluator(n_nodes=12), engine=EvaluationEngine()
        )
        space = problem.space
        top = [card - 1 for card in space.cardinalities.tolist()]
        genotypes = [tuple(top), (0,) * len(top), tuple(top[:-1] + [0])]
        result = problem.evaluate_batch_columns(genotypes + genotypes[::-1])
        assert result.ids.dtype == object
        assert result.ids[0] == space.size - 1
        assert_ids_name_rows(result, space)
        designs = result.materialise()
        assert [d.genotype for d in designs] == genotypes + genotypes[::-1]


class TestIdBatch:
    @pytest.mark.parametrize(
        "values",
        [
            np.zeros((2, 2), dtype=np.int64),
            np.array([0.0, 1.0]),
            np.array([-1, 0]),
            np.array([0, 64]),
        ],
        ids=["2-D", "float", "negative", "out-of-range"],
    )
    def test_bad_ids_are_rejected_before_the_engine(self, values):
        problem = small_problem(EvaluationEngine())
        before = problem.engine.stats.as_dict()
        with pytest.raises(ValueError):
            problem.evaluate_batch_columns(problem.space.ids(values))
        assert problem.engine.stats.as_dict() == before

    def test_ids_of_another_space_are_rejected(self):
        problem = small_problem(EvaluationEngine())
        other = DesignSpace([ParameterDomain("x", (0, 1, 2))])
        before = problem.engine.stats.as_dict()
        with pytest.raises(ValueError, match="another space"):
            problem.evaluate_batch_columns(other.ids([0, 1]))
        assert problem.engine.stats.as_dict() == before

    def test_checked_ids_match_decode_ids(self):
        space = small_problem(EvaluationEngine()).space
        batch = space.ids(np.array([5, 0, 63], dtype=np.uint64))
        assert batch.values.dtype == np.int64 and len(batch) == 3
        assert space.key_genes(batch.values).tolist() == space.decode_ids(
            [5, 0, 63]
        ).tolist()

    def test_space_beyond_int64_ids_has_no_id_batch(self):
        problem = WbsnDseProblem(
            build_case_study_evaluator(n_nodes=12), engine=EvaluationEngine()
        )
        with pytest.raises(ValueError, match="int64"):
            problem.space.ids([])
