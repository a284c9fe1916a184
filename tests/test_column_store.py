"""The column store's two indexes, and which one an engine picks.

:class:`~repro.engine.cache.ColumnStore` finds a design id's arena slot
through a direct-address table on spaces of at most
:data:`~repro.engine.cache.TABLE_LIMIT` designs and through a ``dict``
otherwise.  Random operation sequences drive a table store, a ``dict``
store over the same ids, a ``dict`` store over ids beyond ``int64`` and an
``OrderedDict`` model side by side; every hit, row, eviction, length and
export must agree.  The engine picks the index once, at bind, from the size
of the problem's space, and reports it as ``EngineStats.memo_index``.
"""

from __future__ import annotations

import asyncio
import pickle
from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.exhaustive import ExhaustiveSearch
from repro.dse.problem import WbsnDseProblem
from repro.dse.runner import run_algorithm
from repro.engine import EvaluationEngine
from repro.engine.cache import TABLE_LIMIT, ColumnStore
from repro.experiments.casestudy import build_case_study_evaluator
from test_faults import beacon_problem
from test_service import connect, start_service

#: Ids of the model's space: few enough that operations keep colliding.
SPACE = 24
#: Offset of the keys of the store beyond ``int64`` ids.
HUGE = 2**70

_keys = st.lists(st.integers(0, SPACE - 1), unique=True, max_size=10)
_operations = st.lists(
    st.tuples(st.sampled_from(["lookup", "contains", "insert", "load"]), _keys),
    min_size=8,
    max_size=40,
)


def _row(key: int, version: int) -> tuple:
    """The row inserted for ``key`` by the ``version``-th insert: a key
    evicted and inserted again gets a different row."""
    return (float(key), float(version)), version % 2 == 0, version % 7


def _as_keys(keys: list, offset: int) -> np.ndarray:
    """Keys as the engine hands them over: ``int64`` ids, or exact Python
    ints in an object array beyond ``int64`` ids."""
    if offset:
        return np.array([key + offset for key in keys], dtype=object)
    return np.array(keys, dtype=np.int64)


def _rows(store: ColumnStore, slots: np.ndarray) -> list:
    """``(objectives, feasible, violations, from_disk)`` of arena slots."""
    objectives, feasible, violations = store.rows(slots)
    return list(
        zip(
            map(tuple, objectives.tolist()),
            feasible.tolist(),
            violations.tolist(),
            store.from_disk(slots).tolist(),
        )
    )


class TestStoresAgreeWithTheModel:
    @settings(max_examples=300, deadline=None)
    @given(bound=st.sampled_from([None, 1, 4, 16]), operations=_operations)
    def test_random_sequences(self, bound, operations):
        stores = {
            "table": (ColumnStore(bound, space_size=SPACE), 0),
            "dict": (ColumnStore(bound), 0),
            "huge": (ColumnStore(bound, space_size=HUGE + SPACE), HUGE),
        }
        assert [store.index_kind for store, _ in stores.values()] == [
            "table",
            "dict",
            "dict",
        ]
        # key -> (row, from_disk), least recently used first; and the live
        # keys in insertion order, which export follows.
        model: OrderedDict = OrderedDict()
        inserted: dict = {}
        versions = 0
        for operation, keys in operations:
            held = [key in model for key in keys]
            if operation == "lookup":
                expected = [model[key] for key in keys if key in model]
                if bound is not None:
                    for key in keys:
                        if key in model:
                            model.move_to_end(key)
                for store, offset in stores.values():
                    slots = store.lookup(_as_keys(keys, offset))
                    assert (slots >= 0).tolist() == held
                    got = _rows(store, slots[slots >= 0])
                    assert got == [(*row, disk) for row, disk in expected]
            elif operation == "contains":
                for store, offset in stores.values():
                    assert store.contains(_as_keys(keys, offset)).tolist() == held
            else:
                fresh = [key for key in keys if key not in model]
                from_disk = operation == "load"
                rows = [_row(key, versions + index) for index, key in enumerate(fresh)]
                versions += len(fresh)
                evictions = 0
                for key, row in zip(fresh, rows):
                    model[key] = (row, from_disk)
                    inserted[key] = None
                    if bound is not None and len(model) > bound:
                        victim, _ = model.popitem(last=False)
                        del inserted[victim]
                        evictions += 1
                objectives = np.array([row[0] for row in rows]).reshape(-1, 2)
                feasible = np.array([row[1] for row in rows], dtype=bool)
                violations = np.array([row[2] for row in rows], dtype=np.int64)
                for store, offset in stores.values():
                    assert (
                        store.insert(
                            _as_keys(fresh, offset),
                            objectives,
                            feasible,
                            violations,
                            from_disk=from_disk,
                        )
                        == evictions
                    )
            order = list(inserted)
            for store, offset in stores.values():
                assert len(store) == len(model)
                keys, objectives, feasible, violations = store.export()
                assert keys.tolist() == [key + offset for key in order]
                exported = zip(
                    map(tuple, objectives.tolist()),
                    feasible.tolist(),
                    violations.tolist(),
                )
                assert list(exported) == [model[key][0] for key in order]


class TestEngineIndexChoice:
    """The engine picks the table from the bound space's size, and says so."""

    def test_sweep_space_gets_the_table(self):
        engine = EvaluationEngine()
        problem = WbsnDseProblem(
            build_case_study_evaluator(),
            compression_ratios=(0.2, 0.3),
            frequencies_hz=(4e6, 8e6),
            engine=engine,
        )
        assert problem.space.size == 131_072 <= TABLE_LIMIT
        assert engine._column_store.index_kind == "table"
        assert engine.stats.memo_index == "table"

    def test_default_space_keeps_the_dict(self):
        engine = EvaluationEngine()
        problem = WbsnDseProblem(build_case_study_evaluator(), engine=engine)
        assert problem.space.size == 2**35
        assert engine._column_store.index_kind == "dict"
        assert engine.stats.memo_index == "dict"

    def test_space_beyond_int64_ids_keeps_the_dict(self):
        engine = EvaluationEngine()
        problem = WbsnDseProblem(build_case_study_evaluator(n_nodes=12), engine=engine)
        assert problem.space.size == 2**65
        assert engine.stats.memo_index == "dict"

    def test_uncached_engine_builds_no_table(self):
        engine = EvaluationEngine(genotype_cache=False)
        beacon_problem(engine)
        assert engine._column_store.index_kind == "dict"
        assert engine.stats.memo_index == "dict"

    def test_pickled_engine_carries_no_table(self):
        engine = EvaluationEngine()
        beacon_problem(engine)
        assert engine.stats.memo_index == "table"
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._column_store.index_kind == "dict"
        assert len(clone._column_store) == 0

    def test_label_reaches_run_results_and_the_service(self):
        result = run_algorithm(
            ExhaustiveSearch(beacon_problem(EvaluationEngine()), chunk_size=16)
        )
        assert result.engine_stats.memo_index == "table"

        async def scenario():
            service = await start_service()
            try:
                client = await connect(service, "alice")
                try:
                    return await client.stats()
                finally:
                    await client.close()
            finally:
                await service.stop()

        assert asyncio.run(scenario())["engine"]["memo_index"] == "table"
