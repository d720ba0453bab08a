"""Shape of E8 — concurrent dispatch and the subanswer cache.

Asserts the extension's headline claims on the three-branch federation:
concurrent waves lower simulated ``TotalTime`` without changing a single
answer row; a single concurrency slot degrades gracefully back to the
paper's sequential clock; a repeated query is served from the subanswer
cache with the hit/miss counters visible to clients.
"""

import pytest

from repro.bench.parallel import run_parallel_experiment


@pytest.fixture(scope="module")
def experiment():
    return run_parallel_experiment()


class TestConcurrentDispatch:
    def test_every_query_gets_faster(self, experiment):
        for label, sequential_ms, concurrent_ms, saved_ms, _match in (
            experiment.dispatch_rows
        ):
            assert concurrent_ms < sequential_ms, label
            assert saved_ms > 0, label

    def test_answers_are_row_identical(self, experiment):
        assert all(match for *_rest, match in experiment.dispatch_rows)

    def test_single_slot_matches_sequential(self, experiment):
        for label, sequential_ms, capped_ms in experiment.cap_rows:
            assert capped_ms == pytest.approx(sequential_ms), label


class TestSubanswerCache:
    def test_second_run_is_served_from_cache(self, experiment):
        assert experiment.second_run.cache_hits == 3
        assert experiment.second_run.cache_misses == 0
        assert experiment.first_run.cache_misses == 3

    def test_cache_cuts_elapsed_time(self, experiment):
        # Only mediator-side composition CPU remains on a full hit.
        assert experiment.second_run.elapsed_ms * 10 < experiment.first_run.elapsed_ms

    def test_cached_answer_identical(self, experiment):
        assert experiment.second_run.rows == experiment.first_run.rows

    def test_counters_visible_in_explain(self, experiment):
        assert (
            "subanswer cache (lifetime): 3 hits / 3 misses"
            in experiment.explain_text
        )
