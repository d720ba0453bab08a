"""Shape of E5 — §4.3.1 historical costs.

Asserts:

* after one execution, the estimate of an identical subquery is exact
  (query-scope rules carry "real costs, not estimates");
* pure query-scope recording barely helps subqueries whose constants
  differ (the limitation the paper points out);
* parameter adjustment generalizes: adjusted coefficients cut the error
  on unseen constants well below the base model's.
"""

import pytest

from repro.bench.history_bench import run_convergence, run_generalization


@pytest.fixture(scope="module")
def generalization():
    return run_generalization()


class TestHistory:
    def test_identical_subquery_converges(self):
        rows = run_convergence(repetitions=3)
        first_error = rows[0][1]
        later_errors = [error for _execution, error in rows[1:]]
        assert first_error > 0.05
        assert all(error < 1e-6 for error in later_errors)

    def test_query_scope_barely_generalizes(self, generalization):
        base, recorded, _adjusted = generalization
        # Most of the base error remains on unseen constants.
        assert recorded > 0.5 * base

    def test_adjustment_generalizes(self, generalization):
        base, _recorded, adjusted = generalization
        assert adjusted < 0.6 * base
