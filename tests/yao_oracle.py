"""Yao's page-access formula (§5, [Yao77]) as plain Python: test oracles.

The object store's wrapper exports the paper's exponential approximation
as a CDL cost rule (Figure 13); tests check the mediator's evaluation of
that rule, the storage engine's measured page fetches and the Figure 12
calibration gap against these closed forms.
"""

import math


def yao_exact(count_object: int, count_page: int, selected: int) -> float:
    """Exact expected number of pages touched [Yao77].

    Selecting ``selected`` of ``count_object`` records uniformly at random
    without replacement, with records packed ``count_object / count_page``
    per page, the expected number of distinct pages fetched is::

        m * (1 - C(n - n/m, k) / C(n, k))

    computed here in a numerically stable product form.
    """
    if count_page <= 0 or count_object <= 0:
        return 0.0
    selected = max(0, min(selected, count_object))
    if selected == 0:
        return 0.0
    per_page = count_object / count_page
    # probability that a fixed page is *missed* by all k picks
    miss = 1.0
    for pick in range(selected):
        numerator = count_object - per_page - pick
        denominator = count_object - pick
        if numerator <= 0:
            miss = 0.0
            break
        miss *= numerator / denominator
    # With fewer objects than pages (n/m < 1) the model's expectation can
    # exceed the pick count; clamp to the trivial bounds.
    return min(count_page * (1.0 - miss), float(selected))


def yao_fraction(selectivity: float, count_object: int, count_page: int) -> float:
    """The paper's exponential approximation of Yao's formula.

    ``Yao(sel) = 1 - exp(-sel * CountObject / CountPage)`` — the fraction
    of pages fetched by an index scan of the given selectivity (§5).
    """
    if count_page <= 0:
        return 0.0
    selectivity = max(0.0, min(1.0, selectivity))
    return 1.0 - math.exp(-selectivity * count_object / count_page)


def yao_pages(selectivity: float, count_object: int, count_page: int) -> float:
    """Expected page count via the exponential approximation."""
    return count_page * yao_fraction(selectivity, count_object, count_page)


def index_scan_cost_yao(
    selectivity: float,
    count_object: int,
    count_page: int,
    io_ms: float = 25.0,
    output_ms: float = 9.0,
) -> float:
    """The corrected index-scan cost formula of §5 (and Figure 13)::

        cost = IO * CountPage * Yao(sel) + sel * CountObject * Output

    Defaults use the paper's constants, expressed in milliseconds
    (IO = 0.025 s, Output = 0.009 s).
    """
    selected = selectivity * count_object
    return (
        io_ms * yao_pages(selectivity, count_object, count_page)
        + selected * output_ms
    )


def index_scan_cost_linear(
    selectivity: float,
    count_object: int,
    ms_per_selected_object: float,
) -> float:
    """The *calibrated* linear estimate Figure 12 shows overshooting.

    The calibration approach of [DKS92]/[GST96] fits a single per-result
    coefficient on probe queries and assumes response time proportional to
    the number of selected objects ("the number of pages fetched is
    proportional to the selectivity", §5).  Because the true page-access
    curve saturates (Yao), a coefficient fitted on low-selectivity probes
    overshoots at high selectivity — the gap Figure 12 displays.  The
    coefficient itself comes from :mod:`repro.mediator.probe_fit`.
    """
    selectivity = max(0.0, min(1.0, selectivity))
    return ms_per_selected_object * selectivity * count_object
