"""Closed forms for the Figure 2 model: the oracle its estimator is held to.

:class:`repro.analysis.invalidation.InvalidationModel` estimates the
expected invalidations per write by Monte Carlo, as the paper did (§4.1).
Where the expectation has a closed form — the full bit vector,
``Dir_iB`` and ``Dir_iCV_r`` — it is computed here, and
``tests/test_exact_model.py`` checks that the estimator converges to it.
Only tests use these forms, so they live with the tests.
"""

from __future__ import annotations

import re


def exact_expected_invalidations(
    scheme_name: str, num_nodes: int, num_sharers: int
) -> float:
    """Closed-form expectation for the Figure 2 model, where derivable.

    With ``k`` sharers drawn uniformly from the ``M = N - 2`` candidates
    (writer and home excluded):

    * full bit vector: exactly ``k``;
    * ``Dir_iB``: ``k`` while ``k <= i``, else ``N - 2`` (broadcast);
    * ``Dir_iCV_r``: while ``k <= i`` exact; past overflow the count is
      ``sum over regions of |region \\ {writer, home}| * P(region hit)``,
      with ``P(region hit) = 1 - C(M - g, k)/C(M, k)`` for a region
      containing ``g`` candidate nodes (hypergeometric inclusion).

    The Monte-Carlo estimator converges to these values (property-tested),
    which pins down the simulation's random-sharer methodology.  Writer
    and home positions are averaged out by symmetry for the CV case by
    conditioning on them being in different/same regions — we compute the
    expectation *given* writer/home uniformly random, via linearity over
    (region, writer, home) configurations.
    """
    name = scheme_name.strip().lower().replace("_", "")
    M = num_nodes - 2
    if not 0 <= num_sharers <= M:
        raise ValueError(f"num_sharers must be in [0, {M}]")
    if name in ("full", f"dir{num_nodes}", "dirn"):
        return float(num_sharers)
    m = re.match(r"^dir(\d+)b$", name)
    if m:
        i = int(m.group(1))
        return float(num_sharers) if num_sharers <= i else float(M)
    m = re.match(r"^dir(\d+)cv(\d+)$", name)
    if m:
        i, r = int(m.group(1)), int(m.group(2))
        if num_sharers <= i:
            return float(num_sharers)
        return _expected_cv_invalidations(num_nodes, r, num_sharers)
    raise ValueError(
        f"no closed form for {scheme_name!r} (full, Dir_iB, Dir_iCV_r only)"
    )


def _expected_cv_invalidations(num_nodes: int, region_size: int, k: int) -> float:
    """E[covered nodes minus writer/home] for a coarse vector, overflowed.

    Averages over the (writer, home) pair by linearity: for each ordered
    (writer, home) with writer != home, and each region, the region
    contributes ``(region nodes not writer/home) * P(>=1 of the k sharers
    falls in the region's candidate nodes)``.
    """
    regions = [
        range(start, min(start + region_size, num_nodes))
        for start in range(0, num_nodes, region_size)
    ]
    M = num_nodes - 2
    total = 0.0
    pairs = 0
    for writer in range(num_nodes):
        for home in range(num_nodes):
            if home == writer:
                continue
            pairs += 1
            for region in regions:
                g = sum(1 for n in region if n != writer and n != home)
                if g == 0:
                    continue
                p_hit = 1.0 - _hypergeom_zero(M, g, k)
                payoff = sum(1 for n in region if n != writer and n != home)
                total += payoff * p_hit
    return total / pairs


def _hypergeom_zero(M: int, g: int, k: int) -> float:
    """P(none of k draws from M candidates lands among g marked ones)."""
    if k > M - g:
        return 0.0
    # C(M-g, k) / C(M, k) computed stably as a product
    p = 1.0
    for j in range(k):
        p *= (M - g - j) / (M - j)
    return p
