"""Page kernels: one fused pass per scanned page, a bisection per PST node.

The filtered arithmetic (DESIGN.md §9) made every *single* comparison
cheap; what remains on the hot path is the Python interpreter driving
one predicate call per stored segment per page.  This module removes
that loop for the page scans: ``vs_intersects`` over a leaf page runs
as one fused pass per (page, query) pair.

Two kernel tiers share the one scan dispatcher, :func:`page_query_hits`,
selected by row count:

* **scalar tier** (``n < MIN_ROWS``): the original per-row predicate
  calls — on a handful of rows the fused loop's setup costs more than
  it saves.
* **fused tier** (``n >= MIN_ROWS``): a single-pass Python loop with
  every predicate inlined — no per-row function calls, no attribute
  chasing, short-circuits preserved.  Setup (query balls, locals) is
  paid once per page instead of once per row.

A PST node is not scanned at all: :func:`page_classify_summary`
bisects its base order, one scalar compare per probe, the same in both
tiers.  G-tree key compares (:func:`gkey_sign_table`) are one scalar
compare per consulted row: a G-tree scan consults about half of a
leaf's rows and breaks early, so building a sign table for the whole
leaf cost more than it saved (DESIGN.md §15).

Exactness contract.  The float expressions of the fused scan are
*verbatim replicas* of the scalar filtered kernels in
:mod:`repro.geometry.filtered` — same operations, same order, same
``_EPS``/``_SLOP``/``_TINY`` error accounting — so the certified/
uncertified partition of rows is bit-identical to the scalar code, and
a certified sign is the exact sign by the same forward-error argument
(DESIGN.md §9).  Rows the kernel cannot certify (or whose cached float
coefficients are missing) are resolved by calling the *scalar*
predicate for that row, which performs its own exact fallback and its
own telemetry.  Filter telemetry is therefore preserved exactly:
certified rows are counted as fast hits only where the scalar code
would have consulted them, and fallback rows count themselves.

Control-flow contract.  Kernels never touch the pager or the device —
they read already-fetched page payloads — so the page fetch sequence,
and with it every simulated I/O count, is identical whether the
kernels are enabled or disabled (:func:`set_vectorized`).  Exact-only
mode (``REPRO_EXACT_ONLY``) disables the fused scans and the PST
bisection: it is the reference configuration, exact arithmetic on
every row.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from . import filtered
from .filtered import _EPS, _SLOP, _TINY, STATS, compare_interp, compare_u_at
from .query import vs_intersects

#: Below this many rows even the fused loop's per-page setup exceeds the
#: scalar per-row calls it replaces; such pages stay scalar.
MIN_ROWS = 4

_vectorized = True


def set_vectorized(flag: bool) -> None:
    """Enable/disable the fused page scans (the E20 A/B switch).

    Results, I/O counts and filter telemetry are identical either way;
    only wall-clock changes.  PST nodes are bisected either way.
    """
    global _vectorized
    _vectorized = bool(flag)


def vectorized_enabled() -> bool:
    """True when the fused page scans will run (off in exact-only mode)."""
    return _vectorized and not filtered.exact_only_enabled()


# ----------------------------------------------------------------------
# vs_intersects over a page of plane segments
# ----------------------------------------------------------------------
def intersect_hits_py(items: Sequence, query) -> Optional[list]:
    """Fused-tier ``[s for s in items if vs_intersects(s, query)]``.

    One pass, every predicate inlined: the exact span/vertical tests and
    a verbatim replica of ``filtered.compare_y_at``'s float expressions
    (same operations, same order), with the scalar short-circuits
    preserved row by row.  Certified compares are tallied as fast hits
    exactly where the scalar code would have counted them; uncertified
    rows fall through to the scalar ``compare_y_at``, which performs its
    own exact fallback and telemetry.  Returns ``None`` when the query
    has no usable float bounds (callers then run the scalar loop).
    """
    xb, lob, hib = query.balls()
    if xb is None:
        return None
    ylo, yhi = query.ylo, query.yhi
    if ylo is not None and lob is None:
        return None
    if yhi is not None and hib is None:
        return None
    x0 = query.x
    fx, ex = xb
    fbl = ebl = fbh = ebh = 0.0
    if ylo is not None:
        fbl, ebl = lob
    if yhi is not None:
        fbh, ebh = hib
    compare = filtered.compare_y_at
    eps, slop, tiny = _EPS, _SLOP, _TINY
    abs_ = abs  # local binding: the loop calls it ~20x per row
    hits: list = []
    ap = hits.append
    fast = 0
    for s in items:
        st = s.start
        en = s.end
        if not (st.x <= x0 <= en.x):  # spans_x, exact
            continue
        if st.x == en.x:
            # Vertical: exact y-interval overlap (normalisation makes
            # ymin = start.y, ymax = end.y for a vertical segment).
            if yhi is not None and st.y > yhi:
                continue
            if ylo is not None and en.y < ylo:
                continue
            ap(s)
            continue
        if ylo is None and yhi is None:
            ap(s)
            continue
        fp = s._fp
        if fp is None:
            if ylo is not None and compare(s, x0, ylo, xb, lob) < 0:
                continue
            if yhi is not None and compare(s, x0, yhi, xb, hib) > 0:
                continue
            ap(s)
            continue
        fsx, esx, fsy, esy, dx, edx, dy, edy = fp
        # compare_y_at's second product is bound-independent; computing
        # it once per row is bit-identical (the terms are independent).
        d2 = fx - fsx
        e2 = ex + esx + abs_(d2) * eps
        t2 = dy * d2
        et2 = abs_(dy) * e2 + abs_(d2) * edy + e2 * edy + abs_(t2) * eps
        if ylo is not None:
            d1 = fsy - fbl
            e1 = esy + ebl + abs_(d1) * eps
            t1 = d1 * dx
            et1 = abs_(d1) * edx + abs_(dx) * e1 + e1 * edx + abs_(t1) * eps
            v = t1 + t2
            err = (et1 + et2 + abs_(v) * eps) * slop + tiny
            if -v > err:          # y_at(x) < ylo -> miss
                fast += 1
                continue
            if v > err:
                fast += 1
            elif compare(s, x0, ylo, xb, lob) < 0:
                continue
        if yhi is not None:
            d1 = fsy - fbh
            e1 = esy + ebh + abs_(d1) * eps
            t1 = d1 * dx
            et1 = abs_(d1) * edx + abs_(dx) * e1 + e1 * edx + abs_(t1) * eps
            v = t1 + t2
            err = (et1 + et2 + abs_(v) * eps) * slop + tiny
            if v > err:           # y_at(x) > yhi -> miss
                fast += 1
                continue
            if -v > err:
                fast += 1
            elif compare(s, x0, yhi, xb, hib) > 0:
                continue
        ap(s)
    STATS.fast_hits += fast
    return hits


def page_query_hits(rows: Sequence, query) -> list:
    """``[s for s in rows if vs_intersects(s, query)]``, kernelized.

    The one dispatcher of every scan: the fused loop from
    :data:`MIN_ROWS` rows up, the original scalar comprehension
    otherwise.  ``rows`` is a page's items, or the rows a caller kept
    after its own prefilter (the grid's label dedup, the R-tree's bbox
    check, the stab-filter's stabbed candidates), so the geometry test
    runs on exactly the rows the scalar loop would have compared.
    """
    if vectorized_enabled() and len(rows) >= MIN_ROWS:
        hits = intersect_hits_py(rows, query)
        if hits is not None:
            return hits
    return [s for s in rows if vs_intersects(s, query)]


# ----------------------------------------------------------------------
# PST node summary: bisect the base order
# ----------------------------------------------------------------------
def page_classify_summary(node, query) -> Optional[Tuple[list,
                                                       Optional[int],
                                                       Optional[int]]]:
    """``(hit_rows, last_left_row, first_right_row)`` for one PST node.

    ``node`` is a PST node view
    (:class:`repro.core.linebased.node.NodeView`) with its ``items`` in
    base order; one pass over their apex heights picks the rows that
    reach ``query.h``.  On the engines' query paths at least one row
    does: a child is entered only when its routing copy reaches ``h``,
    and a root only when the PST's tallest height does.  Non-crossing
    segments keep their base order at every height, so those rows run
    LEFT, then HIT, then RIGHT.  Two binary searches over them find the
    first row not LEFT of ``ulo`` and the first row RIGHT of ``uhi``,
    one filtered ``compare_u_at`` per probe: at most
    ``2*ceil(log2(k + 1))`` compares when ``k`` rows
    reach ``h``, against up to two per reaching row for a per-row pass.
    The rows in between are the HITs; their two neighbours are the
    tightest witnesses, which carry the same final bounds as absorbing
    every non-hit row.  The result does not depend on
    :func:`set_vectorized`.

    ``None`` in exact-only mode: the caller then runs the per-row
    ``classify`` loop, the reference this search must agree with.
    """
    if filtered.exact_only_enabled():
        return None
    h = query.h
    items = node.items
    reach = [i for i, s in enumerate(items) if s.h1 >= h]
    k = len(reach)
    hb, lob, hib = query.balls()
    ulo, uhi = query.ulo, query.uhi
    lo = 0
    if ulo is not None:
        hi = k
        while lo < hi:
            mid = (lo + hi) >> 1
            if compare_u_at(items[reach[mid]], h, ulo, hb, lob) < 0:
                lo = mid + 1
            else:
                hi = mid
    end = k
    if uhi is not None:
        first = lo
        while first < end:
            mid = (first + end) >> 1
            if compare_u_at(items[reach[mid]], h, uhi, hb, hib) > 0:
                end = mid
            else:
                first = mid + 1
    return (reach[lo:end], reach[lo - 1] if lo else None,
            reach[end] if end < k else None)


# ----------------------------------------------------------------------
# G-tree key comparisons
# ----------------------------------------------------------------------
def gkey_sign_table(key: Tuple, x, bound, xb=None, bb=None) -> int:
    """Sign of a G-tree key's fragment ordinate at ``x`` minus ``bound``.

    ``key`` is a multislab key ``(y_mid, y_left, x_left, y_right,
    x_right)``; the fragment is clamped to its span, and no Fraction is
    built.  The interpolating case runs through the filtered kernel
    (which counts its own telemetry); the clamped cases are plain
    endpoint comparisons.  ``xb``/``bb`` are the cached balls of ``x``
    and ``bound`` (see :func:`repro.geometry.filtered.ball`).  Every
    G-tree leaf row and routing key is compared through this function;
    it keeps its table-era name because ``perfbench/tracing.py`` wraps
    it by name.
    """
    _y_mid, y_left, x_left, y_right, x_right = key
    if x <= x_left:
        y = y_left
    elif x >= x_right:
        y = y_right
    else:
        return compare_interp(y_left, x_left, y_right, x_right, x, bound, xb, bb)
    if y > bound:
        return 1
    if y < bound:
        return -1
    return 0
