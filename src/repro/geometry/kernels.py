"""Fused page kernels: one Python pass per page instead of a call per row.

The filtered arithmetic (DESIGN.md §9) made every *single* comparison
cheap; what remains on the hot path is the Python interpreter driving
one predicate call per stored segment per page.  This module removes
that loop: the per-page predicates — ``vs_intersects`` over a leaf
page, ``classify`` over a PST node — run as one fused pass per
(page, query) pair.

Two kernel tiers share each dispatch point, selected by row count:

* **scalar tier** (``n < MIN_ROWS``): the original per-row predicate
  calls — on a handful of rows the fused loop's setup costs more than
  it saves.
* **fused tier** (``n >= MIN_ROWS``): a single-pass Python loop with
  every predicate inlined — no per-row function calls, no attribute
  chasing, short-circuits preserved.  Setup (query balls, locals) is
  paid once per page instead of once per row.

G-tree key compares (:func:`gkey_sign_table`) are one scalar compare
per consulted row: a G-tree scan consults about half of a leaf's rows
and breaks early, so building a sign table for the whole leaf cost
more than it saved (DESIGN.md §15).

Exactness contract.  The float expressions here are *verbatim
replicas* of the scalar filtered kernels in
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
mode (``REPRO_EXACT_ONLY``) disables the kernels too, since they *are*
the float fast path.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from . import filtered
from .filtered import _EPS, _SLOP, _TINY, STATS, compare_interp

#: Below this many rows even the fused loop's per-page setup exceeds the
#: scalar per-row calls it replaces; such pages stay scalar.
MIN_ROWS = 4

_vectorized = True


def set_vectorized(flag: bool) -> None:
    """Enable/disable the fused kernels (the E20 A/B switch).

    Results and I/O counts are identical either way; only wall-clock
    changes.
    """
    global _vectorized
    _vectorized = bool(flag)


def vectorized_enabled() -> bool:
    """True when page kernels will actually run (off in exact-only mode)."""
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


def page_query_hits(page, query, items: Optional[Sequence] = None) -> list:
    """``[s for s in items if vs_intersects(s, query)]``, kernelized.

    The drop-in form of every engine's leaf scan: the fused loop from
    :data:`MIN_ROWS` rows up, the original scalar comprehension
    otherwise.
    """
    if items is None:
        items = page.items
    if vectorized_enabled() and len(items) >= MIN_ROWS:
        hits = intersect_hits_py(items, query)
        if hits is not None:
            return hits
    from .query import vs_intersects

    return [s for s in items if vs_intersects(s, query)]


def subset_query_hits(page, query, idx: Sequence[int],
                      items: Optional[Sequence] = None) -> Optional[list]:
    """Hits among ``items[i] for i in idx`` (row order), or ``None``.

    Serves the scans that prefilter rows before the geometric test (the
    grid's label dedup, the R-tree's bbox check): the kernel runs on the
    gathered subset only — exactly the rows the scalar loop would have
    compared.
    """
    if not vectorized_enabled() or len(idx) < MIN_ROWS:
        return None
    if items is None:
        items = page.items
    return intersect_hits_py([items[i] for i in idx], query)


def list_query_hits(items: Sequence, query) -> Optional[list]:
    """Hits among an in-memory segment list (no page behind it — the
    stab-filter's already-fetched candidates), or ``None``."""
    if not vectorized_enabled() or len(items) < MIN_ROWS:
        return None
    return intersect_hits_py(items, query)


def rtree_subset_hits(page, query, idx: Sequence[int],
                      items: Optional[Sequence] = None) -> Optional[list]:
    """:func:`subset_query_hits` for R-tree leaves, whose rows are
    ``(bbox, segment)`` tuples (``idx`` holds the bbox-overlap survivors)."""
    if not vectorized_enabled() or len(idx) < MIN_ROWS:
        return None
    if items is None:
        items = page.items
    return intersect_hits_py([items[i][1] for i in idx], query)


# ----------------------------------------------------------------------
# PST classify over a node's items page
# ----------------------------------------------------------------------
def classify_summary_py(items: Sequence, query
                        ) -> Optional[Tuple[list, Optional[int],
                                            Optional[int]]]:
    """Fused-tier ``(hit_rows, last_left_row, first_right_row)``.

    A single-pass replica of the scalar ``classify`` over a whole page:
    the exact reach-height test, then ``filtered.compare_u_at``'s float
    expressions inlined verbatim for each present bound, with the
    scalar short-circuits (BELOW consumes no window compare, LEFT one)
    preserved row by row.  Certified compares are bulk-tallied as fast
    hits; uncertified rows fall through to the scalar ``compare_u_at``
    (which counts itself).  Only HIT rows and the two boundary
    witnesses are materialised — exactly what the PST search consumes.
    Returns ``None`` when the query has no usable float bounds.
    """
    hb, lob, hib = query.balls()
    if hb is None:
        return None
    ulo, uhi = query.ulo, query.uhi
    if ulo is not None and lob is None:
        return None
    if uhi is not None and hib is None:
        return None
    fh, eh = hb
    afh = abs(fh)
    fbl = ebl = fbh = ebh = 0.0
    if ulo is not None:
        fbl, ebl = lob
    if uhi is not None:
        fbh, ebh = hib
    h = query.h
    compare = filtered.compare_u_at
    eps, slop, tiny = _EPS, _SLOP, _TINY
    abs_ = abs  # local binding: the loop calls it ~20x per row
    hit_rows: list = []
    ap = hit_rows.append
    last_left = first_right = None
    fast = 0
    i = -1
    for s in items:
        i += 1
        if s.h1 < h:              # BELOW: no witness, exact compare
            continue
        fp = s._fp
        if fp is None:
            if ulo is not None and compare(s, h, ulo, hb, lob) < 0:
                last_left = i
            elif uhi is not None and compare(s, h, uhi, hb, hib) > 0:
                if first_right is None:
                    first_right = i
            else:
                ap(i)
            continue
        if ulo is None and uhi is None:
            ap(i)
            continue
        u0, eu0, du, edu, h1, eh1 = fp
        # compare_u_at's second product is bound-independent; computing
        # it once per row is bit-identical (the terms are independent).
        t2 = du * fh
        et2 = abs_(du) * eh + afh * edu + edu * eh + abs_(t2) * eps
        if ulo is not None:
            d0 = u0 - fbl
            ed = eu0 + ebl + abs_(d0) * eps
            t1 = d0 * h1
            et1 = abs_(d0) * eh1 + abs_(h1) * ed + ed * eh1 + abs_(t1) * eps
            v = t1 + t2
            err = (et1 + et2 + abs_(v) * eps) * slop + tiny
            if -v > err:          # u(h) < ulo -> passes left
                fast += 1
                last_left = i
                continue
            if v > err:
                fast += 1
            elif compare(s, h, ulo, hb, lob) < 0:
                last_left = i
                continue
        if uhi is not None:
            d0 = u0 - fbh
            ed = eu0 + ebh + abs_(d0) * eps
            t1 = d0 * h1
            et1 = abs_(d0) * eh1 + abs_(h1) * ed + ed * eh1 + abs_(t1) * eps
            v = t1 + t2
            err = (et1 + et2 + abs_(v) * eps) * slop + tiny
            if v > err:           # u(h) > uhi -> passes right
                fast += 1
                if first_right is None:
                    first_right = i
                continue
            if -v > err:
                fast += 1
            elif compare(s, h, uhi, hb, hib) > 0:
                if first_right is None:
                    first_right = i
                continue
        ap(i)
    STATS.fast_hits += fast
    return hit_rows, last_left, first_right


def page_classify_summary(page, query, items: Optional[Sequence] = None
                          ) -> Optional[Tuple[list, Optional[int],
                                              Optional[int]]]:
    """``(hit_rows, last_left_row, first_right_row)`` for one node page.

    The shape the PST search actually consumes: HIT row indices in
    storage order plus the page's two tightest witnesses (items are
    sorted by base key, so the last LEFT row and the first RIGHT row
    carry the same final bounds as absorbing every non-hit row).
    ``None`` means the caller runs the scalar path.
    """
    if items is None:
        items = page.items
    if not vectorized_enabled() or len(items) < MIN_ROWS:
        return None
    return classify_summary_py(items, query)


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
