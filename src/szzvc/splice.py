"""The run of elements in which one version of a text differs from another.

Both parsers read a file version as a sequence of elements, Pd records and
the boxes and patchlines of a Max document, and most versions differ from
the one read before them inside a few elements next to each other. Finding
that run from the text alone lets a parser read only it and take the rest
from what it built for the earlier version, an incremental parse in the
sense of Wagner and Graham ("Efficient and Flexible Incremental Parsing",
TOPLAS 1998).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


def changed_run(s: str, s_at: int, s_size: int, t: str, t_at: int, t_size: int,
                starts: list[int], ends: list[int]) -> tuple[int, int] | None:
    """Where ``s[s_at:s_at + s_size]`` differs from ``t[t_at:t_at + t_size]``,
    counted in the elements of the latter.

    Element ``k`` of ``t`` runs from ``t_at + starts[k]`` to ``t_at +
    ends[k]``, in order and within the stretch. Returns ``(first, stop)``,
    ``first <= stop``: ``s`` holds ``t``'s stretch from its start through
    the end of element ``first - 1`` at the same offsets, and from the start
    of element ``stop`` through its end shifted by the change in size, with
    ``first`` as large and ``stop`` as small as that allows; None where the
    stretches are equal. Bisection with ``str.startswith`` over the element
    ends finds ``first`` and over the element starts finds ``stop``."""
    if s_size == t_size and s.startswith(t[t_at:t_at + t_size], s_at):
        return None
    shift = s_size - t_size
    # the leading elements: the stretch through the end of element
    # ``first - 1`` is t's
    first, hi = 0, bisect_right(ends, s_size)
    while first < hi:
        mid = (first + hi + 1) // 2
        done = ends[first - 1] if first else 0
        if s.startswith(t[t_at + done:t_at + ends[mid - 1]], s_at + done):
            first = mid
        else:
            hi = mid - 1
    # and the trailing ones, which s holds as much further on as it is
    # longer: the stretch from element ``stop`` to its end is t's
    after = ends[first - 1] if first else 0
    stop, hi = max(first, bisect_left(starts, after - shift)), len(starts)
    while stop < hi:
        mid = (stop + hi) // 2
        done = starts[hi] if hi < len(starts) else t_size
        if s.startswith(t[t_at + starts[mid]:t_at + done], s_at + starts[mid] + shift):
            hi = mid
        else:
            stop = mid + 1
    return first, stop
