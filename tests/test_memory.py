"""Peak memory of the frame steps and of the tip half.

tracemalloc counts the buffers numpy allocates, so these peaks are
byte counts of the program's own arrays and do not depend on the host.
Each bound is a multiple of the array the step starts from: the frame's
w * h bytes, or the part mask's bytes.
"""

from __future__ import annotations

import tracemalloc

import pytest

from boltvision.imagecore import (
    PixelPoint,
    connected_components,
    read_pgm,
    threshold,
    write_binary_pgm,
)
from boltvision.pipeline import measure_axes, orient
from boltvision.synth import RenderParams, render_bolt, standard_catalog

SIDE = 2048


def _frame(center: PixelPoint, angle: float, seed: int) -> bytes:
    """M12x75_HT across a noisy 2048x2048 frame at large-frame's scale."""
    spec = next(s for s in standard_catalog() if s.name == "M12x75_HT")
    img, _ = render_bolt(spec, RenderParams(
        SIDE, SIDE, center, angle_deg=angle,
        px_per_mm=25.774746084496915, noise=0.002, seed=seed,
    ))
    return write_binary_pgm(img)


@pytest.fixture(scope="module")
def frame() -> bytes:
    """The first large-frame pose at seed 1, about 4 degrees off the x
    axis."""
    return _frame(PixelPoint(1034, 1042), 184.2557848920924, 74845286)


@pytest.fixture(scope="module")
def wide_hole_frame() -> bytes:
    """The pose of test_pitch_joins_crest_split_by_wide_hole: the part
    runs diagonally, so its mask is large and about a quarter white."""
    return _frame(PixelPoint(1013, 1044), 117.71001957800186, 378027506)


def _traced_peak(fn) -> int:
    """The most bytes traced above the start while fn() ran."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak - start


def test_frame_steps_peak_under_twice_the_frame(frame):
    # read keeps a view of the bytes, threshold's array is the image's,
    # and the labeller pads a block of rows at a time
    peak = _traced_peak(lambda: connected_components(threshold(read_pgm(frame)), 50))
    assert peak <= 2 * SIDE * SIDE


@pytest.mark.parametrize("pose", ["frame", "wide_hole_frame"])
def test_tip_peak_under_half_a_part_mask(pose, request):
    comps = connected_components(threshold(read_pgm(request.getfixturevalue(pose))), 50)
    mask = max(comps, key=lambda c: c.area).mask
    bolt = orient(mask)
    # the tip is clipped from the part's white runs, so no array of the
    # mask's shape is made
    peak = _traced_peak(lambda: measure_axes(bolt))
    assert peak <= mask.px.nbytes / 2
