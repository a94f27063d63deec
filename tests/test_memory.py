"""Peak memory of the frame steps and of the tip mask.

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


@pytest.fixture(scope="module")
def frame() -> bytes:
    """The first large-frame pose at seed 1: M12x75_HT across a noisy
    2048x2048 frame, about 4 degrees off the x axis."""
    spec = next(s for s in standard_catalog() if s.name == "M12x75_HT")
    img, _ = render_bolt(spec, RenderParams(
        SIDE, SIDE, PixelPoint(1034, 1042), angle_deg=184.2557848920924,
        px_per_mm=25.774746084496915, noise=0.002, seed=74845286,
    ))
    return write_binary_pgm(img)


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


def test_tip_mask_peak_under_three_part_masks(frame):
    comps = connected_components(threshold(read_pgm(frame)), 50)
    mask = max(comps, key=lambda c: c.area).mask
    bolt = orient(mask)
    # the tip mask is one array, filled in place and kept by BinaryImage
    peak = _traced_peak(lambda: measure_axes(bolt))
    assert peak <= 3 * mask.px.nbytes
