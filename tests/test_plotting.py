import numpy as np
import pytest

from convexhyper import Ball, InvalidArgumentError, Polytope, plot_svg_2d
from convexhyper.plotting import boundary_points_2d


def test_ball_outline_has_enough_points(tmp_path):
    pts = boundary_points_2d(Ball(np.zeros(2), 1.0))
    assert pts.shape[0] >= 256
    radii = np.linalg.norm(pts, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-6)


def test_overlay_has_one_path_per_body(tmp_path):
    out = tmp_path / "plot.svg"
    square = Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    plot_svg_2d([square, Ball(np.zeros(2), 1.0)], str(out))
    text = out.read_text()
    assert text.count("<path") == 2
    assert "viewBox" in text


def test_empty_plot_is_valid_svg(tmp_path):
    out = tmp_path / "empty.svg"
    plot_svg_2d([], str(out))
    text = out.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_rejects_3d(tmp_path):
    with pytest.raises(InvalidArgumentError):
        plot_svg_2d([Ball(np.zeros(3), 1.0)], str(tmp_path / "x.svg"))
