"""A hand-laid obstacle field for tests, with the cell interface of
``medium.ObstacleField``."""

import math

import numpy as np

from maglorentz.medium import ScalingParams, _CellCache, default_cell_size


class ExplicitField(_CellCache):
    """Field with a fixed obstacle list; same interface as ObstacleField.

    Used for validation runs where the environment must be laid out by hand.
    """

    def __init__(self, params: ScalingParams, centers, cell_size: float = 0.0):
        self.params = params
        self.cell_size = cell_size if cell_size > 0.0 else default_cell_size(params)
        self._cells = {}
        self._strips = {}
        self._centers: dict[tuple[int, int], list] = {}
        s = self.cell_size
        for c in np.atleast_2d(np.asarray(centers, dtype=float)):
            if c.shape != (2,):
                raise ValueError("centers must be 2-vectors")
            key = (int(math.floor(c[0] / s)), int(math.floor(c[1] / s)))
            self._centers.setdefault(key, []).append(c)

    def cell_points(self, cell_x: int, cell_y: int) -> np.ndarray:
        pts = self._centers.get((cell_x, cell_y))
        if not pts:
            return np.empty((0, 2))
        return np.array(pts)
