"""Sample slowness fields from the grid prior and push them through the
straight-ray forward map.

Walks the physical half of the toolkit: build the acquisition geometry,
assemble the sparse path-length matrix, check its exactness, and look at
travel times for prior fields with and without measurement noise.
"""

import numpy as np

from latent_abcss.gp_prior import GPConfig, Grid, sample_fields
from latent_abcss.rng_linalg import RngStream
from latent_abcss.tomography import NoiseModel, add_noise, assemble_matrix, build_geometry, forward

grid = Grid(n_rows=50, n_cols=40, cell_size=0.1)
gp = GPConfig(lengthscale=2.5, variance=0.16, mean=0.5)
print(f"grid: {grid.n_rows} x {grid.n_cols} cells of {grid.cell_size} m "
      f"({grid.width} m wide, {grid.height} m deep, {grid.n_cells} unknowns)")

geom = build_geometry(grid, n_src=9, n_rcv=9, depth_min=0.5, depth_max=4.5, separation=3.9)
a = assemble_matrix(grid, geom)
print(f"geometry: sources at x={geom.source_x:.2f} m, receivers at x={geom.receiver_x:.2f} m, "
      f"{a.n_rays} rays")

# every row of the path matrix must sum to its ray's Euclidean length
exact = np.array([
    np.hypot(geom.separation, rz - sz)
    for sz in geom.source_depths
    for rz in geom.receiver_depths
])
worst = np.max(np.abs(a.ray_lengths() - exact) / exact)
print(f"row-sum identity: worst relative error {worst:.2e}")

rng = RngStream(seed=2024)
fields = sample_fields(grid, gp, n=3, rng=rng.split(0))
for i, field in enumerate(fields):
    y = forward(a, field)
    y_noisy = add_noise(y, NoiseModel(std=0.5), rng.split(1, i))
    print(f"field {i}: slowness {field.min():.2f}..{field.max():.2f} ns/m | "
          f"clean times {y.min():.2f}..{y.max():.2f} ns | "
          f"noise shifts by {np.abs(y_noisy - y).mean():.2f} ns on average")
