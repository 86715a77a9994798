"""Rotation numbers of planar fields over region boundaries."""

import numpy as np

from epsode import (PlanarRegion, ProductRegion, contract, product_degree,
                    winding_number)

disk = PlanarRegion.circle(0.0, 0.0, 1.0, 512)

print("identity:", winding_number(lambda P: P, disk).degree)
print("constant:",
      winding_number(lambda P: np.tile([1.0, 0.0], (len(P), 1)), disk).degree)


def complex_square(P):
    return np.stack([P[:, 0] ** 2 - P[:, 1] ** 2,
                     2 * P[:, 0] * P[:, 1]], axis=1)


rep = winding_number(complex_square, disk)
print(f"z^2: degree {rep.degree} from {rep.samples_used} samples "
      f"(min |F| = {rep.min_field_norm:.3f})")

# a vanishing field gets no degree: the report says why, at which sample
rep = winding_number(lambda P: P * P[:, :1], disk)
print(f"degree {rep.degree}: {rep.failure} at u = {rep.witness['u']}")

# product regions multiply the factor degrees
prod = ProductRegion([disk, PlanarRegion.circle(0, 0, 2.0, 256)])
rep = product_degree([complex_square, lambda P: P], prod)
print("product degree (z^2 x identity):", rep.degree)

# radial contraction about the star center
half = contract(disk, 0.5)
print("contracted radius:",
      np.linalg.norm(half.boundary_points(4), axis=1))
grown = contract(disk, -0.1)
print("expanded radius:",
      np.linalg.norm(grown.boundary_points(4), axis=1))
