"""Planar central configurations via the pair-rotation (twist) tangent basis.

Library layout:
  geometry  — configurations, pair tables, f = M*I/2 + U/(A-2) and its gradient
  twist     — twist vectors, span basis, Laura-Andoyer / Albouy-Chenciner residuals
  hessian   — Cartesian Hessian, twist matrices V^T H V, closed forms, Morse indices
  solver    — twist flows (RK4) and curvature-scaled Newton descent in the
              twist span (keeps I to first order), Newton-polished
  kite      — 4-body concave isosceles kites, block Hessians, index maps
  intervals — outward-rounded interval arithmetic on lanes (IntervalArray);
              Interval is a checked one-lane box
  certify   — rigorous index certification over shape boxes
  cli       — command-line interface (eval, descend, flow, hessian,
              kite-map, certify, lagrange)
"""

__version__ = "0.1.0"

from .geometry import (CoincidentPointsError, ExponentRangeError, GeometryError,
                       PairTable, PlanarConfig, PotentialParams, build_pair_table,
                       cartesian_gradient_f, center_of_mass, config_from_json,
                       config_to_json, euler_residual, f_value, load_config,
                       moment_of_inertia, potential_u)
from .twist import (CCResidual, albouy_chenciner_asym, albouy_chenciner_sym,
                    cc_residual, laura_andoyer, normalized_twist, twist_span_basis,
                    twist_vector)
from .hessian import (TwistDirection, TwistMatrix, assemble_twist_hessian,
                      cartesian_hessian, lagrange_char_poly_coeffs, morse_index,
                      signature, twist_hessian_entry)
from .solver import DescentReport, FlowSpec, descend, flow_fixed_combo, rescale_to_cc_size
from .kite import (IndexMap, KiteBlocks, KiteConfig, KiteError, KiteShape,
                   build_kite, circumcenter_z4, classify_shape,
                   coorbital_identity_check, kite_blocks, kite_index_map,
                   kite_masses, kite_scale)
from .intervals import Interval, IntervalError
from .certify import (OUTCOMES, BoxCertificate, CertifiedIndex, certify_box,
                      certify_ha_index, certify_hs_index, certify_kite_scale)
