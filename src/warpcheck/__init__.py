"""warpcheck: numerical verification of curvature bounds for multiply warped
product metrics dt^2 + sum_i f_i(t)^2 g_i.

The package builds warping profiles (closed forms and IVP solutions),
evaluates Ricci curvature and boundary geometry along two independent formula
paths, assembles the named constructions (collapsing cones, necks, collars,
doubled regions, ambient spheres), and renders machine-checkable verdicts for
every curvature bound, boundary condition, and asymptotic claim they are
supposed to satisfy.
"""

from .constructions import (CertifiedBlock, certified_core, certify_collar,
                            collar_closability, docking_ambient, gN_regions,
                            neck_family_check, round_boundary, sha_yang_space,
                            theorem22_hypotheses)
from .curvature import (BoundaryBlock, GlueVerdict, MultiWarpedMetric,
                        RicciComponents, RicciReport, boundary_data,
                        glue_check, ricci_components, ricci_generic,
                        ricci_report, second_fundamental_form, volume)
from .errors import InputError, WarpcheckError
from .factors import (FactorManifold, abstract_factor, round_sphere_factor,
                      scaled_ricci, unit_sphere_volume)
from .ode import DenseSolution, integrate_ivp
from .profiles import (EXCLUSION_WIDTH, ParityReport, ParityTag, WarpProfile,
                       closability_ode_profile, closed_form_profile,
                       collar_profile, docking_R_profile, k_profile,
                       neck_profile, parity_check, profile_from_callable,
                       radial_floor_value, sha_yang_profiles,
                       solve_ivp_profile)
from .report import (TOOL_VERSION as __version__, CheckResult,
                     ScenarioVerdict, check_bool, check_eq, check_ge, check_le,
                     report_bytes, revalidate_report, write_profile_csv,
                     write_report)
