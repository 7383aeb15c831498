"""nexakt: certified higher-homological-algebra computations in mod(KQ/I)
over a prime field.

Layers, bottom up: exact linear algebra over F_p (fp), path-algebra
bases (quivers), quiver representations and their Hom spaces (reps),
complexes and homotopies (complexes), minimal (co)resolutions and Ext
(resolutions), the add(M) machinery with n-(co)kernels and certificates
(addcat), n-pushouts (pushout), the n-cluster-tilting certifier and
search (tilting), Frobenius structure and (n+2)-angles (frob), example
families (presets), and the certificate-emitting CLI (cli).
"""

__version__ = "0.1.0"

from .fp import FieldSpec, Mat, det, kernel_basis, rank, rref, solve_linear
from .quivers import (AlgebraBasis, PathWord, Quiver, Relation,
                      build_algebra, opposite_algebra)
from .reps import (Module, Morphism, cokernel_morphism, direct_sum,
                   hom_basis, in_add, injective_module, kernel_morphism,
                   projective_module, regular_module, simple_module,
                   split_indecomposables, zero_module)
from .complexes import (ComplexSeq, ComplexMorphism, Homotopy,
                        chain_map_space, mapping_cone, verify_homotopy)
from .resolutions import (Resolution, cosyzygy_of, ext_dim,
                          min_injective_coresolution,
                          min_projective_resolution, syzygy)
from .addcat import (AddCat, Indecomposables, NExactCert, add_category,
                     comparison_homotopy, contract, indecomposables,
                     minimal_left_approximation,
                     minimal_right_approximation, n_cokernel, n_kernel,
                     verify_n_cokernel, verify_n_exact, verify_n_kernel,
                     weak_cokernel, weak_kernel)
from .pushout import good_n_pushout, n_pushout, pushout_factorization
from .tilting import (NctReport, brute_force_nct_search,
                      check_n_cluster_tilting, ext_via_approx_resolution,
                      strong_projectivity_check)
from .frob import (Angle, FrobeniusCtx, angle_cone, angle_from_n_exact,
                   check_frobenius_setup, complete_angle_morphism, cosyzygy,
                   rotate_angle, stable_hom_basis, standard_angle,
                   suspension, suspension_morphism, trivial_angle,
                   verify_angle_exact)
from .presets import (gen_auslander_linear_A, gen_linear_An_J2,
                      gen_preprojective_A, nakayama_algebra,
                      nakayama_indecomposables)
from .certs import Certificate, canonical_json, content_hash, emit_certificate

__all__ = [
    "FieldSpec", "Mat", "det", "kernel_basis", "rank", "rref", "solve_linear",
    "AlgebraBasis", "PathWord", "Quiver", "Relation", "build_algebra",
    "opposite_algebra",
    "Module", "Morphism", "cokernel_morphism", "direct_sum", "hom_basis",
    "in_add", "injective_module", "kernel_morphism", "projective_module",
    "regular_module", "simple_module", "split_indecomposables",
    "zero_module",
    "ComplexSeq", "ComplexMorphism", "Homotopy", "chain_map_space",
    "mapping_cone", "verify_homotopy",
    "Resolution", "cosyzygy_of", "ext_dim",
    "min_injective_coresolution", "min_projective_resolution", "syzygy",
    "AddCat", "Indecomposables", "NExactCert", "add_category",
    "comparison_homotopy", "contract", "indecomposables",
    "minimal_left_approximation", "minimal_right_approximation", "n_cokernel",
    "n_kernel", "verify_n_cokernel", "verify_n_exact", "verify_n_kernel",
    "weak_cokernel", "weak_kernel",
    "good_n_pushout", "n_pushout", "pushout_factorization",
    "NctReport", "brute_force_nct_search", "check_n_cluster_tilting",
    "ext_via_approx_resolution", "strong_projectivity_check",
    "Angle", "FrobeniusCtx", "angle_cone", "angle_from_n_exact",
    "check_frobenius_setup", "complete_angle_morphism", "cosyzygy",
    "rotate_angle", "stable_hom_basis", "standard_angle", "suspension",
    "suspension_morphism", "trivial_angle", "verify_angle_exact",
    "gen_auslander_linear_A", "gen_linear_An_J2", "gen_preprojective_A",
    "nakayama_algebra", "nakayama_indecomposables",
    "Certificate", "canonical_json", "content_hash", "emit_certificate",
]
