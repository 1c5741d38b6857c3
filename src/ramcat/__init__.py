"""Finite partition witnesses for boundary-style functors.

Categories with finite, canonically ordered hom-sets; boundary functors with
explicit lift oracles; an exhaustive/sampled verification engine; theorem-
mirroring witness constructions; and replayable certificates.
"""

from .core import (Category, ComposedFunctor, EncodingError, Functor,
                   IdentityFunctor, LiftError, Morph, binomial, canon_bytes,
                   canon_hex, canon_parse, canon_unhex, check_category_laws,
                   check_functor_laws, check_frank_at, compose_functors,
                   compose_word, frank_pair, sort_morphs)
from .categories import (ProductCategory, ProductFunctor, StepBoundary,
                         StepCategory, SubsetBoundary, SubsetCategory,
                         TreeCategory, TreeTruncation, WordBoundary,
                         WordCategory, product_category, product_functor,
                         standard_window, star, step_boundary, step_category,
                         subset_boundary, subset_category, tree_category,
                         tree_truncation, word_boundary, word_category)
from .engine import (DEFAULT_SAMPLES, DEFAULT_SEED, BudgetExceeded, Coloring,
                     DegreeBoundReport, DegreeResult, FpInstance, PCheckResult,
                     SearchBudget,
                     check_degree_bound, check_degree_witness,
                     check_fp_witness, check_p_witness, degree_upper_bound,
                     fiber, functor_image, prf_color, ramsey_degree,
                     search_p_witness)
from .constructions import (ConstructionError, CrossRelation, WitnessProvider,
                            check_cross_welldefined, check_cross_zeta,
                            check_modeling_compatibility, fouche_witness,
                            fp_to_p_construct, fp_provider, hj_modeling,
                            hj_witness, identity_modeling, modeling_transfer,
                            p_pigeonhole_witness, product_ramsey_numbers,
                            product_ramsey_witness, product_witness,
                            r_fp_witness, tree_fp_witness, word_witness)
from .certificates import (CertificateError, Claim, StaleCertificateError,
                           dump_certificate, fp_certificate, load_certificate,
                           p_certificate, parse_certificate, replay_verify)

__version__ = "0.1.0"
