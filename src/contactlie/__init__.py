"""Contact Lie algebras with exact arithmetic: contact forms and Reeb
fields, associated metrics and the K-contact condition, root-space
decompositions of ad(xi), and the correspondence between K-contact
algebras with central Reeb field and central extensions of symplectic
Lie algebras."""

from .algebra import (COMPLEX, REAL, LieAlgebra, ad, bracket, check_jacobi,
                      complexify, subspace_brackets)
from .catalog import CatalogEntry, catalog
from .contact import ContactStructure, contact_structure, decompose, reeb
from .errors import (ContactLieError, InputError, InternalInvariantError,
                     SingularSystemError)
from .extension import (MainTheoremReport, SymplecticAlgebra,
                        analyze_kcontact, central_extension,
                        central_quotient, round_trip)
from .fileformat import (AlgebraFile, load, parse_algebra_file, save,
                         serialize_algebra_file)
from .forms import (AlternatingForm, basis_dual, ce_differential,
                    complexify_form, evaluate, is_contact, one_form,
                    two_form, wedge)
from .metric import (Connection, MetricData, ObstructionReport,
                     SkewNormalForm, compute_h, compute_phi,
                     construct_associated_metric, is_associated,
                     is_kcontact, kcontact_obstruction, levi_civita,
                     skew_normal_form, symplectic_is_associated)
from .polynomials import minimal_polynomial
from .scalars import GaussianRational, format_scalar, parse_scalar
from .spectral import (GradedBracketReport, RootDecomposition,
                       TheoremReport, find_dual_partner, pairing_matrix,
                       root_decomposition, verify_graded_bracket,
                       verify_reeb_theorem)

__version__ = "0.1.0"
