"""Combinatorics of alternating snakes: classification, prime descriptor
sets, canonical factorization, exchange relations, monoid isomorphisms, and
the height-function translation."""

from .core import (Interval, MonoidElement, Snake, is_trivial,
                   parse_monoid_element, parse_snake)
from .errors import (FalsifiedInvariantError, NotAlternatingError, ParseError,
                     PreconditionError, SnakeAlgError)
from .explorer import (CorpusSpec, enumerate_snakes, oracle_factorizations,
                       random_snake)
from .factorizer import Factorization, compatible_product, factor
from .grothendieck import ExchangeTriple, IrredClass, exchange_triple, irred_class
from .heightmap import (HeightProfile, cluster_export, fr_xi, height_profile,
                        interval_set_xi, n_of, p_sequence, pr_bijection,
                        pr_xi, snake_of_xi, window_image)
from .isomorph import SnakeIso, build_iso, check_iso_conditions, transport_check
from .primesets import (PrimeDescriptor, closure_check, descriptor_index,
                        fr_set, generator_intervals, interval_set, pr_set,
                        tilde_interval_set, window_snake)
from .snakes import (SnakeClassification, check_enumeration, classify,
                     epsilon_sequence, require_prime)

__version__ = "0.1.0"
