"""Information-theoretic polynomial commitment and verification.

A prover holding a private polynomial of degree d-1 over GF(q) commits to
it through oblivious-transfer-based secure two-party computation; a
verifier then delegates evaluations, checks each response in O(sqrt(d))
field operations against the commitment, and recovers the value.  The
audit module validates the protocol's soundness and privacy bounds
exactly at desk scale.

Quick start::

    from polycommit import PrimeField, make_config
    from polycommit.session import run_pair, honest_coefficients

    cfg = make_config(PrimeField(11), d=9, r=2, c=3, xi=6)
    coeffs = honest_coefficients(cfg, seed=1)
    _, _, outcome = run_pair(cfg, coeffs, queries=[0, 1, 2], seed=1)
    print(outcome.recovered)
"""

from .field import (
    FieldError,
    PrimeField,
    TableField,
    compare,
    gf2,
    gf4,
    is_probable_prime,
    validate_spec,
)
from .protocol import (
    ConfigError,
    EvalResponse,
    ProtocolConfig,
    ProverKey,
    RefusalError,
    VerificationKey,
    VerifierKey,
    commit,
    derive_prohibited_set,
    evaluate,
    keygen_prover,
    keygen_verifier,
    make_config,
    recover,
    suggest_prime_modulus,
    verify,
)
from .seeds import derive_seed, substream

__all__ = [
    "FieldError",
    "PrimeField",
    "TableField",
    "compare",
    "gf2",
    "gf4",
    "is_probable_prime",
    "validate_spec",
    "ConfigError",
    "EvalResponse",
    "ProtocolConfig",
    "ProverKey",
    "RefusalError",
    "VerificationKey",
    "VerifierKey",
    "commit",
    "derive_prohibited_set",
    "evaluate",
    "keygen_prover",
    "keygen_verifier",
    "make_config",
    "recover",
    "suggest_prime_modulus",
    "verify",
    "derive_seed",
    "substream",
]

__version__ = "0.1.0"
