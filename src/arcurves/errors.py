"""Exception hierarchy, organized by how the command line reports failures.

InputError covers malformed or out-of-contract input (exit code 2),
VerificationError a mathematical check that came out false (exit code 1),
and CertificationError an internal certificate the code could not
establish, where guessing would be dishonest (exit code 3).  Any other
exception is a bug and exits with code 4.
"""

from __future__ import annotations


class ArcError(Exception):
    """Base class for all package errors."""


class InputError(ArcError):
    """Invalid input data or parameters outside the supported contract."""


class NotSquarefreeError(InputError):
    """The defining polynomial has a repeated irreducible factor."""


class FormSplitError(InputError):
    """The binary form does not split into linear factors over k."""


class VerificationError(ArcError):
    """A mathematical verification failed."""


class CertificationError(ArcError):
    """An internal certificate could not be established."""


class InconclusiveSplitError(CertificationError):
    """Indecomposability could not be certified over the given field."""
