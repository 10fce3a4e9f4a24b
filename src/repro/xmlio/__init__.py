"""From-scratch XML + DTD substrate used by the LSD reproduction.

Public surface:

* :func:`parse_document` / :func:`parse_element` / :func:`parse_fragments`
  — XML parsing into the :class:`Element` tree model.
* :func:`parse_dtd` and the :class:`DTD` schema model with structural
  queries (roots, leaves, nesting, depth).
* :func:`validate` / :func:`is_valid` — DTD validation.
* :func:`write_element` / :func:`write_document` / :func:`write_dtd` —
  serialization.
* :func:`read_fragments` / :class:`RecoveryLog` — error-recovering
  ingestion (``strict`` / ``lenient`` / ``salvage`` modes). One parser
  serves all three: every well-formedness violation goes through one
  method, whose effect the mode decides, so each listing is parsed once.
"""

from .dtd import (Any, AttributeDecl, Choice, ContentModel, DTD,
                  ElementDecl, Empty, NameRef, PCData, Sequence, parse_dtd)
from .errors import (DTDSyntaxError, SourceLocation, UNKNOWN_LOCATION,
                     ValidationError, XMLError, XMLSyntaxError)
from .parser import parse_document, parse_element, parse_fragments
from .recovery import (Fragment, INGEST_MODES, RecoveryEvent, RecoveryLog,
                       read_fragments, split_fragments)
from .tree import Document, Element, Text, element, from_pairs
from .validator import is_valid, validate
from .writer import (escape_attribute, escape_text, write_content_model,
                     write_document, write_dtd, write_element)

__all__ = [
    "Any", "AttributeDecl", "Choice", "ContentModel", "DTD", "Document",
    "DTDSyntaxError", "Element", "ElementDecl", "Empty", "Fragment",
    "INGEST_MODES", "NameRef", "PCData", "RecoveryEvent", "RecoveryLog",
    "Sequence", "SourceLocation", "Text", "UNKNOWN_LOCATION",
    "ValidationError", "XMLError", "XMLSyntaxError", "element",
    "escape_attribute", "escape_text", "from_pairs", "is_valid",
    "parse_document", "parse_dtd", "parse_element", "parse_fragments",
    "read_fragments", "split_fragments", "validate", "write_content_model",
    "write_document", "write_dtd", "write_element",
]
