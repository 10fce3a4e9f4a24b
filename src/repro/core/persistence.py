"""Save and load trained LSD systems.

The training phase is cheap for a demo but expensive at production scale
(the paper's motivation is amortising user effort over "tens or hundreds
of sources"), so a trained system — learners, meta-learner weights,
constraints, pruner profiles — can be persisted and reloaded.

Pickle is the serialisation layer: the whole system in one pickle
stream, behind a format header that guards against loading files
produced by incompatible library versions.

Format version 2 stores each training source's listings as one compact
XML string (see :class:`~repro.core.training.TrainingSource`) instead
of as ``Element`` trees. Matching never reads the training listings;
only retraining (:meth:`LSDSystem.confirm_and_learn`) and readers of
``training_sources`` do, and they parse the string on first use. So a
load unpickles a few large strings instead of hundreds of thousands of
small tree objects, and never parses a listing. Version-1 files are
refused; retrain to get a version-2 file.

.. warning:: as with any pickle-based format, only load model files you
   trust.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from .system import LSDSystem

#: Bumped whenever the on-disk layout changes incompatibly.
FORMAT_VERSION = 2
_MAGIC = "repro-lsd"

#: What ``pickle.load`` raises on corrupt or incompatible input:
#: UnpicklingError for malformed streams, EOFError for truncation,
#: AttributeError/ImportError for classes that no longer resolve, and
#: IndexError for garbage opcodes. Anything outside this tuple (say a
#: MemoryError, or a RuntimeError from a class's ``__setstate__``) is
#: not a file-format problem and must propagate untranslated.
_UNPICKLE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
)


class ModelFormatError(RuntimeError):
    """The file is not a compatible saved LSD system."""


def save_system(system: LSDSystem, path: str | Path) -> None:
    """Serialise a (typically trained) system to ``path``."""
    payload = {
        "magic": _MAGIC,
        "version": FORMAT_VERSION,
        "system": system,
    }
    with Path(path).open("wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_system(path: str | Path) -> LSDSystem:
    """Load a system saved by :func:`save_system`."""
    path = Path(path)
    with path.open("rb") as handle:
        try:
            payload = pickle.load(handle)
        except _UNPICKLE_ERRORS as exc:
            raise ModelFormatError(
                f"{path} is not a readable LSD model: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise ModelFormatError(f"{path} is not an LSD model file")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path} uses format version {version}, this library reads "
            f"version {FORMAT_VERSION}")
    system = payload["system"]
    if not isinstance(system, LSDSystem):
        raise ModelFormatError(f"{path} does not contain an LSDSystem")
    return system
