"""Exception hierarchy shared across the emulator.

Graph-level problems carry the offending layer id in ``layer`` so loaders
and validators can point at the exact manifest entry.
"""

from __future__ import annotations


class MacfiError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message: str, layer: str | None = None):
        super().__init__(message)
        self.layer = layer


class InvalidScale(MacfiError):
    """Quantization or requantization scale is non-positive or non-finite."""


class ShapeError(MacfiError):
    """Tensor, weight or layer dimensions do not fit together."""


class ScaleMismatch(MacfiError):
    """The operands of an add layer carry different scales."""


class UnsupportedLayer(MacfiError):
    """Layer kind outside the supported set."""


class SchemaError(MacfiError):
    """Manifest, dataset, fault-spec, or campaign-spec document violates its schema."""


class MissingBlob(MacfiError):
    """A weights/bias blob reference points outside the blob (or the blob is absent)."""


class CycleError(MacfiError):
    """The layer graph is not acyclic."""


class UnmappedAddress(MacfiError):
    """Register access at a byte offset outside the FI register map."""


class KTooLarge(MacfiError):
    """Requested fault count exceeds the number of multiplier lanes."""


class EmptyDataset(MacfiError):
    pass


class EmptyGroup(MacfiError):
    pass


class EmptyLogits(MacfiError):
    pass


class OutOfRange(MacfiError):
    """A numeric argument is outside its documented domain."""
