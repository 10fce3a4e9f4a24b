"""Instance extraction: from data listings to per-tag columns.

The matching phase begins by collecting, for each source-schema tag, "a
column of XML elements that belong to it" (§3.2 step 1). The same
extraction feeds training-example creation (§3.1 steps 2-3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..xmlio import Element
from .schema import SourceSchema


@dataclass
class ElementInstance:
    """One occurrence of a source tag inside a listing.

    ``child_labels`` is filled in by the pipelines: during training it maps
    each child tag to its true label (from the user-provided mapping);
    during matching, to the label LSD currently predicts for that child tag.
    The XML learner consumes it; flat learners ignore it. Instances given
    equal maps by one :func:`fill_child_labels` share one dict, so a map
    is replaced, never mutated in place.
    """

    element: Element
    tag: str
    path: tuple[str, ...]
    child_labels: dict[str, str] = field(default_factory=dict)
    #: Index of the listing this instance came from; lets column
    #: constraints (functional dependencies) re-align values row-wise.
    listing_index: int = -1
    #: Lazily filled by :mod:`repro.core.featurize` — tokenized/stemmed
    #: views of the instance text, computed at most once per instance.
    #: Excluded from equality: two instances with the same content are
    #: equal whether or not either has been featurized yet.
    feature_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)

    @property
    def text(self) -> str:
        """All character data in the instance subtree."""
        return self.element.text_content()


@dataclass
class InstanceColumn:
    """All extracted instances of one source tag."""

    tag: str
    path: tuple[str, ...]
    instances: list[ElementInstance]

    def __len__(self) -> int:
        return len(self.instances)

    def texts(self) -> list[str]:
        """Text content of each instance."""
        return [instance.text for instance in self.instances]

    def distinct_values(self) -> set[str]:
        """Distinct text values (used by key/column constraints)."""
        return {instance.text for instance in self.instances}

    def has_duplicates(self) -> bool:
        """True if two instances share the same text value."""
        return len(self.distinct_values()) < len(self.instances)


def extract_columns(schema: SourceSchema,
                    listings: list[Element],
                    max_instances_per_tag: int | None = None
                    ) -> dict[str, InstanceColumn]:
    """Collect the instance column of every schema tag from ``listings``.

    Every tag of the schema gets a column, possibly empty (a tag may be
    optional and absent from the extracted sample). The listing root
    elements themselves are not collected — the root is not matched.

    ``max_instances_per_tag`` caps column sizes; the paper notes LSD "can
    work well with relatively little data", and capping bounds matching
    time on large extractions.
    """
    columns: dict[str, InstanceColumn] = {
        tag: InstanceColumn(tag, schema.path_to(tag), [])
        for tag in schema.tags
    }
    for index, listing in enumerate(listings):
        _collect(listing, (), columns, max_instances_per_tag, index)
    return columns


def _collect(node: Element, path: tuple[str, ...],
             columns: dict[str, InstanceColumn],
             cap: int | None, listing_index: int) -> None:
    child_path = path + (node.tag,)
    for child in node.element_children:
        column = columns.get(child.tag)
        if column is not None and (cap is None or len(column) < cap):
            column.instances.append(
                ElementInstance(child, child.tag, child_path,
                                listing_index=listing_index))
        _collect(child, child_path, columns, cap, listing_index)
    # Attributes are treated like sub-elements (Section 2.1): each
    # attribute value becomes a leaf instance under its attribute name.
    for attr_name, attr_value in node.attributes.items():
        column = columns.get(attr_name)
        if column is not None and (cap is None or len(column) < cap):
            synthetic = Element(attr_name)
            synthetic.append_text(attr_value)
            columns[attr_name].instances.append(
                ElementInstance(synthetic, attr_name, child_path,
                                listing_index=listing_index))


def fill_child_labels(columns: dict[str, InstanceColumn],
                      label_of: dict[str, str]) -> None:
    """Populate ``child_labels`` of every instance from a tag->label map.

    During training ``label_of`` comes from the user mapping; during
    matching, from LSD's current per-tag predictions (§5: the XML learner
    "uses LSD (with the other base learners) to predict for each non-leaf
    and non-root node a label").

    Equal maps are interned: the instances that get one share one dict,
    which lets the XML learner's node table key each instance's map by
    identity.
    """
    interned: dict[tuple, dict[str, str]] = {}
    for column in columns.values():
        for instance in column.instances:
            labels = {
                descendant.tag: label_of[descendant.tag]
                for descendant in instance.element.iter()
                if descendant is not instance.element
                and descendant.tag in label_of
            }
            instance.child_labels = interned.setdefault(
                tuple(labels.items()), labels)
