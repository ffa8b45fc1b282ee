"""Four-layer topology and the network configuration file.

Neurons are named concepts arranged elements -> substructures -> structures
-> documents; links only join adjacent layers. The default inventory wires
ten layout extractors through mid-level groupings up to the three
administrative document classes; its link tables name the default element
and substructure neurons. The last layer sees every structure so a class
can also learn counter-evidence (a totals line argues against "letter" as
much as a paragraph argues for it).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .documents import (
    check_version,
    expect_names,
    expect_number,
    expect_type,
    read_json,
    require,
    write_json,
)
from .features import ElementExtractor, ExtractorSpec, build_extractors

CONFIG_FORMAT_VERSION = 1

LAYER_NAMES = ("elements", "substructures", "structures", "documents")


class TopologyError(ValueError):
    """Raised when a topology or config file violates the layer/link rules."""


@dataclass(frozen=True)
class Topology:
    elements: tuple[str, ...]
    substructures: tuple[str, ...]
    structures: tuple[str, ...]
    documents: tuple[str, ...]
    links: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        layers = self.layers()
        all_names: list[str] = []
        for layer_name, names in zip(LAYER_NAMES, layers):
            if len(set(names)) != len(names):
                raise TopologyError(f"duplicate neuron name in layer '{layer_name}'")
            all_names.extend(names)
        if len(set(all_names)) != len(all_names):
            raise TopologyError("neuron names must be unique across layers")
        layer_of = {name: i for i, names in enumerate(layers) for name in names}
        for src, dst in sorted(self.links):
            if src not in layer_of or dst not in layer_of:
                raise TopologyError(f"link ({src} -> {dst}) references unknown neuron")
            if layer_of[dst] != layer_of[src] + 1:
                raise TopologyError(f"link ({src} -> {dst}) does not join adjacent layers")
        has_in = {dst for _, dst in self.links}
        has_out = {src for src, _ in self.links}
        for names in layers[1:]:
            for name in names:
                if name not in has_in:
                    raise TopologyError(f"neuron '{name}' has no incoming link")
        for names in layers[:-1]:
            for name in names:
                if name not in has_out:
                    raise TopologyError(f"neuron '{name}' has no outgoing link")

    def layers(self) -> tuple[tuple[str, ...], ...]:
        return (self.elements, self.substructures, self.structures, self.documents)

    def upstream_elements(self, name: str) -> frozenset[str]:
        """Element neurons with a directed path to the given neuron."""
        incoming: dict[str, set[str]] = {}
        for src, dst in self.links:
            incoming.setdefault(dst, set()).add(src)
        frontier = {name}
        seen: set[str] = set()
        while frontier:
            node = frontier.pop()
            for src in incoming.get(node, ()):
                if src not in seen:
                    seen.add(src)
                    frontier.add(src)
        return frozenset(seen & set(self.elements))


@dataclass(frozen=True)
class Hyperparams:
    """Online training settings: correction step, stability threshold, epoch cap."""

    mu: float = 0.5
    epsilon: float = 0.01
    max_epochs: int = 1000

    def __post_init__(self) -> None:
        if expect_number(self.mu, float, TopologyError, "mu") <= 0:
            raise TopologyError(f"mu must be > 0, got {self.mu!r}")
        expect_number(self.epsilon, float, TopologyError, "epsilon", 0)
        expect_number(self.max_epochs, int, TopologyError, "max_epochs", 1)


@dataclass(frozen=True)
class NetworkConfig:
    """Topology, extractor specs and hyperparams of one network.

    Construction keeps a read-only copy of ``extractors`` and builds every
    element's extractor once, into the read-only ``element_extractors``;
    models made from the config share them, and they hold no per-document
    state.
    """

    topology: Topology
    extractors: Mapping[str, ExtractorSpec]
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    element_extractors: Mapping[str, ElementExtractor] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "extractors", MappingProxyType(dict(self.extractors)))
        missing = set(self.topology.elements) - set(self.extractors)
        if missing:
            raise TopologyError(f"element(s) without extractor spec: {sorted(missing)}")
        extra = set(self.extractors) - set(self.topology.elements)
        if extra:
            raise TopologyError(f"extractor spec(s) for non-element name(s): {sorted(extra)}")
        # building reads every param, so a bad kind or param is refused here,
        # naming its element
        try:
            built = build_extractors(self.extractors)
        except ValueError as exc:
            raise TopologyError(f"config {exc}") from exc
        object.__setattr__(self, "element_extractors", MappingProxyType(built))


DEFAULT_STRUCTURES = (
    "invoice_body",
    "table",
    "total",
    "address",
    "signature",
    "letter_body",
    "header",
)

DEFAULT_DOCUMENTS = ("invoice", "form", "letter")

# The two link tables name the default elements and substructures: their key
# order is the layer order, so it fixes the element vector and the layout of
# every model file.
_ELEMENT_LINKS = {
    "amount_area": ("numeric_column_group", "totals_line"),
    "designation_zone": ("tabular_grid",),
    "code_area": ("tabular_grid",),
    "vertical_alignment": ("numeric_column_group", "tabular_grid", "address_block", "paragraph"),
    "horizontal_alignment": ("numeric_column_group", "totals_line", "tabular_grid"),
    "keywords_total": ("totals_line",),
    "keywords_address": ("address_block",),
    "text_block": ("paragraph", "address_block"),
    "date_indicator": ("date_line",),
    "isolated_block": ("signature_block",),
}

_SUBSTRUCTURE_LINKS = {
    "numeric_column_group": ("table", "total", "invoice_body"),
    # a letter body is prose *without* a totals line under it; the counter-link
    # lets the body neuron learn that distinction
    "totals_line": ("total", "invoice_body", "letter_body"),
    "address_block": ("address", "header"),
    "date_line": ("header",),
    "paragraph": ("letter_body",),
    "tabular_grid": ("table", "invoice_body"),
    "signature_block": ("signature",),
}


def default_topology() -> Topology:
    links: set[tuple[str, str]] = set()
    for src, dsts in _ELEMENT_LINKS.items():
        links.update((src, dst) for dst in dsts)
    for src, dsts in _SUBSTRUCTURE_LINKS.items():
        links.update((src, dst) for dst in dsts)
    for structure in DEFAULT_STRUCTURES:
        links.update((structure, doc) for doc in DEFAULT_DOCUMENTS)
    return Topology(
        elements=tuple(_ELEMENT_LINKS),
        substructures=tuple(_SUBSTRUCTURE_LINKS),
        structures=DEFAULT_STRUCTURES,
        documents=DEFAULT_DOCUMENTS,
        links=frozenset(links),
    )


def default_config() -> NetworkConfig:
    # Each default element name doubles as its extractor kind.
    extractors = {name: ExtractorSpec(kind=name) for name in _ELEMENT_LINKS}
    return NetworkConfig(topology=default_topology(), extractors=extractors)


def config_to_dict(config: NetworkConfig) -> dict:
    return {
        "format_version": CONFIG_FORMAT_VERSION,
        "layers": {name: list(names)
                   for name, names in zip(LAYER_NAMES, config.topology.layers())},
        "links": sorted([src, dst] for src, dst in config.topology.links),
        "extractors": {
            name: {"kind": spec.kind, "params": dict(spec.params)}
            for name, spec in sorted(config.extractors.items())
        },
        "hyperparams": asdict(config.hyperparams),
    }


def config_from_dict(payload: Mapping) -> NetworkConfig:
    check_version(payload, CONFIG_FORMAT_VERSION, TopologyError, "config")
    layers = payload.get("layers")
    if not isinstance(layers, Mapping):
        raise TopologyError("config missing 'layers' section")
    names = [
        expect_names(require(layers, layer, TopologyError, "config layers"), TopologyError,
                     f"config layer '{layer}'")
        for layer in LAYER_NAMES
    ]
    links = [
        expect_names(link, TopologyError, "config 'links' entry")
        for link in expect_type(require(payload, "links", TopologyError, "config"), list,
                                TopologyError, "config 'links'")
    ]
    if any(len(link) != 2 for link in links):
        raise TopologyError("config 'links' entries must be [source, target] pairs")
    topology = Topology(*names, links=frozenset(links))
    extractors = {}
    extractor_entries = expect_type(require(payload, "extractors", TopologyError, "config"),
                                    Mapping, TopologyError, "config 'extractors'")
    for name, entry in extractor_entries.items():
        where = f"config extractor '{name}'"
        kind = expect_type(require(entry, "kind", TopologyError, where), str, TopologyError,
                           f"{where}: 'kind'")
        params = expect_type(entry.get("params", {}), Mapping, TopologyError, f"{where}: 'params'")
        extractors[name] = ExtractorSpec(kind=kind, params=dict(params))
    hp = expect_type(payload.get("hyperparams", {}), Mapping, TopologyError, "config 'hyperparams'")
    known = {f.name for f in fields(Hyperparams)}
    unknown = [key for key in hp if key not in known]
    if unknown:
        # a misspelt key would otherwise train with the default silently
        raise TopologyError(f"config hyperparams: param '{unknown[0]}' is unknown")
    # Hyperparams checks the JSON types itself: a string, a bool or a
    # fractional max_epochs is refused, never converted
    try:
        hyperparams = Hyperparams(**hp)
    except TopologyError as exc:
        raise TopologyError(f"config hyperparams: {exc}") from exc
    return NetworkConfig(topology=topology, extractors=extractors, hyperparams=hyperparams)


def load_config(path: str | Path) -> NetworkConfig:
    return config_from_dict(read_json(path, TopologyError))


def save_config(config: NetworkConfig, path: str | Path) -> None:
    write_json(config_to_dict(config), path)
