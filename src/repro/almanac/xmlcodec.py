"""XML serialization of compiled Almanac machines (SV-A-d).

"Seeds' state machines are described in Almanac, compiled by the seeder
into XML, and transformed from XML to one or more seeds by each switch's
soil.  XML is used for interoperability and portability across OSs."

The codec is a generic dataclass walker over the AST node types: every
node becomes an element named after its class, scalar fields become
attributes, and node/list fields become wrapped child elements.  The
round-trip is exact (``decode(encode(x)) == x``), which the property tests
verify over randomly generated programs.
"""

from __future__ import annotations

import dataclasses
import inspect
import xml.etree.ElementTree as ET
from typing import Any, Dict, Tuple, Type

from repro.almanac import astnodes as ast
from repro.errors import AlmanacError

# Registry: element tag -> AST node class.
_NODE_CLASSES: Dict[str, Type] = {
    name: cls for name, cls in inspect.getmembers(ast, inspect.isclass)
    if dataclasses.is_dataclass(cls)
}


class XmlCodecError(AlmanacError):
    """Malformed or unrecognized seed XML."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _encode_scalar(value: Any) -> Tuple[str, str]:
    """Encode a scalar as (type-tag, text)."""
    if value is None:
        return "none", ""
    if isinstance(value, bool):
        return "bool", "true" if value else "false"
    if isinstance(value, int):
        return "int", str(value)
    if isinstance(value, float):
        return "float", repr(value)
    if isinstance(value, str):
        return "str", value
    raise XmlCodecError(f"cannot encode scalar {value!r}")


def _is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def encode_node(node: Any) -> ET.Element:
    """Encode one AST node (or scalar, or list/tuple) as an element."""
    if _is_scalar(node):
        kind, text = _encode_scalar(node)
        element = ET.Element("scalar", {"type": kind})
        element.text = text
        return element
    if isinstance(node, (list, tuple)):
        element = ET.Element("seq", {
            "kind": "tuple" if isinstance(node, tuple) else "list"})
        for item in node:
            element.append(encode_node(item))
        return element
    if dataclasses.is_dataclass(node):
        element = ET.Element(type(node).__name__)
        for field_info in dataclasses.fields(node):
            value = getattr(node, field_info.name)
            child = ET.SubElement(element, "f", {"name": field_info.name})
            child.append(encode_node(value))
        return element
    raise XmlCodecError(f"cannot encode {type(node).__name__}: {node!r}")


def encode_program(program: ast.Program) -> str:
    """Serialize a program to an XML string."""
    return ET.tostring(encode_node(program), encoding="unicode")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode_node(element: ET.Element) -> Any:
    """Inverse of :func:`encode_node`."""
    tag = element.tag
    if tag == "scalar":
        kind = element.get("type")
        text = element.text or ""
        if kind == "none":
            return None
        if kind == "bool":
            return text == "true"
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "str":
            return text
        raise XmlCodecError(f"unknown scalar type {kind!r}")
    if tag == "seq":
        items = [decode_node(child) for child in element]
        return tuple(items) if element.get("kind") == "tuple" else items
    cls = _NODE_CLASSES.get(tag)
    if cls is None:
        raise XmlCodecError(f"unknown AST element {tag!r}")
    kwargs: Dict[str, Any] = {}
    for child in element:
        if child.tag != "f":
            raise XmlCodecError(f"unexpected child {child.tag!r} under {tag}")
        name = child.get("name")
        if name is None or len(child) != 1:
            raise XmlCodecError(f"malformed field element under {tag}")
        kwargs[name] = decode_node(child[0])
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise XmlCodecError(f"cannot build {tag}: {exc}") from exc


def decode_program(xml_text: str) -> ast.Program:
    """Parse a program serialized by :func:`encode_program`."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise XmlCodecError(f"malformed XML: {exc}") from exc
    program = decode_node(root)
    if not isinstance(program, ast.Program):
        raise XmlCodecError("XML does not contain a Program")
    return program

