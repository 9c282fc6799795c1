"""XML codec tests, including exact-roundtrip property over the parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.almanac import astnodes as ast
from repro.almanac.parser import parse
from repro.almanac.xmlcodec import (
    XmlCodecError,
    decode_node,
    decode_program,
    encode_node,
    encode_program,
)
from repro.tasks import ALMANAC_SOURCES


class TestScalarRoundtrip:
    @pytest.mark.parametrize("value", [None, True, False, 0, -5, 123456789,
                                       0.0, 3.14, -2.5e-8, "", "hello",
                                       "line\nbreak", "10.0.0.0/8"])
    def test_scalars(self, value):
        assert decode_node(encode_node(value)) == value

    def test_int_float_distinction_preserved(self):
        assert isinstance(decode_node(encode_node(1)), int)
        assert isinstance(decode_node(encode_node(1.0)), float)

    def test_bool_not_confused_with_int(self):
        assert decode_node(encode_node(True)) is True
        assert decode_node(encode_node(1)) == 1
        assert decode_node(encode_node(1)) is not True

    def test_sequences(self):
        assert decode_node(encode_node([1, "a", None])) == [1, "a", None]
        assert decode_node(encode_node((1, 2))) == (1, 2)


class TestProgramRoundtrip:
    def test_all_library_tasks_roundtrip_exactly(self):
        for name, (source, _machine) in ALMANAC_SOURCES.items():
            program = parse(source)
            xml = encode_program(program)
            assert decode_program(xml) == program, name

    def test_malformed_xml_rejected(self):
        with pytest.raises(XmlCodecError):
            decode_program("<not-closed")
        with pytest.raises(XmlCodecError):
            decode_program("<Unknown/>")

    def test_non_program_root_rejected(self):
        xml = encode_node(ast.Lit(value=1))
        import xml.etree.ElementTree as ET
        with pytest.raises(XmlCodecError):
            decode_program(ET.tostring(xml, encoding="unicode"))


# Hypothesis: generate small random Almanac programs via source fragments
# and check parse -> encode -> decode == parse.

state_names = st.sampled_from(["alpha", "beta", "gamma"])
var_names = st.sampled_from(["x", "y", "zz"])
ints = st.integers(min_value=0, max_value=1000)


@st.composite
def almanac_source(draw):
    num_states = draw(st.integers(1, 3))
    states = []
    used = draw(st.permutations(["alpha", "beta", "gamma"]))[:num_states]
    for name in used:
        body = []
        if draw(st.booleans()):
            body.append("util (res) { return %d; }" % draw(ints))
        if draw(st.booleans()):
            target = draw(st.sampled_from(used))
            body.append(
                "when (recv long v from harvester) do { transit %s; }"
                % target)
        states.append("state %s { %s }" % (name, " ".join(body)))
    decls = []
    for var in draw(st.lists(var_names, unique=True, max_size=2)):
        decls.append("long %s = %d;" % (var, draw(ints)))
    return "machine Gen { place all; %s %s }" % (" ".join(decls),
                                                 " ".join(states))


class TestPropertyRoundtrip:
    @given(almanac_source())
    @settings(max_examples=40, deadline=None)
    def test_random_programs_roundtrip(self, source):
        program = parse(source)
        assert decode_program(encode_program(program)) == program
