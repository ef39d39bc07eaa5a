"""Tests for the XML front end (repro.ladiff.xml_parser)."""

import pytest

from repro.core import ParseError, Tree, trees_isomorphic
from repro.diff import tree_diff
from repro.ladiff import parse_xml, write_xml
from repro.matching import match_by_keys
from repro.workload import DocumentSpec, generate_document


SAMPLE = """
<catalog>
  <product sku="1001" dept="storage">
    <name>steel shelf</name>
    <price>89</price>
  </product>
  <product sku="1002" dept="storage">
    <name>plastic bin</name>
  </product>
</catalog>
"""


class TestParseXml:
    def test_elements_become_labeled_nodes(self):
        tree = parse_xml(SAMPLE)
        assert tree.root.label == "catalog"
        products = [n for n in tree.preorder() if n.label == "product"]
        assert len(products) == 2

    def test_attributes_become_children(self):
        tree = parse_xml(SAMPLE)
        product = next(n for n in tree.preorder() if n.label == "product")
        attr_labels = [c.label for c in product.children if c.label.startswith("@")]
        assert attr_labels == ["@dept", "@sku"]  # sorted by name
        sku = next(c for c in product.children if c.label == "@sku")
        assert sku.value == "1001"

    def test_text_becomes_text_leaves(self):
        tree = parse_xml("<a>hello <b>bold</b> world</a>")
        texts = [n.value for n in tree.preorder() if n.label == "#text"]
        assert texts == ["hello", "bold", "world"]

    def test_whitespace_only_text_dropped(self):
        tree = parse_xml("<a>\n  <b>x</b>\n</a>")
        texts = [n for n in tree.preorder() if n.label == "#text"]
        assert len(texts) == 1

    def test_attribute_order_insignificant(self):
        t1 = parse_xml('<a x="1" y="2"/>')
        t2 = parse_xml('<a y="2" x="1"/>')
        assert trees_isomorphic(t1, t2)

    def test_invalid_xml_raises(self):
        with pytest.raises(ParseError):
            parse_xml("<a><b></a>")

    def test_round_trip(self):
        tree = parse_xml(SAMPLE)
        regenerated = write_xml(tree)
        assert trees_isomorphic(parse_xml(regenerated), tree)

    def test_round_trip_with_mixed_content(self):
        tree = parse_xml("<p>alpha <em>beta</em> gamma</p>")
        assert trees_isomorphic(parse_xml(write_xml(tree)), tree)

    def test_write_escapes_special_characters(self):
        tree = parse_xml("<a note='5 &lt; 6 &amp; 7'>x &amp; y</a>")
        out = write_xml(tree)
        assert "&lt;" in out and "&amp;" in out
        assert trees_isomorphic(parse_xml(out), tree)

    def test_write_rejects_non_element_root(self):
        tree = Tree.from_obj(("@attr", "x"))
        with pytest.raises(ParseError):
            write_xml(tree)

    def test_write_rejects_element_values(self):
        # A generated document's S leaves hold their sentence as the
        # element's value; the encoding keeps text in #text children, so
        # writing them as <S/> would lose it.
        document = generate_document(3, DocumentSpec(2, 2, 2))
        with pytest.raises(ParseError):
            write_xml(document)

    def test_write_empty_tree(self):
        assert write_xml(Tree()) == ""


class TestXmlDiff:
    def test_attribute_change_is_update(self):
        t1 = parse_xml('<cfg><db host="alpha" port="5432"/></cfg>')
        t2 = parse_xml('<cfg><db host="beta" port="5432"/></cfg>')
        result = tree_diff(t1, t2)
        assert result.verify(t1, t2)
        # host attribute updated (or replaced); port untouched
        touched = {op.node_id for op in result.script.updates} | {
            op.node_id for op in result.script.deletes
        }
        port_node = next(n for n in t1.preorder() if n.label == "@port")
        assert port_node.id not in touched

    def test_element_move_detected(self):
        t1 = parse_xml(
            "<root><group><item>payload text one</item>"
            "<item>anchor text aa</item><item>anchor text bb</item></group>"
            "<group><item>anchor text cc</item><item>anchor text dd</item>"
            "<item>anchor text ee</item></group></root>"
        )
        t2 = parse_xml(
            "<root><group>"
            "<item>anchor text aa</item><item>anchor text bb</item></group>"
            "<group><item>anchor text cc</item><item>anchor text dd</item>"
            "<item>anchor text ee</item><item>payload text one</item></group></root>"
        )
        result = tree_diff(t1, t2)
        assert result.verify(t1, t2)
        assert result.script.summary()["move"] >= 1

    def test_keyed_xml_matching(self):
        """sku attributes serve as keys via the keyed matcher."""
        t1 = parse_xml(SAMPLE)
        t2 = parse_xml(SAMPLE.replace("steel shelf", "steel shelf deluxe"))

        def sku_key(node):
            if node.label != "product":
                return None
            for child in node.children:
                if child.label == "@sku":
                    return child.value
            return None

        matching = match_by_keys(t1, t2, sku_key)
        assert len(matching) == 2

    def test_ladiff_pipeline_accepts_xml(self):
        from repro.ladiff import ladiff
        old = "<doc><p>alpha beta gamma</p></doc>"
        new = "<doc><p>alpha beta delta gamma</p></doc>"
        result = ladiff(old, new, format="xml", output="text")
        assert result.diff.verify(result.old_tree, result.new_tree)
        assert "UPD" in result.output or "INS" in result.output
