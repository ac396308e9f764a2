"""The reference for ``fileformat._build``: pyyaml's own constructor,
subclassed to keep the library's YAML rules.  The walk must build what
this loader builds, or refuse where it refuses, with the same message."""

import yaml


def marked_scalars(base: type) -> type:
    """``base`` with the !!int, !!float, !!bool and !!timestamp constructors
    raising a ConstructorError at the scalar's start mark on a malformed
    value, and a number that prints differently from its text (``01``,
    ``1.50``, ``0x1F``) kept as that text, and a key written twice in one
    mapping refused at its second mark; every other node is constructed
    as ``base`` does it."""

    class Loader(base):
        def construct_mapping(self, node, deep=False):
            own = node.value  # flatten_mapping drops merge keys from it
            mapping = base.construct_mapping(self, node, deep)
            if len(mapping) != len(node.value):  # a repeat, or an override of a merge
                seen = set()
                for key_node, _ in own:
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"repeated key {key!r}", key_node.start_mark)
                    seen.add(key)
            return mapping

    def construct_marked(loader, node):
        # 2001-02-30 and !!int abc raise ValueError, !!bool maybe
        # KeyError, !!timestamp abc AttributeError
        try:
            value = base.yaml_constructors[node.tag](loader, node)
        except (ValueError, KeyError, AttributeError):
            tag = node.tag.rsplit(":", 1)[1]
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot read !!{tag} value '{node.value[:40]}'",
                node.start_mark) from None
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and str(value) != node.value):
            return node.value
        return value

    for tag in ("int", "float", "bool", "timestamp"):
        Loader.add_constructor(f"tag:yaml.org,2002:{tag}", construct_marked)
    return Loader
