"""The benchmark's workloads (``bench/workloads.py``) reach the library only
through ``api.<name>`` chains; each must resolve on the ``adhocnet``
package, so that renaming or deleting a public name fails a test before it
breaks the benchmark."""

import ast
import os

import adhocnet

WORKLOADS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "workloads.py")


def _api_chains(tree):
    """Every dotted name ``api.a.b...`` in the module, as a tuple of the
    attribute names after ``api``."""
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "api":
            chains.add(tuple(reversed(names)))
    return chains


def test_every_api_name_in_the_workloads_resolves():
    with open(WORKLOADS_PATH) as f:
        chains = _api_chains(ast.parse(f.read()))
    assert ("run_experiment",) in chains
    missing = []
    for chain in sorted(chains):
        obj = adhocnet
        for name in chain:
            if not hasattr(obj, name):
                missing.append("api." + ".".join(chain))
                break
            obj = getattr(obj, name)
    assert missing == []
