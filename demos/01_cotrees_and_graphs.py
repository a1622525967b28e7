"""
Cotrees and the graphs they denote
==================================

A cograph is any graph you can build from single vertices using disjoint
union and join.  The build recipe itself is the cotree: leaves are vertices,
inner nodes say which operation combined their children.  This script walks
the round trip expression -> cotree -> graph and back.
"""

from cosec import (
    complement,
    lca_kind,
    materialize,
    normalize,
    parse_cotree,
    to_dot,
    to_text,
)

# The expression grammar is a tiny s-expression language: (U ...) for union,
# (J ...) for join, bare identifiers for vertices.
text = "(J (U c d e) (U (J a1) b))"
t = parse_cotree(text)
print("input:        ", text)
print("leaves:       ", [t.labels[v] for v in t.leaves()])

# The parser keeps whatever nesting you wrote, including the unary (J a1).
# Normalization collapses unary nodes and merges same-kind nesting; the
# denoted graph is unchanged.
tn = normalize(t)
print("normalized:   ", to_text(tn))

# Materializing makes two linear passes, leaf sets bottom up and the vertices
# each node is joined to top down: two vertices are adjacent exactly when
# their lowest common ancestor is a join.
g = materialize(tn)
print("vertices:     ", g.n)
print("edges:        ", sorted(tuple(sorted(e)) for e in g.edge_labels()))

# You can ask adjacency without building the graph at all.
print("b ~ c?        ", lca_kind(tn, "b", "c"))   # join  -> adjacent
print("c ~ d?        ", lca_kind(tn, "c", "d"))   # union -> not adjacent

# Complementing a cograph is a pure relabeling: swap every union and join.
print("complement:   ", to_text(complement(tn)))

# DOT output renders inner nodes with the operation glyphs, ready for
# `dot -Tpng`.
print()
print(to_dot(tn))
