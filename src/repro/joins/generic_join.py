"""Generic Join — the EmptyHeaded-style worst-case optimal join.

EmptyHeaded (Aberger et al., SIGMOD'16) evaluates conjunctive queries with
*Generic Join*: for each variable in a global order it **materialises** the
full intersection of the candidate sets contributed by the participating
atoms (as a SIMD-friendly set), then iterates over the materialised set and
recurses.  The algorithm is worst-case optimal like LFTJ, but differs in two
ways that matter for the paper's comparison:

* it materialises one intersection buffer per recursion level (ephemeral,
  but it costs memory traffic proportional to the candidate-set sizes rather
  than leapfrog's output-sensitive probing), and
* it parallelises statically over the first variable's value set (the
  "static MT" scheme of Figure 8), which the CPU cost model in
  :mod:`repro.baselines.emptyheaded` exploits.

Execution is the plan kernel of :mod:`repro.joins.leapfrog` in its
``materialise`` intersection mode: the same tries, slot program and loop
nest as LFTJ, but each depth scans its smallest candidate range, probes the
others by binary search and writes the survivors into a list (one
``index_element_write`` each) before iterating it.
"""

from __future__ import annotations

from repro.joins.leapfrog import LeapfrogTrieJoin


class GenericJoin(LeapfrogTrieJoin):
    """Materialising (EmptyHeaded-style) worst-case optimal join."""

    name = "generic"
    intersection = "materialise"
