"""Compile the bundled API grammar and walk its dependency structure.

The grammar file is a small Swagger-v2 subset with extension fields: every
parameter carries a dictionary of candidate values and a default, and
producer/consumer relationships are explicit annotations rather than
heuristics.  Compilation turns it into request templates, each naming the
resource type it produces and the types it consumes; sequence construction
appends a template only once every type it consumes has been produced.
"""

from restfuzz.grammar import parse_spec
from restfuzz.mock_service import packaged_grammar_path

grammar = parse_spec(packaged_grammar_path().read_bytes())

print(f"templates: {len(grammar.templates)}")
for template in grammar.templates.values():
    notes = []
    if template.produces:
        notes.append(f"produces {template.produces[0]} at {template.produces[1]!r}")
    if template.consumed_types:
        notes.append(f"consumes {', '.join(sorted(template.consumed_types))}")
    print(f"  {template.template_id:35s} {'; '.join(notes)}")

print("\nparameter dictionaries for GET /groups/{id}:")
for spec in grammar.templates["GET /groups/{id}"].params:
    if spec.is_consumer:
        print(f"  {spec.name}: filled from a produced {spec.consumes!r} id")
    else:
        print(f"  {spec.name}: {list(spec.dictionary)} (default {spec.default!r})")

print("\nproducers -> consumers per resource type:")
for rtype in sorted(grammar.resource_types):
    producers = ", ".join(t.template_id for t in grammar.producers_of(rtype))
    consumers = ", ".join(t.template_id for t in grammar.consumers_of(rtype))
    print(f"  {rtype}: {producers} -> {consumers}")

# Satisfiability grows monotonically with the available resource types:
# an empty pool only supports templates with no consumer parameters.
print("\nsatisfiable templates as resources become available:")
for available in (frozenset(), frozenset({"group"}), frozenset({"group", "project"})):
    ids = grammar.satisfiable_ids(available)
    print(f"  {sorted(available) or '{}'}: {len(ids)} templates")
