"""Two ways to turn a template into a request, against a live mock target.

The traditional method draws a random dictionary value for every
parameter, including the deliberately invalid entries, which is why it
gets rejected a lot.  The recommender-backed method starts from defaults and
overrides only the parameters named in a param-value list, a plain tuple
of (parameter, value) pairs, so everything it sends is built from
combinations that actually passed before.  The empty list () renders
every default.
"""

import json

import numpy as np

from restfuzz.client import HttpClient
from restfuzz.collection import ParamValuePair
from restfuzz.grammar import parse_spec
from restfuzz.mock_service import BugConfig, packaged_grammar_path, serve
from restfuzz.rendering import render_traditional, render_with_list

grammar = parse_spec(packaged_grammar_path().read_bytes())
handle = serve(0, BugConfig())
client = HttpClient(handle.base_url)
rng = np.random.default_rng(4)

# A producer run first: its response id feeds the consumer's {id} slot.
# The pool maps each resource type to the latest id produced for it.
pool = {}
post = grammar.templates["POST /groups"]
created = client.send(render_with_list(post, (), pool).request)
group_id = str(json.loads(created.body)["id"])
pool["group"] = group_id
print(f"producer POST /groups -> {created.status}, captured group id {group_id}")

get = grammar.templates["GET /groups/{id}"]
print("\ntraditional rendering, 8 attempts:")
for _ in range(8):
    step = render_traditional(get, pool, rng)
    record = client.send(step.request)
    print(f"  {step.request.path}?{step.request.query}  ->  {record.status}")

print("\ndefaults plus a recorded override:")
pairs = (ParamValuePair("with_projects", "false"),)
step = render_with_list(get, pairs, pool)
record = client.send(step.request)
print(f"  {step.request.path}?{step.request.query}  ->  {record.status}")
print("  parameters outside the list keep their defaults")

client.close()
handle.stop()
