"""Tour of the mock target: validation, CRUD semantics and the four bugs.

Every bug is independently armable; disarmed behavior is strictly
conformant (no input ever yields a 5xx).  Branch hit counters back the
coverage comparisons in the acceptance suite.
"""

import json

from restfuzz.client import HttpClient, ReadyRequest
from restfuzz.mock_service import ALL_BUGS, BugConfig, serve

handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
client = HttpClient(handle.base_url)


def show(title, record):
    print(f"  {title:58s} -> {record.status}")


print(f"mock target on {handle.base_url}, all four bugs armed\n")

print("validation (syntax and semantics checked before any behavior):")
show("GET /groups?statistics=3 (wrong type for a boolean)",
     client.send(ReadyRequest("GET", "/groups", query={"statistics": "3"})))
show("POST /groups without the required name",
     client.send(ReadyRequest("POST", "/groups", body={"path": "eng"})))
show("POST /projects with a malformed datetime",
     client.send(ReadyRequest("POST", "/projects",
                              body={"name": "web-app", "path": "eng",
                                    "created_after": "not-a-date"})))

print("\nnormal CRUD flow:")
created = client.send(ReadyRequest("POST", "/groups",
                                   body={"name": "dev-team", "path": "eng"}))
show("POST /groups (valid)", created)
gid = json.loads(created.body)["id"]
show(f"GET /groups/{gid}", client.send(ReadyRequest("GET", f"/groups/{gid}")))

print("\nbug b-perpage: page size zero on the listing")
show("GET /groups?per_page=0",
     client.send(ReadyRequest("GET", "/groups", query={"per_page": "0"})))

print("\nbug b-parentid: special parent ids on creation")
show("POST /groups with parent_id=-1",
     client.send(ReadyRequest("POST", "/groups",
                              body={"name": "dev-team", "path": "eng",
                                    "parent_id": "-1"})))

print("\nbug b-undef: an undefined parameter on update")
show(f"PUT /groups/{gid} with initialize_with_readme",
     client.send(ReadyRequest("PUT", f"/groups/{gid}",
                              body={"name": "dev-team",
                                    "initialize_with_readme": "true"})))

print("\nbug b-uaf: create, delete, then access the attributes")
show(f"DELETE /groups/{gid}",
     client.send(ReadyRequest("DELETE", f"/groups/{gid}")))
show(f"GET /groups/{gid}/attributes (deleted -> 500 instead of 404)",
     client.send(ReadyRequest("GET", f"/groups/{gid}/attributes")))
show("GET /groups/999/attributes (never existed -> plain 404)",
     client.send(ReadyRequest("GET", "/groups/999/attributes")))

coverage = json.loads(client.send(ReadyRequest("GET", "/__coverage")).body)
print(f"\nbranch counters ({len(coverage)} distinct branches hit):")
for label, count in list(coverage.items())[:8]:
    print(f"  {count:4d}  {label}")

client.close()
handle.stop()
