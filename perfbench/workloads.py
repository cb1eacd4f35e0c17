"""The benchmark's three workloads and their seeded request sequences.

Every workload issues all six paper templates (Q1-Q6, paper appendix),
so every per-template metric exists on every workload:

* ``operational`` -- prepared ``$firstName`` statements (the paper's
  latency-bound traffic).  Q1-Q3 are the paper texts; Q4-Q6 are their
  point forms, restricted to one person by ``firstName``.  Names are the
  high/medium/low selectivity names of ``LDBCDataset.first_name``.
* ``analytical`` -- literal texts: Q4-Q6 verbatim, which touch large
  parts of the graph and return hundreds to thousands of rows, plus
  Q1-Q3 at medium selectivity, as literal texts.
* ``adhoc`` -- every request a distinct literal text, built from the six
  pattern shapes plus larger multi-edge shapes, with a name drawn from
  the graph and a varied RETURN/ORDER BY/LIMIT, so every request compiles.

A request is a plain tuple ``(template, kind, text, parameters)``:
``kind`` names the distinct request (for the output check and the
per-kind statistics), ``text`` is the Cypher text and ``parameters`` is
``None`` for a literal query.  Sequences are built only from the seed and
the graph's names, never from timing.
"""

import random

QUERY_TEXTS = {
    "Q1": """
MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post)
WHERE person.firstName = {name}
RETURN message.creationDate, message.content
""",
    "Q2": """
MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post),
      (message)-[:replyOf*0..10]->(post:Post)
WHERE person.firstName = {name}
RETURN message.creationDate, message.content,
       post.creationDate, post.content
""",
    "Q3": """
MATCH (p1:Person)-[:knows]->(p2:Person),
      (p2)<-[:hasCreator]-(comment:Comment),
      (comment)-[:replyOf*1..10]->(post:Post),
      (post)-[:hasCreator]->(p1)
WHERE p1.firstName = {name}
RETURN p1.firstName, p1.lastName,
       p2.firstName, p2.lastName,
       post.content
""",
    "Q4": """
MATCH (person:Person)-[:isLocatedIn]->(city:City),
      (person)-[:hasInterest]->(tag:Tag),
      (person)-[:studyAt]->(uni:University),
      (person)<-[:hasMember|hasModerator]-(forum:Forum)
{where}RETURN person.firstName, person.lastName,
       city.name, tag.name, uni.name, forum.title
""",
    "Q5": """
MATCH (p1:Person)-[:knows]->(p2:Person),
      (p2)-[:knows]->(p3:Person),
      (p1)-[:knows]->(p3)
{where}RETURN p1.firstName, p1.lastName,
       p2.firstName, p2.lastName,
       p3.firstName, p3.lastName
""",
    "Q6": """
MATCH (p1:Person)-[:knows]->(p2:Person),
      (p1)-[:hasInterest]->(t1:Tag),
      (p2)-[:hasInterest]->(t1),
      (p2)-[:hasInterest]->(t2:Tag)
{where}RETURN p1.firstName, p1.lastName, t2.name
""",
}

#: the person variable a Q4-Q6 point form restricts by firstName
_ANCHOR = {"Q4": "person", "Q5": "p1", "Q6": "p1"}

TEMPLATES = tuple(sorted(QUERY_TEXTS))
SELECTIVITIES = ("high", "medium", "low")
WORKLOADS = ("operational", "analytical", "adhoc")

#: LDBC scale factor per workload
SCALE_FACTOR = {"operational": 1.0, "analytical": 1.0, "adhoc": 0.2}

#: distinct adhoc texts per run; more than the service's plan cache holds
#: (``DEFAULT_PLAN_CACHE_SIZE``, 256), and sent cyclically, so no text is
#: still cached when it comes round again
ADHOC_POOL = 320


def paper_text(template, name_literal):
    """The template with its person restricted to ``name_literal``.

    ``name_literal`` is a Cypher expression: ``'Jan'`` or ``$firstName``.
    Q1-Q3 carry the restriction in the paper; Q4-Q6 gain it here.
    """
    text = QUERY_TEXTS[template]
    if "{where}" in text:
        where = "WHERE %s.firstName = %s\n" % (_ANCHOR[template], name_literal)
        text = text.replace("{where}", where)
    return text.replace("{name}", name_literal).strip()


def analytical_text(template, name):
    """Q4-Q6 verbatim; Q1-Q3 restricted to ``name``, as a literal."""
    text = QUERY_TEXTS[template]
    if "{where}" in text:
        return text.replace("{where}", "").strip()
    return text.replace("{name}", _quote(name)).strip()


def _quote(name):
    return "'%s'" % name.replace("\\", "\\\\").replace("'", "\\'")


def distinct_requests(workload, names):
    """The distinct requests, as ``(template, kind, text, params)``.

    ``names`` maps ``"high"|"medium"|"low"`` to a firstName.
    """
    if workload == "operational":
        return [
            (template, "%s/%s" % (template, selectivity),
             paper_text(template, "$firstName"),
             {"firstName": names[selectivity]})
            for template in TEMPLATES
            for selectivity in SELECTIVITIES
        ]
    if workload == "analytical":
        return [
            (template, template, analytical_text(template, names["medium"]),
             None)
            for template in TEMPLATES
        ]
    raise ValueError("workload %r has no fixed request set" % workload)


def balanced_order(count, rng, start):
    """A seeded order of ``range(count)`` in which each ordered pair follows.

    Returns ``count ** 2`` items starting at ``start``: an Eulerian circuit
    of the complete directed graph with self-loops, so that when the
    sequence is repeated, every ``(a, b)`` (``a == b`` too) appears as
    neighbours exactly once per repetition.
    """
    unused = {node: rng.sample(range(count), count) for node in range(count)}
    stack, circuit = [start], []
    while stack:
        node = stack[-1]
        if unused[node]:
            stack.append(unused[node].pop())
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    return circuit[:-1]  # the circuit closes on ``start``


class RequestSequence:
    """The seeded, endless request sequence of one workload.

    Operational and analytical traffic comes in rounds of 36 requests.  A
    round orders the six templates by :func:`balanced_order`, so each
    template follows each template (itself too) exactly once.  The
    server's time for a request depends on the request before it (it is
    slower right after a large answer), so this keeps that effect the same
    for every seed; a seeded shuffle would not.  Operational traffic
    then gives each template's six places in a round its three names
    twice, in seeded order.  Adhoc traffic cycles through a seeded pool of
    :data:`ADHOC_POOL` distinct texts; a round is one request.
    """

    def __init__(self, workload, seed, names=None, graph_names=None):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self._rng = random.Random("%s:%d" % (workload, seed))
        if workload == "adhoc":
            self.kinds = adhoc_pool(seed, graph_names, ADHOC_POOL)
            self.round_length = 1
        else:
            self.kinds = distinct_requests(workload, names)
            self.round_length = len(TEMPLATES) ** 2
            self._start = self._rng.randrange(len(TEMPLATES))
        self._order = []

    def __getitem__(self, index):
        """Request ``index`` of the sequence (deterministic, any order)."""
        if self.workload == "adhoc":
            return self.kinds[index % len(self.kinds)]
        while len(self._order) <= index:
            self._order.extend(self._round())
        return self._order[index]

    def _round(self):
        by_template = {}
        for request in self.kinds:
            by_template.setdefault(request[0], []).append(request)
        places = len(TEMPLATES)
        queues = {}
        for template, requests in by_template.items():
            queue = requests * (places // len(requests))
            self._rng.shuffle(queue)
            queues[template] = queue
        return [
            queues[TEMPLATES[position]].pop()
            for position in balanced_order(places, self._rng, self._start)
        ]

    def prefix(self, count):
        return [self[index] for index in range(count)]


# Adhoc texts ----------------------------------------------------------------

#: ``(base template, MATCH body, returnable items)``.  The first six are
#: the paper shapes; the rest are larger multi-edge shapes over the LDBC
#: schema, each derived from the paper template it extends.  ``person``
#: is the person every request restricts by firstName; ``{hops}`` is the
#: upper bound of a variable-length hop.
ADHOC_SHAPES = (
    ("Q1", """(person:Person)<-[:hasCreator]-(message:Comment|Post)""",
     ("message.creationDate", "message.content")),
    ("Q2", """(person:Person)<-[:hasCreator]-(message:Comment|Post),
      (message)-[:replyOf*0..{hops}]->(post:Post)""",
     ("message.creationDate", "message.content", "post.creationDate",
      "post.content")),
    ("Q3", """(person:Person)-[:knows]->(p2:Person),
      (p2)<-[:hasCreator]-(comment:Comment),
      (comment)-[:replyOf*1..{hops}]->(post:Post),
      (post)-[:hasCreator]->(person)""",
     ("person.lastName", "p2.firstName", "p2.lastName", "post.content")),
    ("Q4", """(person:Person)-[:isLocatedIn]->(city:City),
      (person)-[:hasInterest]->(tag:Tag),
      (person)-[:studyAt]->(uni:University),
      (person)<-[:hasMember|hasModerator]-(forum:Forum)""",
     ("person.lastName", "city.name", "tag.name", "uni.name",
      "forum.title")),
    ("Q5", """(person:Person)-[:knows]->(p2:Person),
      (p2)-[:knows]->(p3:Person),
      (person)-[:knows]->(p3)""",
     ("person.lastName", "p2.firstName", "p2.lastName", "p3.firstName",
      "p3.lastName")),
    ("Q6", """(person:Person)-[:knows]->(p2:Person),
      (person)-[:hasInterest]->(t1:Tag),
      (p2)-[:hasInterest]->(t1),
      (p2)-[:hasInterest]->(t2:Tag)""",
     ("person.lastName", "t1.name", "t2.name")),
    ("Q1", """(person:Person)<-[:hasCreator]-(comment:Comment),
      (comment)-[:replyOf]->(parent:Post),
      (parent)-[:hasCreator]->(author:Person),
      (author)-[:isLocatedIn]->(city:City)""",
     ("comment.content", "parent.content", "author.firstName", "city.name")),
    ("Q3", """(person:Person)-[:knows]->(p2:Person),
      (p2)<-[:hasCreator]-(comment:Comment),
      (comment)-[:replyOf*1..{hops}]->(post:Post),
      (post)-[:hasCreator]->(person),
      (person)-[:isLocatedIn]->(city:City),
      (p2)-[:isLocatedIn]->(city2:City)""",
     ("p2.firstName", "post.content", "city.name", "city2.name")),
    ("Q4", """(person:Person)-[:isLocatedIn]->(city:City),
      (person)-[:hasInterest]->(tag:Tag),
      (person)-[:studyAt]->(uni:University),
      (person)<-[:hasMember|hasModerator]-(forum:Forum),
      (person)-[:knows]->(friend:Person),
      (friend)-[:isLocatedIn]->(fcity:City),
      (friend)-[:hasInterest]->(ftag:Tag),
      (friend)-[:studyAt]->(funi:University)""",
     ("city.name", "tag.name", "uni.name", "friend.firstName", "fcity.name",
      "ftag.name", "funi.name")),
    ("Q5", """(person:Person)-[:knows]->(p2:Person),
      (p2)-[:knows]->(p3:Person),
      (person)-[:knows]->(p3),
      (person)-[:hasInterest]->(tag:Tag),
      (p3)-[:hasInterest]->(tag)""",
     ("p2.firstName", "p3.firstName", "tag.name")),
    ("Q6", """(person:Person)-[:knows]->(p2:Person),
      (person)-[:hasInterest]->(t1:Tag),
      (p2)-[:hasInterest]->(t1),
      (p2)-[:hasInterest]->(t2:Tag),
      (p2)-[:studyAt]->(uni:University),
      (person)-[:studyAt]->(uni)""",
     ("p2.lastName", "t2.name", "uni.name")),
)

_HOPS = (3, 5, 10)
_LIMITS = (None, None, 5, 20)


def adhoc_text(rng, graph_names):
    """One random adhoc request ``(template, text)``."""
    template, body, items = rng.choice(ADHOC_SHAPES)
    body = body.replace("{hops}", str(rng.choice(_HOPS)))
    name = rng.choice(graph_names)
    picked = [item for item in items if rng.random() < 0.6] or [items[0]]
    form = rng.randrange(4)
    if form == 0:  # aggregate: implicit grouping over the picked items
        returns = "RETURN %s, count(*)" % ", ".join(picked)
        tail = ""
    else:
        returns = "RETURN %s%s" % (
            "DISTINCT " if form == 1 else "", ", ".join(picked)
        )
        limit = rng.choice(_LIMITS)
        # ORDER BY every returned column, so LIMIT keeps a well-defined
        # row multiset whatever order the engine produces rows in
        tail = (
            "" if limit is None
            else "\nORDER BY %s LIMIT %d" % (", ".join(picked), limit)
        )
    text = "MATCH %s\nWHERE person.firstName = %s\n%s%s" % (
        body, _quote(name), returns, tail
    )
    return template, text


def adhoc_pool(seed, graph_names, size):
    """``size`` distinct adhoc requests, in seeded order."""
    if not graph_names:
        raise ValueError("adhoc texts need the graph's firstName values")
    rng = random.Random("adhoc-pool:%d" % seed)
    names = sorted(graph_names)
    seen = set()
    pool = []
    while len(pool) < size:
        template, text = adhoc_text(rng, names)
        if text in seen:
            continue
        seen.add(text)
        pool.append((template, "%s/%d" % (template, len(pool)), text, None))
    return pool
