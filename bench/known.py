"""Known answers the benchmark checks program outputs against.

These are written out from the paper, not read from the program, so a
change to the program's own tables cannot make its verdicts agree with
themselves.
"""

# The paper's operation-by-property table: for each of the fourteen
# catalogue operations, whether it is homomorphism-safe, safe for induced
# substructures, function-preserving, and forward-bounded.
PROPERTY_COLUMNS = ("homsafe", "subsafe", "fp", "forward")

PROPERTY_TABLE = {
    "id": (True, True, True, True),
    "empty": (True, True, True, True),
    "top": (True, True, False, False),
    "complement": (False, True, False, False),
    "converse": (True, True, False, False),
    "dom": (True, True, True, True),
    "ran": (True, True, True, False),
    "antidom": (False, False, True, True),
    "union": (True, True, False, True),
    "inter": (True, True, True, True),
    "diff": (False, True, True, True),
    "compose": (True, True, True, True),
    "semijoin": (True, True, True, True),
    "prefunion": (False, False, True, True),
}

# Target operation sets: synthesis outputs and compiled formulas must stay
# inside them.
FORWARD_BASIS = frozenset({"compose", "antidom", "inter", "prefunion"})
INJECTIVE_BASIS = frozenset({"compose", "antidom", "inter", "converse", "injunion"})
HOMSAFE_BASIS = frozenset({"id", "empty", "top", "compose", "union", "inter", "converse"})

# The function algebra whose closure on the separation structure stops at
# eight relations until converse joins.
FA_BASIS = frozenset(
    {"id", "empty", "dom", "ran", "antidom", "inter", "diff", "compose", "semijoin", "prefunion"}
)

# The seven operation identities of the catalogue (acceptance criterion c01).
IDENTITIES = (
    ("dom(R)", "(R ; R^) & id"),
    ("~R", "id \\ dom(R)"),
    ("ran(R)", "dom(R^)"),
    ("R |> S", "R ; dom(S)"),
    ("R <+ S", "R | (S \\ (dom(R) ; T))"),
    ("R <# S", "(R <+ S) & ((R^ <+ S^)^)"),
    ("-R", "T \\ R"),
)

# Bounded checks on compound terms, with the answer the paper's properties
# give.  A term over operations that all preserve a property has it (for
# local boundedness converse counts too, since undirected balls contain the
# forward ones).  The negative answers have concrete witnesses:
#   f <+ (g ; g)   a homomorphism can define f where the source left it
#                  undefined, which drops the added g ; g pair;
#   dom(f) ; g^    pairs a g-predecessor of the anchor, which no forward
#                  ball reaches.
COMPOUND_CHECKS = (
    ("f ; g", {"forward": True, "local": True, "homsafe": True}),
    ("f <+ (g ; g)", {"forward": True, "local": True, "homsafe": False}),
    ("dom(f) ; g^", {"forward": False, "local": True, "homsafe": True}),
)
