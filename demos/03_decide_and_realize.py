"""The full pipeline: is a set of integers a tournament imbalance set?

Odd sets need only both signs; even sets additionally need an
odd-total equal-sum pair across their two sides (a zero member counts,
via a single apex vertex).  Every yes comes with an explicit, verified
tournament.
"""

from imbalanceset import decide_tis, order_upper_bound, realize_imbalance_set

EXAMPLES = [
    {0},
    {1, -1},
    {3, -1},
    {4, 2, -2},
    {2, 0, -2},
    {6, -10},
    {2, -2},
    {4, -6},
    {1, 2},
    {3, -2},
]

for members in EXAMPLES:
    shown = sorted(members, reverse=True)
    decision = decide_tis(members, with_certificate=True)
    if not decision.verdict:
        print(f"  {shown}: no ({decision.refusal})")
        continue
    graph = decision.certificate
    line = f"  {shown}: yes, built order {graph.n}"
    line += f", guaranteed <= {order_upper_bound(members)}"
    if decision.witness is not None:
        line += f", equal-sum pair {list(decision.witness.xs)} ~ {list(decision.witness.ys)}"
    print(line)

print()
print("The order-13 certificate for {4, 2, -2} in full:")
graph = realize_imbalance_set({4, 2, -2})
print(f"  imbalance sequence: {graph.imbalance_sequence()}")
rows = zip(graph.out_degrees(), graph.in_degrees(), graph.imbalances())
for v, (out, inn, imbalance) in enumerate(rows):
    print(f"  vertex {v}: out {out}, in {inn}, imbalance {imbalance:+d}")
