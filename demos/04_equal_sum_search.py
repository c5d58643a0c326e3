"""Equal-sum sequence searches.

The bounded variant looks for nonempty sequences from two sets with
equal sums under a repetition cap.  The odd-total variant drives the
even case of the realization pipeline: it wants the shortest pair
whose combined number of terms is odd, and such a pair always has
fewer terms than the canonical expansion length when it exists at all.
"""

from imbalanceset import (
    ImbalanceSet,
    min_odd_equal_sum,
    power_of_two_check,
    solve_esseq,
)

print("== bounded equal-sum sequences ==")
for xs, ys, cap in [({3}, {2}, 1), ({3}, {2}, 3), ({2}, {2}, 1), ({5, 7}, {3}, 4)]:
    witness = solve_esseq(xs, ys, cap)
    if witness is None:
        print(f"  X={sorted(xs)} Y={sorted(ys)} cap={cap}: none")
    else:
        print(f"  X={sorted(xs)} Y={sorted(ys)} cap={cap}: "
              f"{list(witness.xs)} ~ {list(witness.ys)} (sum {witness.common_sum})")

print()
print("== minimal odd-total pairs for even sets ==")
for xs, ys in [({4}, {2}), ({2}, {2}), ({2}, {4}), ({6}, {10}), ({2, 8}, {6})]:
    witness = min_odd_equal_sum(xs, ys)
    if witness is None:
        print(f"  X={sorted(xs)} |Y|={sorted(ys)}: none (every pair has even total)")
    else:
        print(f"  X={sorted(xs)} |Y|={sorted(ys)}: {list(witness.xs)} ~ "
              f"{list(witness.ys)}, total length {witness.total_length}")

print()
print("== a quick sufficient condition: powers of two ==")
# A member +/-2^p plus an opposite member of different 2-adic valuation
# settles realizability without any search.
for members in [{4, -6}, {2, -2}, {2, -6}, {6, -10}, {16, -10}]:
    parts = ImbalanceSet.from_values(members)
    print(f"  {sorted(members, reverse=True)}: "
          f"{'realizable (shortcut)' if power_of_two_check(parts) else 'inconclusive'}")
