"""Equal-sum sequence searches.

The bounded variant looks for nonempty sequences from two sets with
equal sums under a repetition cap.  The odd-total variant drives the
even case of the realization pipeline: it wants the shortest pair
whose combined number of terms is odd.  Such a pair exists exactly when
the members do not all share one 2-adic valuation ({6, -10} shares
valuation 1, so every pair has even total), and it has fewer terms than
the canonical expansion length.
"""

from imbalanceset import min_odd_equal_sum, solve_esseq

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
