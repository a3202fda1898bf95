"""
Walking the constructive induction on the anarchy pair
======================================================

The finiteness argument for anarchy harmonious tuples is a greedy
decomposition: at each step a damping prime set and absorbed prime powers
move mass out of the members while an exact inequality certifies the step.
Running it on (64, 173369889) yields a machine-checked certificate trace.

CLI equivalent:
    harmonia induction trace 64 173369889 --json
"""

from harmonia.induction import theorem_trace

# one call runs the step chain and the case split on the radical
theorem = theorem_trace((64, 173369889))
trace = theorem.trace
print(f"members {trace.members}, {trace.distinct_primes} distinct primes")
for cert in trace.steps:
    print(f"step {cert.step}: damping={cert.damping} v={cert.v} w={cert.w}")
    print(f"  absorbed {cert.absorbed}")
    print(f"  entry sum  {cert.entry_sum}")
    print(f"  damped sum {cert.damped_sum}")
    print(f"  exit sum   {cert.exit_sum}")
    print(f"  lhs bits {cert.lhs.bit_length()}, bound bits {cert.bound.bit_length()}, "
          f"holds={cert.all_hold}")

print(f"sum v = {trace.sum_v}, sum w = {trace.sum_w}")
print(f"aggregate: {trace.final_lhs} < 2^{trace.final_rhs_bits} is {trace.final_holds}")

# the case split that turns the trace into the product bound
print(f"radical {theorem.radical} -> branch {theorem.branch}")
print(f"product {theorem.product} below main bound: {theorem.product_below_main_bound}")
assert trace.final_holds and theorem.combined_holds
