"""Repeat-until-success transport through a chain of imperfect flip stages.

Every stage succeeds with probability p (one step forward) and otherwise
sends the excitation back one stage; falling off the front just costs the
step.  Because a failed stage only ever bounces the walker - it never
corrupts the state - the conditional fidelity is exactly one and the only
price of imperfection is time.
"""

from cavnet import RetryWalkParams, retry_walk, retry_walk_mc

print(f"{'p':>5} {'n':>3} {'P(success)':>12} {'E[steps]':>10} {'MC check':>10}")
for p in (0.5, 0.8, 0.95):
    for n in (2, 4, 8):
        params = RetryWalkParams(p_flip=p, n_cavities=n)
        res = retry_walk(params)
        mc = retry_walk_mc(params, trajectories=100_000, seed=2024)
        print(
            f"{p:5.2f} {n:3d} {res.success_prob:12.6f} "
            f"{res.expected_steps:10.4f} {mc:10.6f}"
        )

# perfect stages: the walk is a conveyor belt, n steps for n stages
res = retry_walk(RetryWalkParams(p_flip=1.0, n_cavities=6))
print(f"\np = 1: expected steps = {res.expected_steps}  (one per stage)")

# symmetric stages: expected time grows quadratically, n (n + 2)
print("p = 1/2 scaling:")
for n in (2, 4, 8, 16):
    res = retry_walk(RetryWalkParams(p_flip=0.5, n_cavities=n))
    print(f"  n = {n:2d}: E[steps] = {res.expected_steps:7.1f}   n(n+2) = {n * (n + 2)}")
