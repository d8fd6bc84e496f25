"""Variable-k gating walkthrough.

Each expert owns a representation column and a trainable threshold. A token
activates every expert whose squashed cosine score strictly beats that
expert's squashed threshold, so the number of active experts is a property
of the token, not a fixed hyperparameter: some tokens run three experts,
some run one, some run none (during training).
"""

import numpy as np

from dynmoe import RouterParams, cosine_scores_batch, sigmoid

rng = np.random.default_rng(0)

D, K = 8, 4
params = RouterParams.random(D, K, rng)
print(f"router: {K} experts over {D}-dim tokens, thresholds start at 0 "
      f"(squashed: {sigmoid(params.g.value)[0]:.2f})")

tokens = rng.standard_normal((6, D))
decision = params.route(tokens, "train")
scores = cosine_scores_batch(tokens, params.w_g.value)

print("\nper-token activation counts (top-any, training mode):")
for i in range(6):
    active = np.nonzero(decision.mask[i])[0].tolist()
    print(f"  token {i}: k={decision.k[i]}  experts={active}  "
          f"scores={np.round(scores[i], 2).tolist()}")

# --- thresholds steer sparsity ------------------------------------------------
# Raising one expert's threshold can only shrink its activation set; other
# experts are untouched.
params.g.value[1] = 1.5
stricter = params.route(tokens, "train")
print(f"\nafter raising expert 1's threshold to 1.5: "
      f"activations of expert 1 went {int(decision.mask[:, 1].sum())} -> "
      f"{int(stricter.mask[:, 1].sum())}")

# --- token magnitude does not matter ------------------------------------------
scaled = params.route(1000.0 * tokens, "train")
print(f"scaling all tokens by 1000 changes no decision: "
      f"{np.array_equal(scaled.mask, stricter.mask)}")

# --- evaluation mode never drops a token ---------------------------------------
params.g.value[:] = 3.0  # make everything hard to activate
starved = params.route(tokens, "train")
rescued = params.route(tokens, "eval")
print(f"\nwith thresholds at 3.0, training-mode k: {starved.k.tolist()}")
print(f"eval-mode falls back to top-1:     k: {rescued.k.tolist()}")
